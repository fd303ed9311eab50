"""Convergence diagnostics and posterior summaries.

Each diagnostic takes a 1-d chain or an (n, k) draws matrix, one column
per parameter, and gives one result per column.  Autocorrelations are
the biased FFT estimator, one FFT per block of columns; ESS is Geyer's
initial positive sequence, or N for a constant column or fewer than 10
draws.  Quantiles are type-7 (numpy's default).  Trace data is exported
as tidy CSV for external plotting; nothing here draws figures.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .sampler import ChainOutput

# the spectrum of one FFT block holds at most this many bytes (or one column's,
# if more), so a diagnostic's transient memory does not grow with the columns
FFT_BLOCK_BYTES = 1 << 18


class DegenerateChainWarning(UserWarning):
    """A chain with zero variance; autocorrelation/ESS are conventions."""


def constant_columns(draws: np.ndarray) -> np.ndarray:
    """Which columns of an (n, k) draws matrix are constant (zero variance)."""
    return np.all(draws == draws[:1], axis=0)


def _as_columns(chain) -> tuple[np.ndarray, bool]:
    """The draws as an (n, k) float matrix, and whether they came as one 1-d chain."""
    x = np.asarray(chain, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] == 0:
        raise ValueError(f"need a 1-d chain or an (n, k) draws matrix with at least "
                         f"one draw, got shape {x.shape}")
    return (x[:, None], True) if x.ndim == 1 else (x, False)


def _acf_blocks(x: np.ndarray, columns: np.ndarray, max_lag: int):
    """Autocorrelations at lags 0..max_lag of the given non-constant columns of x.

    Yields (block of column indices, (block size, max_lag + 1) array), one
    FFT per block.  The biased estimator divides every lag's autocovariance
    by N, not by N - lag; that common factor cancels in the ratio to lag 0.
    """
    n = x.shape[0]
    size = 1 << (2 * n - 1).bit_length()  # a power of two >= 2N: no wrap-around
    step = max(1, FFT_BLOCK_BYTES // (16 * (size // 2 + 1)))
    for start in range(0, columns.size, step):
        block = columns[start:start + step]
        rows = np.ascontiguousarray(x[:, block].T)
        rows -= rows.mean(axis=1, keepdims=True)
        f = np.fft.rfft(rows, size)
        acov = np.fft.irfft(f * np.conj(f), size)[:, :max_lag + 1]
        yield block, acov / acov[:, :1]


def _geyer_ess(acf: np.ndarray, n: int) -> np.ndarray:
    """ESS per row of acf (lags 0..n-1): lags summed in pairs, the pairs before
    the first non-positive one kept; an antithetic row (tau <= 1) is clamped at N."""
    pairs = acf[:, 0:n - 1:2] + acf[:, 1:n:2]
    kept = np.logical_and.accumulate(pairs > 0.0, axis=1).sum(axis=1)
    sums = np.cumsum(pairs, axis=1)
    gamma_sum = np.where(kept > 0, sums[np.arange(sums.shape[0]), kept - 1], 0.0)
    tau = 2.0 * gamma_sum - 1.0
    return n / np.maximum(tau, 1.0)


def _ess(x: np.ndarray, constant: np.ndarray) -> np.ndarray:
    """Each column's ESS: N if constant or under 10 draws, else Geyer's."""
    n = x.shape[0]
    ess = np.full(x.shape[1], float(n))
    if n >= 10:
        for block, acf in _acf_blocks(x, np.flatnonzero(~constant), n - 1):
            ess[block] = _geyer_ess(acf, n)
    return ess


def autocorrelation(chain, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 0..max_lag, shape (max_lag + 1,) or
    (max_lag + 1, k); lag 0 is exactly 1.  A constant column has none: by
    convention it gets [1, 0, ..., 0] and the call warns DegenerateChainWarning.
    """
    x, one_chain = _as_columns(chain)
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if x.shape[0] <= max_lag:
        raise ValueError(f"need a chain longer than max_lag={max_lag}, "
                         f"got shape {np.shape(chain)}")
    constant = constant_columns(x)
    if constant.any():
        warnings.warn("constant column(s): autocorrelation undefined", DegenerateChainWarning)
    out = np.zeros((max_lag + 1, x.shape[1]))
    for block, acf in _acf_blocks(x, np.flatnonzero(~constant), max_lag):
        out[:, block] = acf.T
    out[0] = 1.0
    return out[:, 0] if one_chain else out


def effective_sample_size(chain) -> float | np.ndarray:
    """Effective sample size N / (1 + 2·Σρ_k), Geyer-truncated, in (0, N].

    A float for a 1-d chain, one value per column of an (n, k) matrix.  A
    constant column reports N, and the call warns DegenerateChainWarning.
    """
    x, one_chain = _as_columns(chain)
    constant = constant_columns(x)
    if constant.any():
        warnings.warn("constant column(s): reporting ESS = N", DegenerateChainWarning)
    ess = _ess(x, constant)
    return float(ess[0]) if one_chain else ess


@dataclass(frozen=True)
class ParameterSummary:
    """Posterior summary for one named parameter."""

    name: str
    mean: float
    lq: float
    median: float
    uq: float
    ci95_low: float
    ci95_high: float
    ess: float
    degenerate: bool = False


def summarize(chain_output: ChainOutput) -> list[ParameterSummary]:
    """Per-parameter summaries over the stored draws.

    Quantiles are type-7; corner-constrained columns come out as exact
    zeros and are flagged degenerate rather than warned about, since a
    constant column there is expected.
    """
    draws = chain_output.draws
    n = draws.shape[0]
    if n < 2:
        raise ValueError(f"need >= 2 stored draws to summarize, got {n}")
    qs = np.quantile(draws, [0.025, 0.25, 0.5, 0.75, 0.975], axis=0).T.tolist()
    degenerate = constant_columns(draws)
    return [ParameterSummary(name, mean, lq, median, uq, low, high, ess, flat)
            for name, mean, (low, lq, median, uq, high), ess, flat
            in zip(chain_output.columns, draws.mean(axis=0).tolist(), qs,
                   _ess(draws, degenerate).tolist(), degenerate.tolist())]


SUMMARY_HEADER = "parameter,mean,lq,median,uq,ci95_low,ci95_high,ess"


def write_summary_csv(summaries, path) -> None:
    """summary.csv with shortest-repr floats (byte-stable given draws)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for s in summaries:
            fh.write(",".join([s.name, repr(s.mean), repr(s.lq), repr(s.median),
                               repr(s.uq), repr(s.ci95_low), repr(s.ci95_high),
                               repr(s.ess)]) + "\n")


def write_trace_csv(chain_output: ChainOutput, path) -> None:
    """Tidy trace export: iteration,parameter,value.

    `iteration` is the absolute sweep index at which the draw was stored
    (burn_in + k·thin), so plots line up with the sampler schedule.
    """
    meta = chain_output.meta
    sweeps = [f"{meta.burn_in + (i + 1) * meta.thin}," for i in range(chain_output.n_stored)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,parameter,value\n")
        for j, name in enumerate(chain_output.columns):
            values = chain_output.draws[:, j].astype(float, copy=False).tolist()
            # one write per parameter; repr of the Python float, as in the chain CSV
            fh.write("".join([f"{sweep}{name},{value!r}\n"
                              for sweep, value in zip(sweeps, values)]))


def _stacked(chains) -> tuple[list[np.ndarray], bool]:
    """Equal-shape chains as (n, k) matrices, and whether they came 1-d."""
    arrays = [np.asarray(c, dtype=float) for c in chains]
    if not arrays:
        raise ValueError("need at least one chain")
    shape = arrays[0].shape
    if len(shape) not in (1, 2) or any(a.shape != shape for a in arrays):
        raise ValueError("chains must be of equal length and shape: each 1-d, "
                         "or (n, k) with one column per parameter")
    return [_as_columns(a)[0] for a in arrays], len(shape) == 1


def split_rhat(chains) -> float | np.ndarray:
    """Split-half potential scale reduction across equal-length chains.

    Each chain is cut in half, giving 2m pieces; R-hat compares between-
    and within-piece variance.  Values near 1 indicate the pieces agree.
    A float for 1-d chains, one value per column of (n, k) ones; a column
    constant within every piece gets 1 if the pieces agree, else inf.
    """
    arrays, one_chain = _stacked(chains)
    n0 = arrays[0].shape[0]
    if n0 < 4:
        raise ValueError(f"chains too short to split, length {n0}")
    n = n0 // 2
    pieces = [piece for a in arrays for piece in (a[:n], a[n:2 * n])]
    piece_means = np.array([p.mean(axis=0) for p in pieces])
    w = np.mean([p.var(axis=0, ddof=1) for p in pieces], axis=0)
    b = n * piece_means.var(axis=0, ddof=1)
    var_plus = (n - 1) / n * w + b / n
    spread = w > 0.0
    rhat = np.sqrt(var_plus / np.where(spread, w, 1.0))
    rhat = np.where(spread, rhat, np.where(b == 0.0, 1.0, np.inf))
    return float(rhat[0]) if one_chain else rhat


def multichain_ess(chains) -> float | np.ndarray:
    """Total ESS across independent chains, taken as split_rhat takes them;
    a constant column counts N per chain, without a warning."""
    arrays, one_chain = _stacked(chains)
    total = sum((_ess(a, constant_columns(a)) for a in arrays), 0.0)
    return float(total[0]) if one_chain else total
