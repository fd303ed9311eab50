"""Convergence diagnostics and posterior summaries.

Autocorrelations use the biased mean-subtracted estimator (computed via
FFT), effective sample sizes use Geyer's initial-positive-sequence
truncation, and quantiles use linear interpolation between order
statistics (numpy's default, the type-7 convention).  Trace data is
exported as tidy CSV for external plotting; nothing here draws figures.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .sampler import ChainOutput


class DegenerateChainWarning(UserWarning):
    """A chain with zero variance; autocorrelation/ESS are conventions."""


def _is_constant(x: np.ndarray) -> bool:
    return x.size > 0 and np.all(x == x[0])


def _acf_fft(x: np.ndarray, max_lag: int) -> np.ndarray:
    # biased estimator: divide every lag by N, not by N-k
    n = x.size
    centred = x - x.mean()
    size = 1
    while size < 2 * n:
        size *= 2
    f = np.fft.rfft(centred, size)
    acov = np.fft.irfft(f * np.conj(f))[:max_lag + 1] / n
    return acov / acov[0]


def autocorrelation(chain, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 0..max_lag; lag 0 is exactly 1.

    A constant chain has no defined autocorrelation; by convention it
    returns [1, 0, ..., 0] and emits DegenerateChainWarning.
    """
    x = np.asarray(chain, dtype=float)
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if x.ndim != 1 or x.size <= max_lag:
        raise ValueError(f"need a 1-d chain longer than max_lag={max_lag}, "
                         f"got shape {x.shape}")
    if _is_constant(x):
        warnings.warn("constant chain: autocorrelation undefined",
                      DegenerateChainWarning)
        out = np.zeros(max_lag + 1)
        out[0] = 1.0
        return out
    acf = _acf_fft(x, max_lag)
    acf[0] = 1.0
    return acf


def _geyer_ess(x: np.ndarray) -> float:
    """ESS by initial-positive-sequence truncation; clamped to (0, N]."""
    n = x.size
    acf = _acf_fft(x, n - 1)
    # pair consecutive lags; keep pairs while their sum stays positive
    gamma_sum = 0.0
    t = 0
    while 2 * t + 1 < n:
        pair = acf[2 * t] + acf[2 * t + 1]
        if pair <= 0.0:
            break
        gamma_sum += pair
        t += 1
    tau = 2.0 * gamma_sum - 1.0
    if tau <= 0.0:
        # antithetic chain more efficient than iid; clamp at N
        return float(n)
    return float(min(n / tau, n))


def _column_ess(x: np.ndarray) -> float:
    """Geyer ESS, or N for a constant column or one shorter than 10 draws."""
    if _is_constant(x) or x.size < 10:
        return float(x.size)
    return _geyer_ess(x)


def effective_sample_size(chain) -> float:
    """Effective sample size N / (1 + 2·Σρ_k), Geyer-truncated.

    Always in (0, N].  A constant chain reports N and emits
    DegenerateChainWarning.
    """
    x = np.asarray(chain, dtype=float)
    if x.ndim != 1 or x.size < 10:
        raise ValueError(f"need a 1-d chain of length >= 10, got shape {x.shape}")
    if _is_constant(x):
        warnings.warn("constant chain: reporting ESS = N", DegenerateChainWarning)
        return float(x.size)
    return _geyer_ess(x)


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
    qs = np.quantile(draws, [0.025, 0.25, 0.5, 0.75, 0.975], axis=0)
    means = draws.mean(axis=0)
    out = []
    for j, name in enumerate(chain_output.columns):
        col = draws[:, j]
        out.append(ParameterSummary(
            name=name, mean=float(means[j]),
            lq=float(qs[1, j]), median=float(qs[2, j]), uq=float(qs[3, j]),
            ci95_low=float(qs[0, j]), ci95_high=float(qs[4, j]),
            ess=_column_ess(col), degenerate=_is_constant(col)))
    return out


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


def split_rhat(chains) -> float:
    """Split-half potential scale reduction across equal-length chains.

    Each chain is cut in half, giving 2k pieces; R-hat compares between-
    and within-piece variance.  Values near 1 indicate the pieces agree.
    Degenerate (all-constant) input returns exactly 1.
    """
    arrays = [np.asarray(c, dtype=float) for c in chains]
    if not arrays:
        raise ValueError("need at least one chain")
    n0 = arrays[0].size
    if any(a.ndim != 1 or a.size != n0 for a in arrays):
        raise ValueError("chains must be 1-d and equal length")
    if n0 < 4:
        raise ValueError(f"chains too short to split, length {n0}")
    half = n0 // 2
    pieces = []
    for a in arrays:
        pieces.append(a[:half])
        pieces.append(a[half:2 * half])
    pieces = np.asarray(pieces)
    m, n = pieces.shape
    piece_means = pieces.mean(axis=1)
    w = float(np.mean(pieces.var(axis=1, ddof=1)))
    b = n * float(np.var(piece_means, ddof=1))
    if w == 0.0:
        return 1.0 if b == 0.0 else float("inf")
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))


def multichain_ess(chains) -> float:
    """Total ESS across independent chains (sum of per-chain ESS)."""
    return sum((_column_ess(np.asarray(c, dtype=float)) for c in chains), 0.0)
