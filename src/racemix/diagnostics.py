"""Convergence diagnostics and posterior summaries.

Each chain diagnostic takes an (n, k) draws matrix, one column per
parameter, and gives an array with one value per column; none warns.
Autocorrelations are the biased FFT estimator, one FFT per block of
columns, of the smallest 2^a·3^b·5^c length that holds 2N - 1 lags; ESS
is Geyer's initial positive sequence, or N for a constant column or
fewer than 10 draws; ess_and_rho1 reads lag 1 from the same FFT as the
ESS.  Quantiles are type-7 (numpy's default), taken per block of columns
by type7_quantiles, which sorts each column (partitioning, as numpy
does, a column whose read order statistics hold a zero or a NaN) and
equals np.quantile bit for bit without importing numpy.ma.

Split R-hat and the total ESS across chains combine one ChainMoments per
chain: each half's column means and variances and the chain's ESS, a
record O(columns) in size.  chain_moments reduces a chain to it where
the chain is, so a chain sampled in a worker process never has to reach
the process that combines them.

Trace data is exported as tidy CSV for external plotting, re-laid out
from the chain CSV's own cell text rather than formatted again; nothing
here draws figures.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .ingest import write_csv
from .sampler import ChainMeta, ChainOutput

# the spectrum of one FFT block, and the deviations or quantile copy of one
# block of columns, hold at most this many bytes (or those of the fewest
# columns a block takes, if more), so a diagnostic's transient memory does
# not grow with the columns
FFT_BLOCK_BYTES = 1 << 18
# write_trace_csv looks for cell boundaries in blocks of this many bytes of text
SCAN_BLOCK_BYTES = 1 << 20


def constant_columns(draws: np.ndarray) -> np.ndarray:
    """Which columns of an (n, k) draws matrix are constant (zero variance)."""
    return np.all(draws == draws[:1], axis=0)


def _as_matrix(draws) -> np.ndarray:
    """The draws as an (n, k) float matrix of at least one draw."""
    x = np.asarray(draws, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"need an (n, k) draws matrix with at least one draw, "
                         f"got shape {x.shape}")
    return x


def _fft_length(m: int) -> int:
    """The smallest 2^a·3^b·5^c >= m (m >= 1): a length numpy's FFT factors
    into radix-2, -3 and -5 passes, and nearer m than the next power of two."""
    best = 1 << (m - 1).bit_length()  # the next power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35·2^a >= m: 2^a the next power of two >= ceil(m / p35)
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _acf_blocks(x: np.ndarray, columns: np.ndarray, max_lag: int):
    """Autocorrelations at lags 0..max_lag of the given non-constant columns of x.

    Yields (block of column indices, (block size, max_lag + 1) array), one
    FFT per block.  The biased estimator divides every lag's autocovariance
    by N, not by N - lag; that common factor cancels in the ratio to lag 0.
    The FFT length is _fft_length(2N - 1), enough that no lag wraps round,
    and depends on N alone.  Each centred row is scaled by a power of two
    that brings its largest deviation into [0.5, 1) before the FFT: exact,
    so the ratios keep their bits, and the spectrum's squares overflow only
    where a column's mean or deviations already have.
    """
    n = x.shape[0]
    size = _fft_length(2 * n - 1)
    step = max(1, FFT_BLOCK_BYTES // (16 * (size // 2 + 1)))
    for start in range(0, columns.size, step):
        block = columns[start:start + step]
        rows = np.ascontiguousarray(x[:, block].T)
        rows -= rows.mean(axis=1, keepdims=True)
        exponent = np.frexp(np.abs(rows).max(axis=1, keepdims=True))[1]
        np.ldexp(rows, -exponent, out=rows)
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


def ess_and_rho1(draws: np.ndarray, constant: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's ESS and lag-1 autocorrelation, from one FFT per block of columns.

    `draws` is an (n, k) matrix and `constant` its constant_columns mask.
    A constant column gets ESS N and rho1 0, without a warning; under 10
    draws every column's ESS is N.  The FFT length (_fft_length(2n - 1))
    and the blocks depend on n alone, so rho1 equals
    autocorrelation(draws, 1)[1] bit for bit.  A chain value near the
    float maximum leaves both finite: each column is scaled before its FFT.
    """
    n = draws.shape[0]
    ess, rho1 = np.full(draws.shape[1], float(n)), np.zeros(draws.shape[1])
    for block, acf in _acf_blocks(draws, np.flatnonzero(~constant), n - 1 if n >= 10 else 1):
        if n >= 10:
            ess[block] = _geyer_ess(acf, n)
        rho1[block] = acf[:, 1]
    return ess, rho1


def autocorrelation(draws, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 0..max_lag of an (n, k) draws matrix,
    shape (max_lag + 1, k); lag 0 is exactly 1.  A constant column has none:
    by convention it gets [1, 0, ..., 0], as in ess_and_rho1.
    """
    x = _as_matrix(draws)
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if x.shape[0] <= max_lag:
        raise ValueError(f"need a chain longer than max_lag={max_lag}, got shape {x.shape}")
    out = np.zeros((max_lag + 1, x.shape[1]))
    for block, acf in _acf_blocks(x, np.flatnonzero(~constant_columns(x)), max_lag):
        out[:, block] = acf.T
    out[0] = 1.0
    return out


def type7_quantiles(values, qs) -> np.ndarray:
    """Type-7 quantiles (Hyndman & Fan 1996) along axis 0, shape (len(qs),)
    + values.shape[1:]: np.quantile(values, qs, axis=0) bit for bit.

    A column-contiguous copy is sorted down each column, and two
    neighbours a <= b are read per q at virtual index h = (n - 1) q, and
    interpolated as numpy's "linear" method does: a + (b - a) t, or
    b - (b - a)(1 - t) where t >= 0.5, with t = h - floor(h).  An h at or
    past n - 1 reads the last element twice, with numpy's t = h + 1; a
    column holding a NaN gives NaN.  Values that compare equal have the
    same bits, bar zeros of opposite sign and NaNs, so the sort reads what
    np.quantile's partition reads, except in a column where a read order
    statistic is zero or the last is NaN: such a column is partitioned
    from its own values at numpy's kth set, as np.quantile does, so the
    sign of a tied zero comes out alike.  Unlike np.quantile it never
    calls np.unique, which imports all of numpy.ma.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n == 0:
        raise ValueError("need at least one value")
    lower, upper, weights = [], [], []
    for q in qs:
        h = (n - 1) * q
        i = -1 if h >= n - 1 else math.floor(h)
        lower.append(i)
        upper.append(-1 if i == -1 else i + 1)
        weights.append(h - i)
    kth = sorted({0, -1, *lower, *upper})
    columns = values.reshape(n, -1)
    x = np.array(columns, order="F")
    x.sort(axis=0)
    # a sort and a partition may order zeros of opposite sign, or NaNs
    # (sorted last), differently: such a column is partitioned as numpy does
    nan = np.isnan(x[-1])
    fallback = nan | (x[kth] == 0.0).any(axis=0)
    if fallback.any():
        x[:, fallback] = np.partition(columns[:, fallback], kth, axis=0)
    a, b = x[lower], x[upper]
    t = np.array(weights)[:, None]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    if nan.any():
        np.copyto(out, x[-1], where=nan)
    return out.reshape((len(lower),) + values.shape[1:])


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


# the type-7 quantiles summary.csv holds: ci95_low, lq, median, uq, ci95_high
SUMMARY_QS = (0.025, 0.25, 0.5, 0.75, 0.975)


def summarize(chain_output: ChainOutput) -> list[ParameterSummary]:
    """Per-parameter summaries over the stored draws.

    Quantiles are type-7; corner-constrained columns come out as exact
    zeros with an ESS of N, and are not warned about, since a constant
    column there is expected.
    """
    draws = chain_output.draws
    n = draws.shape[0]
    if n < 2:
        raise ValueError(f"need >= 2 stored draws to summarize, got {n}")
    # per block of columns: type7_quantiles copies and partitions what it is given
    k = draws.shape[1]
    qs = np.empty((5, k))
    step = max(1, FFT_BLOCK_BYTES // (8 * n))
    for start in range(0, k, step):
        qs[:, start:start + step] = type7_quantiles(draws[:, start:start + step],
                                                    SUMMARY_QS)
    qs = qs.T.tolist()
    ess = ess_and_rho1(draws, constant_columns(draws))[0]
    return [ParameterSummary(name, mean, lq, median, uq, low, high, n_eff)
            for name, mean, (low, lq, median, uq, high), n_eff
            in zip(chain_output.columns, draws.mean(axis=0).tolist(), qs, ess.tolist())]


SUMMARY_HEADER = ("parameter", "mean", "lq", "median", "uq", "ci95_low", "ci95_high", "ess")


def write_summary_csv(summaries, path) -> None:
    """summary.csv, one row per ParameterSummary (write_csv's cell text)."""
    write_csv(path, SUMMARY_HEADER,
              ((s.name, s.mean, s.lq, s.median, s.uq, s.ci95_low, s.ci95_high, s.ess)
               for s in summaries))


def write_trace_csv(chain_csv_path, meta: ChainMeta, path) -> None:
    """Tidy trace export from a chain CSV: iteration,parameter,value.

    `iteration` is the absolute sweep index at which the draw was stored
    (burn_in + k·thin, from `meta`), so plots line up with the sampler
    schedule.  The parameters come one after another, in the file's
    column order.  Each value is the chain CSV's own cell text, moved
    without parsing or formatting a float: for a file save_chain wrote,
    repr of the draw.  The file is read as load_chain reads it (a header
    line, any line ending, empty lines skipped), but no cell is checked:
    `racemix diagnose` also reads the file with load_chain, before this
    export or beside it in a forked worker, and reports load_chain's error,
    which names a bad cell's line, in place of this function's.  A file
    whose rows do not all have the header's cell count raises ValueError.
    """
    with open(chain_csv_path, "rb") as fh:
        text = fh.read()
    if b"\r" in text or b"\n\n" in text:
        # universal newlines, then no empty lines: a run of line ends is one
        text = re.sub(rb"[\r\n]+", b"\n", text)
    if not text.endswith(b"\n"):
        text += b"\n"
    names = text[:text.index(b"\n")].strip().split(b",")
    k = len(names)
    buf = np.frombuffer(text, dtype=np.uint8)
    # where each cell ends (its comma, or its line's end), found a block at a
    # time so that no mask as long as the text is held, in the narrowest
    # integer type that holds any offset into the text
    offset_type = np.min_scalar_type(buf.size)
    ends = []
    for start in range(0, buf.size, SCAN_BLOCK_BYTES):
        block = buf[start:start + SCAN_BLOCK_BYTES]
        is_end = (block == ord(",")) | (block == ord("\n"))
        ends.append((start + np.flatnonzero(is_end)).astype(offset_type))
    ends = np.concatenate(ends)
    # every row, the header's too, is k - 1 commas and then a line end
    at_line_end = buf[ends] == ord("\n")
    if np.count_nonzero(at_line_end) * k != ends.size or not at_line_end[k - 1::k].all():
        raise ValueError(f"{chain_csv_path}: rows do not all have {k} cells")
    bounds = ends.reshape(-1, k)  # row 0 is the header
    n = bounds.shape[0] - 1
    # per stored draw: its sweep, the parameter, the cell text and a line end
    parts = [b"\n"] * (4 * n)
    parts[0::4] = [f"{meta.burn_in + (i + 1) * meta.thin},".encode() for i in range(n)]
    with open(path, "wb") as fh:
        fh.write(b"iteration,parameter,value\n")
        for j, name in enumerate(names):
            starts = (bounds[1:, j - 1] if j else bounds[:-1, -1]) + 1
            parts[1::4] = [name + b","] * n
            parts[2::4] = [text[a:b] for a, b in zip(starts.tolist(), bounds[1:, j].tolist())]
            fh.write(b"".join(parts))


@dataclass(frozen=True)
class ChainMoments:
    """What split_rhat and multichain_ess need of one chain, O(columns) in size.

    `n` is the chain's draw count and `half` = n // 2 the length of each
    half (an odd last draw is in neither).  `means` and `variances` are
    (2, k): each half's column means and ddof=1 variances.  `ess` is each
    column's ESS.
    """

    n: int
    means: np.ndarray
    variances: np.ndarray
    ess: np.ndarray

    @property
    def half(self) -> int:
        return self.n // 2


def chain_moments(draws, ess) -> ChainMoments:
    """The ChainMoments of an (n, k) draws matrix of >= 4 draws.

    `ess` is each column's ESS, as summarize computes it.  The variances
    are taken per block of columns, so no half's deviations are held whole.
    """
    x = _as_matrix(draws)
    if x.shape[0] < 4:
        raise ValueError(f"chains too short to split, length {x.shape[0]}")
    n = x.shape[0] // 2
    halves = (x[:n], x[n:2 * n])
    means = np.array([h.mean(axis=0) for h in halves])
    # numpy sums a block of two or more columns down the rows, as it sums
    # the whole half, but a lone column pairwise: a last column left over
    # joins the block before it
    k = x.shape[1]
    step = max(2, FFT_BLOCK_BYTES // (8 * n))
    variances = np.empty((2, k))
    for start in range(0, max(k - 1, 1), step):
        block = slice(start, start + step if start + step < k - 1 else k)
        variances[:, block] = [h[:, block].var(axis=0, ddof=1) for h in halves]
    ess = np.array(ess, dtype=float).reshape(k)
    return ChainMoments(x.shape[0], means, variances, ess)


def _matching(records) -> list[ChainMoments]:
    """The records as a list, if they describe equal-shape chains."""
    records = list(records)
    if not records:
        raise ValueError("need at least one chain")
    first = records[0]
    if any((r.n, r.means.shape) != (first.n, first.means.shape) for r in records):
        raise ValueError("chains must be of equal length and shape, "
                         "(n, k) with one column per parameter")
    return records


def split_rhat(records) -> np.ndarray:
    """Split-half potential scale reduction across equal-length chains,
    from one ChainMoments per chain.

    Each chain is cut in half, giving 2m pieces; R-hat compares between-
    and within-piece variance.  Values near 1 indicate the pieces agree.
    One value per column; a column constant within every piece gets 1 if
    the pieces agree, else inf.
    """
    records = _matching(records)
    n = records[0].half
    w = np.concatenate([r.variances for r in records]).mean(axis=0)
    b = n * np.concatenate([r.means for r in records]).var(axis=0, ddof=1)
    var_plus = (n - 1) / n * w + b / n
    spread = w > 0.0
    rhat = np.sqrt(var_plus / np.where(spread, w, 1.0))
    return np.where(spread, rhat, np.where(b == 0.0, 1.0, np.inf))


def multichain_ess(records) -> np.ndarray:
    """Total ESS across independent chains, from one ChainMoments per chain,
    taken as split_rhat takes them: the sum of the chains' own ESS."""
    return sum((r.ess for r in _matching(records)), 0.0)
