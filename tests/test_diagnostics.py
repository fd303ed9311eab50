"""Diagnostics tests: ACF against AR(1) theory, Geyer ESS, summaries.

The AR(1) oracle in _oracles gives chains with known autocorrelation
rho**k and known asymptotic ESS N*(1-rho)/(1+rho), which pins down the
estimators without trusting their own code paths.
"""
import pickle
import warnings

import numpy as np
import pytest

from racemix import diagnostics
from racemix.diagnostics import (
    SUMMARY_HEADER,
    DegenerateChainWarning,
    autocorrelation,
    chain_moments,
    constant_columns,
    effective_sample_size,
    ess_and_rho1,
    multichain_ess,
    split_rhat,
    summarize,
    write_summary_csv,
    write_trace_csv,
)
from racemix.sampler import ChainMeta, ChainOutput, load_chain, save_chain

from _oracles import acf_reference, ar1_chain, ess_reference, split_rhat_reference


def _single_column_output(values) -> ChainOutput:
    # minimal wrapper so summarize() can be probed on hand-built columns
    meta = ChainMeta(seed=0, burn_in=0, iterations=len(values), thin=1,
                     response="log_time", include_windspeed=False,
                     d_bar=6.0, w_bar=0.0,
                     athletes=(), courses=(), seasons=())
    draws = np.asarray(values, dtype=float).reshape(-1, 1)
    return ChainOutput(draws=draws, columns=("x",), meta=meta)


# ---------------------------------------------------------------- ACF

def test_acf_lag_zero_is_exactly_one():
    x = np.random.default_rng(0).standard_normal(200)
    acf = autocorrelation(x, 5)
    assert acf.shape == (6,)
    assert acf[0] == 1.0


def test_acf_iid_is_near_zero():
    n = 100_000
    x = np.random.default_rng(1).standard_normal(n)
    acf = autocorrelation(x, 10)
    assert np.all(np.abs(acf[1:]) < 4.0 / np.sqrt(n))


def test_acf_ar1_matches_rho_powers():
    rho = 0.5
    x = ar1_chain(100_000, rho, seed=11)
    acf = autocorrelation(x, 10)
    expected = rho ** np.arange(11)
    assert np.max(np.abs(acf - expected)) < 0.02


def test_acf_alternating_chain_has_negative_lag_one():
    x = np.tile([1.0, -1.0], 500)
    acf = autocorrelation(x, 2)
    assert acf[1] == pytest.approx(-1.0, abs=5e-3)
    assert acf[2] == pytest.approx(1.0, abs=5e-3)


def test_acf_input_validation():
    x = np.zeros(10) + np.arange(10)
    with pytest.raises(ValueError, match="max_lag"):
        autocorrelation(x, 0)
    with pytest.raises(ValueError, match="longer than max_lag"):
        autocorrelation(x, 10)
    with pytest.raises(ValueError):
        autocorrelation(np.ones((5, 5, 5)), 2)


def test_acf_constant_chain_convention():
    with pytest.warns(DegenerateChainWarning):
        acf = autocorrelation(np.full(50, 3.2), 4)
    assert acf[0] == 1.0
    assert np.all(acf[1:] == 0.0)


# ---------------------------------------------------------------- ESS

def test_ess_iid_close_to_n():
    n = 10_000
    x = np.random.default_rng(2).standard_normal(n)
    ess = effective_sample_size(x)
    assert abs(ess - n) < 0.10 * n


def test_ess_ar1_half_close_to_n_over_three():
    # AR(1) with rho=0.5: tau = (1+rho)/(1-rho) = 3
    n = 50_000
    x = ar1_chain(n, 0.5, seed=3)
    ess = effective_sample_size(x)
    assert abs(ess - n / 3) < 0.15 * (n / 3)


def test_ess_never_exceeds_n():
    # antithetic chain: clamp rather than report superefficiency
    x = np.tile([1.0, -1.0], 100) + 1e-3 * np.random.default_rng(4).standard_normal(200)
    ess = effective_sample_size(x)
    assert ess == pytest.approx(200.0)


def test_ess_of_fewer_than_ten_points_is_n():
    assert effective_sample_size(np.arange(9, dtype=float)) == 9.0


def test_ess_constant_chain_reports_n():
    with pytest.warns(DegenerateChainWarning):
        ess = effective_sample_size(np.full(64, 1.5))
    assert ess == 64.0


def test_ess_doubled_chain_does_not_gain_information():
    # duplicating draws cannot meaningfully exceed twice the original ESS
    for seed in (21, 22, 23):
        x = ar1_chain(2000, 0.5, seed=seed)
        e1 = effective_sample_size(x)
        e2 = effective_sample_size(np.concatenate([x, x]))
        assert e2 <= 2.0 * e1 * 1.05
        assert e2 <= 4000.0


# ---------------------------------------------------------------- summaries

def test_summary_quantiles_are_type7():
    out = summarize(_single_column_output([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert len(out) == 1
    s = out[0]
    assert s.name == "x"
    assert s.mean == pytest.approx(3.0)
    assert s.lq == pytest.approx(2.0)
    assert s.median == pytest.approx(3.0)
    assert s.uq == pytest.approx(4.0)
    # linear interpolation between order statistics
    assert s.ci95_low == pytest.approx(1.1)
    assert s.ci95_high == pytest.approx(4.9)
    assert s.ess == 5.0  # too short for an ACF-based estimate
    assert not s.degenerate


def test_summarize_requires_two_draws():
    with pytest.raises(ValueError, match=">= 2"):
        summarize(_single_column_output([1.0]))


def test_summarize_flags_constant_columns():
    values = np.column_stack([np.zeros(20), np.arange(20.0)])
    meta = ChainMeta(seed=0, burn_in=0, iterations=20, thin=1,
                     response="log_time", include_windspeed=False,
                     d_bar=6.0, w_bar=0.0,
                     athletes=(), courses=(), seasons=())
    chain = ChainOutput(draws=values, columns=("a", "b"), meta=meta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an expected constant column is not warned about
        out = {s.name: s for s in summarize(chain)}
    assert out["a"].degenerate
    assert out["a"].ess == 20.0
    assert out["a"].mean == 0.0
    assert not out["b"].degenerate
    assert out["b"].ess == effective_sample_size(values[:, 1])


def test_summarize_fit_output_is_coherent(small_fit):
    design, config, chain = small_fit
    summaries = summarize(chain)
    assert len(summaries) == len(chain.columns)
    by_name = {s.name: s for s in summaries}
    for s in summaries:
        assert np.isfinite(s.mean)
        assert s.ci95_low <= s.lq <= s.median <= s.uq <= s.ci95_high
        assert 0.0 < s.ess <= chain.n_stored + 1e-9
    # corner-constrained baselines are exact zeros, flagged degenerate
    base_athlete = f"athlete[{design.athletes[0]}]"
    for name in (base_athlete, f"course[{design.courses[0]}]",
                 f"season[{design.seasons[0]}]"):
        assert by_name[name].degenerate
        assert by_name[name].mean == 0.0
    assert not by_name["tau_obs"].degenerate


def test_summarize_quantiles_ignore_order_but_ess_does_not():
    x = ar1_chain(5000, 0.9, seed=7)
    orig = summarize(_single_column_output(x))[0]
    sorted_out = summarize(_single_column_output(np.sort(x)))[0]
    assert sorted_out.median == pytest.approx(orig.median, abs=1e-12)
    assert sorted_out.lq == pytest.approx(orig.lq, abs=1e-12)
    assert sorted_out.uq == pytest.approx(orig.uq, abs=1e-12)
    assert sorted_out.mean == pytest.approx(orig.mean, abs=1e-12)
    # sorting induces near-perfect autocorrelation
    assert sorted_out.ess < 0.05 * orig.ess


def test_write_summary_csv_format(tmp_path):
    out = summarize(_single_column_output([1.0, 2.0, 3.0, 4.0, 5.0]))
    path = tmp_path / "summary.csv"
    write_summary_csv(out, path)
    lines = path.read_text().splitlines()
    assert lines[0] == SUMMARY_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "x"
    assert float(fields[1]) == 3.0
    assert float(fields[5]) == pytest.approx(1.1)


def _saved_chain(tmp_path, chain):
    """The path of the chain's CSV, as save_chain writes it."""
    path = tmp_path / "chain.csv"
    save_chain(chain, path, tmp_path / "metadata.json")
    return path


def test_write_trace_csv_format(tmp_path, small_fit):
    _, config, chain = small_fit
    path = tmp_path / "trace.csv"
    write_trace_csv(_saved_chain(tmp_path, chain), chain.meta, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,parameter,value"
    assert len(lines) == 1 + chain.n_stored * len(chain.columns)
    first = lines[1].split(",")
    assert int(first[0]) == config.mcmc.burn_in + config.mcmc.thin
    assert first[1] == chain.columns[0]
    # values survive a text round trip exactly (repr of float)
    assert float(first[2]) == chain.draws[0, 0]
    last = lines[-1].split(",")
    assert int(last[0]) == config.mcmc.burn_in + chain.n_stored * config.mcmc.thin


def test_write_trace_csv_matches_per_value_reference(tmp_path, small_fit):
    _, _, chain = small_fit
    short = ChainOutput(draws=chain.draws[:40].copy(), columns=chain.columns,
                        meta=chain.meta)
    odd = [-0.0, 5e-324, 0.1 + 0.2, 1e16, 1e-5, -1.7976931348623157e308]
    short.draws[0, :len(odd)] = odd
    path = tmp_path / "trace.csv"
    write_trace_csv(_saved_chain(tmp_path, short), short.meta, path)
    # reference: one formatted line per value
    meta = short.meta
    expected = ["iteration,parameter,value\n"]
    for j, name in enumerate(short.columns):
        col = short.draws[:, j]
        for i in range(col.size):
            sweep = meta.burn_in + (i + 1) * meta.thin
            expected.append(f"{sweep},{name},{repr(float(col[i]))}\n")
    assert path.read_bytes() == "".join(expected).encode("utf-8")


def test_write_trace_csv_reads_line_ends_and_blank_lines_as_load_chain(tmp_path, small_fit):
    _, _, chain = small_fit
    short = ChainOutput(draws=chain.draws[:6], columns=chain.columns, meta=chain.meta)
    clean = _saved_chain(tmp_path, short).read_bytes()
    lines = clean.splitlines(keepends=True)
    variants = {
        "crlf.csv": clean.replace(b"\n", b"\r\n"),
        "cr.csv": clean.replace(b"\n", b"\r"),
        "blank.csv": b"".join([lines[0], b"\n", *lines[1:3], b"\n\n", *lines[3:]]) + b"\n",
        "unended.csv": clean[:-1],
    }
    write_trace_csv(tmp_path / "chain.csv", short.meta, tmp_path / "trace.csv")
    expected = (tmp_path / "trace.csv").read_bytes()
    for name, text in variants.items():
        (tmp_path / name).write_bytes(text)
        loaded = load_chain(tmp_path / name, tmp_path / "metadata.json")
        assert np.array_equal(loaded.draws, short.draws)
        write_trace_csv(tmp_path / name, short.meta, tmp_path / "variant.csv")
        assert (tmp_path / "variant.csv").read_bytes() == expected, name


# the cell count stays whole: one cell moved from the second row to the
# third, or the second row broken into two lines at a comma
@pytest.mark.parametrize("damage", ["moved", "split"])
def test_write_trace_csv_rejects_rows_of_unequal_length(tmp_path, small_fit, damage):
    _, _, chain = small_fit
    short = ChainOutput(draws=chain.draws[:3], columns=chain.columns, meta=chain.meta)
    lines = _saved_chain(tmp_path, short).read_bytes().splitlines(keepends=True)
    if damage == "moved":
        lines[2:4] = [lines[2].rsplit(b",", 1)[0] + b"\n", b"0.5," + lines[3]]
    else:
        lines[2] = lines[2].replace(b",", b"\n", 1)
    (tmp_path / "ragged.csv").write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match="rows do not all have"):
        write_trace_csv(tmp_path / "ragged.csv", short.meta, tmp_path / "trace.csv")


# ---------------------------------------------------------------- multi-chain

def test_split_rhat_agreeing_chains():
    rng = np.random.default_rng(9)
    chains = [rng.standard_normal(4000), rng.standard_normal(4000)]
    r = split_rhat([chain_moments(c) for c in chains])
    assert abs(r - 1.0) < 0.05


def test_split_rhat_detects_disagreement():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(2000)
    b = rng.standard_normal(2000) + 5.0
    assert split_rhat([chain_moments(a), chain_moments(b)]) > 1.3


def test_split_rhat_detects_trend_within_one_chain():
    # split halves disagree even though only one chain is supplied
    drift = np.linspace(0.0, 6.0, 2000) + np.random.default_rng(11).standard_normal(2000)
    assert split_rhat([chain_moments(drift)]) > 1.3


def test_split_rhat_validation():
    with pytest.raises(ValueError, match="at least one"):
        split_rhat([])
    with pytest.raises(ValueError, match="equal length"):
        split_rhat([chain_moments(np.zeros(10)), chain_moments(np.zeros(12))])
    with pytest.raises(ValueError, match="equal length"):  # equal halves, unequal chains
        multichain_ess([chain_moments(np.zeros(10)), chain_moments(np.zeros(11))])
    with pytest.raises(ValueError, match="too short"):
        split_rhat([chain_moments(np.zeros(3))])


def test_split_rhat_constant_chains():
    same = [chain_moments(np.full(10, 2.0)), chain_moments(np.full(10, 2.0))]
    apart = [chain_moments(np.full(10, 1.0)), chain_moments(np.full(10, 2.0))]
    assert split_rhat(same) == 1.0
    assert split_rhat(apart) == np.inf


def test_multichain_ess_sums_over_chains():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(5000)
    b = rng.standard_normal(5000)
    total = multichain_ess([chain_moments(a), chain_moments(b)])
    assert total == pytest.approx(
        effective_sample_size(a) + effective_sample_size(b))
    assert abs(total - 10_000) < 1_000


# ---------------------------------------------------------------- column-wise

def _probe_columns(n, seed):
    """One column per case: constant, antithetic, AR(1), iid and trending."""
    rng = np.random.default_rng(seed)
    return np.column_stack([
        np.full(n, 2.5),
        (-1.0) ** np.arange(n) + 1e-3 * rng.standard_normal(n),
        ar1_chain(n, 0.9, seed=seed + 1),
        rng.standard_normal(n),
        np.linspace(0.0, 3.0, n) + rng.standard_normal(n),
    ])


def _degenerate_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, sum(issubclass(w.category, DegenerateChainWarning) for w in caught)


def _quiet(fn, *args):
    # the 1-d reference calls warn on the constant column by design
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateChainWarning)
        return fn(*args)


# 1 byte: one column per FFT block; 40,000 bytes: two columns; default: one block
@pytest.mark.parametrize("block_bytes", [1, 40_000, diagnostics.FFT_BLOCK_BYTES])
@pytest.mark.parametrize("n", [5, 600])
def test_columnwise_functions_equal_their_one_column_calls(monkeypatch, block_bytes, n):
    monkeypatch.setattr(diagnostics, "FFT_BLOCK_BYTES", block_bytes)
    x = _probe_columns(n, seed=40)
    max_lag = min(20, n - 1)
    acf, warned_acf = _degenerate_warnings(autocorrelation, x, max_lag)
    ess, warned_ess = _degenerate_warnings(effective_sample_size, x)
    assert warned_acf == warned_ess == 1  # once per call, not once per column
    assert acf.shape == (max_lag + 1, x.shape[1]) and ess.shape == (x.shape[1],)
    for j in range(x.shape[1]):
        # autocorrelations are relative to lag 0's exact 1
        np.testing.assert_allclose(acf[:, j], _quiet(autocorrelation, x[:, j], max_lag),
                                   rtol=0.0, atol=1e-12)
        assert ess[j] == pytest.approx(_quiet(effective_sample_size, x[:, j]), rel=1e-12)
    assert np.array_equal(acf[:, 0], np.eye(max_lag + 1)[0])
    assert ess[0] == n
    if n < 10:
        assert np.all(ess == n)
    # and against the scalar per-column loop they replace
    for j in range(1, x.shape[1]):
        np.testing.assert_allclose(acf[:, j], acf_reference(x[:, j], max_lag),
                                   rtol=0.0, atol=1e-12)
        assert ess[j] == pytest.approx(ess_reference(x[:, j]), rel=1e-12)


@pytest.mark.parametrize("block_bytes", [1, diagnostics.FFT_BLOCK_BYTES])
@pytest.mark.parametrize("n", [5, 600])
def test_ess_and_rho1_equal_the_separate_calls_bit_for_bit(monkeypatch, block_bytes, n):
    # one FFT pass gives what effective_sample_size and autocorrelation give
    # on the non-constant columns, lag 1 whatever the longest lag asked for
    monkeypatch.setattr(diagnostics, "FFT_BLOCK_BYTES", block_bytes)
    x = _probe_columns(n, seed=41)
    constant = constant_columns(x)
    free = ~constant
    assert constant[0] and free[1:].all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateChainWarning)
        ess, rho1 = ess_and_rho1(x, constant)
        assert np.array_equal(ess[free], effective_sample_size(x[:, free]))
        for max_lag in (1, n - 1):
            assert np.array_equal(rho1[free], autocorrelation(x[:, free], max_lag)[1])
    assert ess[0] == n and rho1[0] == 0.0
    if n < 10:
        assert np.all(ess == n)


@pytest.mark.parametrize("stack", [list, np.stack])
def test_multichain_columnwise_equals_per_column_calls(stack):
    a, b = _probe_columns(600, seed=50), _probe_columns(600, seed=60)
    b[:, 0] = 7.0  # constant in each chain, but the chains disagree
    records = [chain_moments(c) for c in stack([a, b])]
    rhat, ess = split_rhat(records), multichain_ess(records)
    for j in range(a.shape[1]):
        cols = [a[:, j], b[:, j]]
        col_records = [chain_moments(c) for c in cols]
        assert rhat[j] == pytest.approx(split_rhat(col_records), rel=1e-12)
        assert rhat[j] == pytest.approx(split_rhat_reference(cols), rel=1e-12)
        assert ess[j] == pytest.approx(multichain_ess(col_records), rel=1e-12)
        assert ess[j] == pytest.approx(sum(map(ess_reference, cols)), rel=1e-12)
    assert rhat[0] == np.inf and ess[0] == 1200.0
    # constant, and the chains agree
    assert split_rhat([chain_moments(c) for c in stack([a, a])])[0] == 1.0


def test_split_rhat_in_column_blocks_equals_one_block(monkeypatch):
    rng = np.random.default_rng(70)
    chains = [rng.standard_normal((1000, 7)).cumsum(axis=0) for _ in range(2)]
    whole = split_rhat([chain_moments(c) for c in chains])
    # 1 byte: blocks of 2, 2 and 3 columns; numpy sums a lone column's
    # deviations pairwise, a wider block's row by row as the whole matrix
    monkeypatch.setattr(diagnostics, "FFT_BLOCK_BYTES", 1)
    assert np.array_equal(split_rhat([chain_moments(c) for c in chains]), whole)


def test_chain_moments_is_small_and_keeps_the_given_ess():
    # what a chain worker sends back instead of its 2,500 x 223 draws (4.46 MB)
    draws = np.random.default_rng(71).standard_normal((2500, 223))
    ess = effective_sample_size(draws)
    record = chain_moments(draws, ess.tolist())
    assert len(pickle.dumps(record)) < 64 * 1024
    assert record.n == 2500 and record.half == 1250 and not record.one_d
    assert record.means.shape == record.variances.shape == (2, 223)
    assert np.array_equal(record.ess, ess)
    assert np.array_equal(chain_moments(draws).ess, ess)
    one = chain_moments(draws[:, 0])
    assert one.one_d and isinstance(multichain_ess([one, one]), float)
