"""Diagnostics tests: ACF against AR(1) theory, Geyer ESS, summaries.

The AR(1) oracle in _oracles gives chains with known autocorrelation
rho**k and known asymptotic ESS N*(1-rho)/(1+rho), which pins down the
estimators without trusting their own code paths.
"""
import numpy as np
import pytest

from racemix.diagnostics import (
    SUMMARY_HEADER,
    DegenerateChainWarning,
    autocorrelation,
    effective_sample_size,
    multichain_ess,
    split_rhat,
    summarize,
    write_summary_csv,
    write_trace_csv,
)
from racemix.sampler import ChainMeta, ChainOutput

from _oracles import ar1_chain


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
        autocorrelation(np.ones((5, 5)), 2)


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


def test_ess_requires_ten_points():
    with pytest.raises(ValueError, match=">= 10"):
        effective_sample_size(np.arange(9, dtype=float))


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
    out = {s.name: s for s in summarize(chain)}
    assert out["a"].degenerate
    assert out["a"].ess == 20.0
    assert out["a"].mean == 0.0
    assert not out["b"].degenerate


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


def test_write_trace_csv_format(tmp_path, small_fit):
    _, config, chain = small_fit
    path = tmp_path / "trace.csv"
    write_trace_csv(chain, path)
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
    short.draws[0, :3] = [-0.0, 5e-324, 0.1 + 0.2]
    path = tmp_path / "trace.csv"
    write_trace_csv(short, path)
    # reference: one formatted line per value
    meta = short.meta
    expected = ["iteration,parameter,value\n"]
    for j, name in enumerate(short.columns):
        col = short.draws[:, j]
        for i in range(col.size):
            sweep = meta.burn_in + (i + 1) * meta.thin
            expected.append(f"{sweep},{name},{repr(float(col[i]))}\n")
    assert path.read_bytes() == "".join(expected).encode("utf-8")


# ---------------------------------------------------------------- multi-chain

def test_split_rhat_agreeing_chains():
    rng = np.random.default_rng(9)
    chains = [rng.standard_normal(4000), rng.standard_normal(4000)]
    r = split_rhat(chains)
    assert abs(r - 1.0) < 0.05


def test_split_rhat_detects_disagreement():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(2000)
    b = rng.standard_normal(2000) + 5.0
    assert split_rhat([a, b]) > 1.3


def test_split_rhat_detects_trend_within_one_chain():
    # split halves disagree even though only one chain is supplied
    drift = np.linspace(0.0, 6.0, 2000) + np.random.default_rng(11).standard_normal(2000)
    assert split_rhat([drift]) > 1.3


def test_split_rhat_validation():
    with pytest.raises(ValueError, match="at least one"):
        split_rhat([])
    with pytest.raises(ValueError, match="equal length"):
        split_rhat([np.zeros(10), np.zeros(12)])
    with pytest.raises(ValueError, match="too short"):
        split_rhat([np.zeros(3)])


def test_split_rhat_constant_chains():
    assert split_rhat([np.full(10, 2.0), np.full(10, 2.0)]) == 1.0
    assert split_rhat([np.full(10, 1.0), np.full(10, 2.0)]) == np.inf


def test_multichain_ess_sums_over_chains():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(5000)
    b = rng.standard_normal(5000)
    total = multichain_ess([a, b])
    assert total == pytest.approx(
        effective_sample_size(a) + effective_sample_size(b))
    assert abs(total - 10_000) < 1_000
