"""Acceptance gate: one test per release criterion, one printed verdict each.

Every test emits exactly one line of the form

    ACCEPTANCE PASS: <criterion> (<evidence>)

to the terminal (bypassing capture), then asserts.  The final criterion
is conditional on an external dataset and prints a SKIP line when the
RACEMIX_NEHL_DIR environment variable is not set.

Tolerances here are frozen; loosening them is a release decision, not a
test fix.
"""
import math
import os

import numpy as np
import pytest
import scipy.stats
from click.testing import CliRunner

from racemix.cli import main as cli_main
from racemix.diagnostics import effective_sample_size
from racemix.ingest import (
    RaceObservation,
    build_design,
    parse_races,
    parse_rainfall,
    parse_results,
)
from racemix.model import (
    McmcSchedule,
    ModelConfig,
    PriorConfig,
    linear_predictor_all,
)
from racemix.predictive import (
    SyntheticSpec,
    effect_on_time,
    ppc_report,
    simulate_dataset,
)
from racemix.sampler import run_chain

from conftest import make_toy_design, make_toy_state
from _oracles import ar1_chain, chain_state, conditional_ks

NEHL_ENV = "RACEMIX_NEHL_DIR"

# every conditional update type the sampler performs (location_block,
# athlete_level given it, m_rho, phi, the precisions), plus the
# single-coordinate location conditionals
ALL_UPDATES = (
    "intercept", "gamma_dist", "rho_cur", "rho_prev",
    "athlete_level", "course_level", "season_level",
    "m_rho", "phi",
    "tau_athlete", "tau_course", "tau_season", "tau_obs",
    "location_block",
)
# also checked with the windspeed term fitted
WIND_UPDATES = ("location_block",)

RECOVERY_PARAMS = ("gamma_dist", "rho_cur", "rho_prev",
                   "tau_obs", "tau_athlete", "tau_course")


def _verdict(capfd, ok: bool, label: str, detail: str) -> None:
    with capfd.disabled():
        print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"{label}: {detail}"


def test_effect_conversion_reproduction(capfd):
    # a 0.1-mile covariate swing at the reported posterior medians must
    # land within 2 s of the published "1 min 5 s" / "1 min 26 s"
    men = effect_on_time(47.0, 0.224, 0.1)
    women = effect_on_time(38.0, 0.368, 0.1)
    ok = abs(men - 65.0) <= 2.0 and abs(women - 86.0) <= 2.0
    _verdict(capfd, ok, "effect-size conversions",
             f"men {men:.1f}s vs 65s, women {women:.1f}s vs 86s, tol 2s")


def test_conditional_sampler_oracle(capfd):
    cases = ([(name, False) for name in ALL_UPDATES]
             + [(name, True) for name in WIND_UPDATES])
    worst_name, worst_ks = "", 0.0
    for i, (name, wind) in enumerate(cases):
        ks = conditional_ks(name, make_toy_design(include_windspeed=wind),
                            make_toy_state(include_windspeed=wind), PriorConfig(),
                            100_000, seed=7000 + i)
        if ks > worst_ks:
            worst_name, worst_ks = name + (" (windspeed)" if wind else ""), ks
    ok = worst_ks < 0.02
    _verdict(capfd, ok, "conditional updates vs grid posterior",
             f"{len(cases)} conditionals x 1e5 draws, worst KS "
             f"{worst_ks:.4f} ({worst_name}), tol 0.02")


def test_parameter_recovery(capfd):
    covered = dict.fromkeys(RECOVERY_PARAMS, 0)
    for k in range(20):
        sim = simulate_dataset(SyntheticSpec(seed=k))
        config = ModelConfig(mcmc=McmcSchedule(burn_in=2000, iterations=20_000,
                                               thin=10, seed=500 + k))
        design = build_design(sim.observations, sim.contexts,
                              sim.rainfall, config)
        chain = run_chain(design, config)
        for name in RECOVERY_PARAMS:
            lo, hi = np.quantile(chain.column(name), [0.025, 0.975])
            if lo <= getattr(sim.truth, name) <= hi:
                covered[name] += 1
    ok = all(v >= 15 for v in covered.values())
    detail = ", ".join(f"{name} {n}/20" for name, n in covered.items())
    _verdict(capfd, ok, "parameter recovery 95% coverage",
             detail + "; threshold 15/20")


def test_constraint_and_positivity_invariants(capfd, small_fit):
    design, _, chain = small_fit
    fits = [(design, chain)]
    wind_design = make_toy_design(include_windspeed=True)
    wind_config = ModelConfig(include_windspeed=True,
                              mcmc=McmcSchedule(burn_in=100, iterations=600,
                                                thin=2, seed=3))
    fits.append((wind_design, run_chain(wind_design, wind_config)))
    violations = []
    for d, c in fits:
        for name in (f"athlete[{d.athletes[0]}]", f"course[{d.courses[0]}]",
                     f"season[{d.seasons[0]}]"):
            if not np.all(c.column(name) == 0.0):
                violations.append(f"{name} nonzero")
        for name in ("tau_obs", "tau_athlete", "tau_course", "tau_season", "phi"):
            if not np.all(c.column(name) > 0.0):
                violations.append(f"{name} nonpositive")
    n_draws = sum(c.n_stored for _, c in fits)
    ok = not violations
    _verdict(capfd, ok, "corner constraints and positivity",
             f"every draw in {n_draws} stored states over {len(fits)} fits"
             + (f"; violations: {violations}" if violations else ""))


def test_ess_sanity(capfd):
    n_iid = 10_000
    ess_iid = effective_sample_size(
        np.random.default_rng(2024).standard_normal(n_iid))
    n_ar = 50_000
    ess_ar = effective_sample_size(ar1_chain(n_ar, 0.5, seed=2025))
    want_ar = n_ar / 3.0
    ok = (abs(ess_iid - n_iid) <= 0.10 * n_iid
          and abs(ess_ar - want_ar) <= 0.15 * want_ar)
    _verdict(capfd, ok, "effective sample size sanity",
             f"iid {ess_iid:.0f}/{n_iid} tol 10%, "
             f"AR(0.5) {ess_ar:.0f} vs N/3={want_ar:.0f} tol 15%")


def test_ppc_self_consistency(capfd, small_sim, small_fit):
    # simulate fresh data from the fitted chain's posterior-mean state
    # over the same design; quartile discrepancies should be coin flips
    design, _, chain = small_fit
    state = chain_state(chain, chain.draws.mean(axis=0))
    month = {(c.course, c.season): c.race_month for c in small_sim.contexts}
    mu = linear_predictor_all(state, design)
    rng = np.random.default_rng(1)
    times = np.exp(mu + rng.standard_normal(mu.size) / math.sqrt(state.tau_obs))
    races = design.races()
    observations = [
        RaceObservation(design.athletes[design.athlete_idx[i]],
                        *races[design.race_idx[i]],
                        float(times[i]),
                        month[races[design.race_idx[i]]])
        for i in range(design.n_obs)]
    reports = ppc_report(chain, design, observations, np.random.default_rng(101))
    signs = [r.discrepancy[k] > 0 for r in reports for k in (1, 2, 3)]
    p = scipy.stats.binomtest(sum(signs), len(signs), 0.5).pvalue
    ok = p > 0.01
    _verdict(capfd, ok, "posterior predictive self-consistency",
             f"sign test over {len(reports)} races x 3 quartiles: "
             f"{sum(signs)}/{len(signs)} positive, p={p:.3f} > 0.01")


def test_fit_determinism(capfd, tmp_path):
    spec = SyntheticSpec(n_athletes=12, n_courses=3, n_seasons=2, n_races=5,
                         mean_finishers=9, seed=7)
    data_dir = tmp_path / "data"
    simulate_dataset(spec).write_csv(data_dir)
    runner = CliRunner()
    args = ["fit", "--data", str(data_dir / "results.csv"),
            "--covariates", str(data_dir / "races.csv"),
            "--rainfall", str(data_dir / "rainfall.csv"),
            "--sex", "M", "--seed", "19",
            "--burn-in", "100", "--iterations", "600", "--thin", "2"]
    for out in ("a", "b"):
        result = runner.invoke(cli_main, args + ["--out", str(tmp_path / out)])
        assert result.exit_code == 0, result.output
    first = (tmp_path / "a" / "chain.csv").read_bytes()
    second = (tmp_path / "b" / "chain.csv").read_bytes()
    meta_same = ((tmp_path / "a" / "metadata.json").read_bytes()
                 == (tmp_path / "b" / "metadata.json").read_bytes())
    ok = first == second and meta_same
    _verdict(capfd, ok, "seeded fit determinism",
             f"two CLI fits, chain.csv byte-identical ({len(first)} bytes)")


def _course_named(courses, key):
    matches = [c for c in courses if key in c.lower()]
    if len(matches) != 1:
        raise AssertionError(f"expected exactly one course matching {key!r}, "
                             f"got {matches} among {list(courses)}")
    return matches[0]


def test_nehl_qualitative_reproduction(capfd):
    root = os.environ.get(NEHL_ENV)
    if not root:
        with capfd.disabled():
            print(f"ACCEPTANCE SKIP: league-data qualitative reproduction "
                  f"({NEHL_ENV} not set; point it at results/races/rainfall "
                  f"CSVs to enable)")
        pytest.skip(f"{NEHL_ENV} not set")

    problems = []
    detail = []
    for sex in ("M", "F"):
        observations = parse_results(os.path.join(root, "results.csv"), sex)
        contexts = parse_races(os.path.join(root, "races.csv"))
        rain = parse_rainfall(os.path.join(root, "rainfall.csv"))
        config = ModelConfig(include_windspeed=True,
                             mcmc=McmcSchedule(burn_in=2000, iterations=20_000,
                                               thin=10, seed=29))
        design = build_design(observations, contexts, rain, config)
        chain = run_chain(design, config)
        means = {c: float(chain.column(f"course[{c}]").mean())
                 for c in design.courses}
        ranked = sorted(means, key=means.get)
        top2, bottom2 = set(ranked[-2:]), set(ranked[:2])
        for key in ("herrington", "thornley"):
            if _course_named(design.courses, key) not in top2:
                problems.append(f"{sex}: {key} not in top two")
        for key in ("druridge", "gosforth"):
            if _course_named(design.courses, key) not in bottom2:
                problems.append(f"{sex}: {key} not in bottom two")
        lo, hi = np.quantile(chain.column("lambda_wind"), [0.025, 0.975])
        if not lo <= 0.0 <= hi:
            problems.append(f"{sex}: windspeed CI [{lo:.4f}, {hi:.4f}] excludes 0")
        detail.append(f"{sex}: slowest {ranked[-1]}, fastest {ranked[0]}, "
                      f"wind CI [{lo:.4f}, {hi:.4f}]")
    ok = not problems
    _verdict(capfd, ok, "league-data qualitative reproduction",
             "; ".join(problems or detail))
