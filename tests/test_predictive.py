"""Simulation, posterior prediction, and time-conversion tests.

The simulator is itself an oracle for the sampler, so it gets worked-
example treatment here: degenerate-noise datasets must reproduce the
generating state exactly, and the noise scale must match 1/tau.
"""
import concurrent.futures
import dataclasses
import math
import os
import threading

import numpy as np
import pytest
import scipy.stats

import racemix.predictive

from racemix.ingest import (
    DataError,
    RaceContext,
    RaceObservation,
    build_design,
    parse_races,
    parse_rainfall,
    parse_results,
)
from racemix.model import (
    RESPONSE_LOG_PACE,
    RESPONSE_LOG_TIME,
    McmcSchedule,
    ModelConfig,
    ParameterState,
    linear_predictor_all,
)
from racemix.predictive import (
    FIVE_NUMBER_QS,
    PPC_CHUNK,
    PPC_HEADER,
    PpcRaceReport,
    SyntheticSpec,
    effect_on_time,
    posterior_predictive_race,
    ppc_report,
    simulate_dataset,
    write_ppc_csv,
)
from racemix.sampler import ChainOutput, run_chain

from _oracles import chain_state
from conftest import TOY_CONTEXTS, TOY_OBSERVATIONS, TOY_RAINFALL, set_usable_cpus


def _flat_truth(n_athletes, n_courses, n_seasons, intercept=math.log(40.0),
                tau_obs=1e12) -> ParameterState:
    """All-zero effects and (by default) vanishing observation noise."""
    return ParameterState(
        intercept=intercept,
        athlete_effects=np.zeros(n_athletes),
        course_effects=np.zeros(n_courses),
        season_effects=np.zeros(n_seasons),
        gamma_dist=0.0, rho_cur=0.0, rho_prev=0.0,
        m_rho=0.0, phi=0.8,
        tau_obs=tau_obs, tau_athlete=25.0, tau_course=150.0,
        tau_season=2500.0, lambda_wind=None)


# ---------------------------------------------------------------- spec

@pytest.mark.parametrize("changes,match", [
    ({"n_athletes": 0}, "n_athletes"),
    ({"mean_finishers": 0}, "mean_finishers"),
    ({"n_races": 100, "n_courses": 2, "n_seasons": 2}, "distinct"),
    ({"n_seasons": 81, "n_races": 81}, "80"),
    ({"distance_range": (0.0, 5.0)}, "positive"),
    ({"distance_range": (6.4, 5.9)}, "distance_range"),
    ({"windspeed_range": (-1.0, 5.0)}, "nonnegative"),
    ({"sex": "X"}, "sex"),
    ({"response": "pace"}, "response"),
])
def test_spec_validation_errors(changes, match):
    spec = dataclasses.replace(SyntheticSpec(), **changes)
    with pytest.raises(ValueError, match=match):
        spec.validate()


def test_spec_rejects_wrong_length_truth_vectors():
    spec = SyntheticSpec(n_athletes=5, truth=_flat_truth(3, 8, 5))
    with pytest.raises(ValueError, match="athlete_effects"):
        spec.validate()


def test_spec_dict_round_trip():
    spec = SyntheticSpec(n_athletes=10, n_courses=3, n_seasons=2, n_races=4,
                         mean_finishers=6, seed=9, sex="F",
                         response=RESPONSE_LOG_PACE)
    again = SyntheticSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()


def test_spec_from_dict_fills_defaults():
    spec = SyntheticSpec.from_dict({"n_athletes": 7})
    assert spec.n_athletes == 7
    assert spec.n_courses == SyntheticSpec().n_courses
    assert spec.truth.intercept == pytest.approx(3.85)


# ---------------------------------------------------------------- simulate

def test_simulate_is_deterministic():
    spec = SyntheticSpec(n_athletes=12, n_courses=3, n_seasons=2, n_races=5,
                         mean_finishers=8, seed=4)
    a = simulate_dataset(spec)
    b = simulate_dataset(spec)
    assert [o.finish_time for o in a.observations] == \
           [o.finish_time for o in b.observations]
    assert a.rainfall == b.rainfall
    c = simulate_dataset(dataclasses.replace(spec, seed=5))
    assert [o.finish_time for o in a.observations] != \
           [o.finish_time for o in c.observations]


def test_simulate_degenerate_noise_reproduces_intercept():
    # zero effects, zero slopes, tau -> inf: every time is exp(intercept)
    spec = SyntheticSpec(n_athletes=4, n_courses=2, n_seasons=2, n_races=3,
                         mean_finishers=4, truth=_flat_truth(4, 2, 2), seed=1)
    sim = simulate_dataset(spec)
    assert len(sim.observations) == 3 * 4  # full field in every race
    for o in sim.observations:
        assert o.finish_time == pytest.approx(40.0, rel=1e-4)


def test_simulate_uses_supplied_effect_vectors_exactly():
    truth = _flat_truth(3, 1, 1)
    truth.athlete_effects = np.array([0.0, 0.2, -0.1])
    spec = SyntheticSpec(n_athletes=3, n_courses=1, n_seasons=1, n_races=1,
                         mean_finishers=3, truth=truth, seed=2)
    sim = simulate_dataset(spec)
    by_athlete = {o.athlete_id: o.finish_time for o in sim.observations}
    assert by_athlete["A00000"] == pytest.approx(40.0, rel=1e-4)
    assert by_athlete["A00001"] == pytest.approx(40.0 * math.exp(0.2), rel=1e-4)
    assert by_athlete["A00002"] == pytest.approx(40.0 * math.exp(-0.1), rel=1e-4)
    # the returned truth is the realized one, unchanged here
    assert np.array_equal(sim.truth.athlete_effects, truth.athlete_effects)


def test_simulate_single_race_layout():
    spec = SyntheticSpec(n_athletes=5, n_courses=1, n_seasons=1, n_races=1,
                         mean_finishers=5, seed=3)
    sim = simulate_dataset(spec)
    assert len(sim.observations) == 5
    assert len(sim.contexts) == 1
    ctx = sim.contexts[0]
    assert ctx.course == "Alnwick"  # baseline course label comes first
    assert ctx.season == "17/18"
    assert ctx.race_month == "2017-10"  # seasons start in October
    assert all(o.race_month == ctx.race_month for o in sim.observations)
    # rainfall always covers the carryover month before the first fixture
    assert "2017-09" in sim.rainfall and "2017-10" in sim.rainfall


def test_simulate_draws_missing_effect_vectors():
    spec = SyntheticSpec(n_athletes=50, n_courses=4, n_seasons=3, n_races=6,
                         mean_finishers=30, seed=6)
    sim = simulate_dataset(spec)
    assert sim.truth.athlete_effects.size == 50
    assert sim.truth.athlete_effects[0] == 0.0
    assert sim.truth.course_effects[0] == 0.0
    assert sim.truth.season_effects[0] == 0.0
    # drawn from N(0, 1/tau_athlete): sd 0.2, so spread should be visible
    assert np.std(sim.truth.athlete_effects) > 0.05


def test_simulate_poisson_field_sizes():
    spec = SyntheticSpec(n_athletes=50, n_courses=4, n_seasons=2, n_races=8,
                         mean_finishers=10, seed=7)
    sim = simulate_dataset(spec)
    sizes = {}
    for o in sim.observations:
        key = (o.course, o.season)
        sizes.setdefault(key, []).append(o.athlete_id)
    assert len(sizes) == 8
    counts = []
    for key, ids in sizes.items():
        assert len(ids) == len(set(ids))  # no athlete finishes twice
        assert 1 <= len(ids) <= 50
        counts.append(len(ids))
    assert 6.0 <= np.mean(counts) <= 14.0


def test_simulate_noise_scale_matches_tau():
    spec = SyntheticSpec(n_athletes=20_000, n_courses=1, n_seasons=1,
                         n_races=1, mean_finishers=20_000,
                         truth=_flat_truth(20_000, 1, 1, tau_obs=400.0),
                         seed=8)
    sim = simulate_dataset(spec)
    logs = np.log([o.finish_time for o in sim.observations])
    assert np.var(logs) == pytest.approx(1.0 / 400.0, rel=0.05)


def test_simulate_log_pace_response_scales_by_distance():
    spec = SyntheticSpec(n_athletes=4, n_courses=2, n_seasons=1, n_races=2,
                         mean_finishers=4, truth=_flat_truth(4, 2, 1),
                         response=RESPONSE_LOG_PACE, seed=9)
    sim = simulate_dataset(spec)
    dist = {(c.course, c.season): c.distance for c in sim.contexts}
    for o in sim.observations:
        want = dist[(o.course, o.season)] * 40.0
        assert o.finish_time == pytest.approx(want, rel=1e-4)


def test_simulate_round_trips_through_ingest(small_sim, tmp_path):
    files = small_sim.write_csv(tmp_path)
    assert files == ["results.csv", "races.csv", "rainfall.csv"]
    obs = parse_results(tmp_path / "results.csv", small_sim.sex)
    contexts = parse_races(tmp_path / "races.csv")
    rainfall = parse_rainfall(tmp_path / "rainfall.csv")
    assert rainfall == small_sim.rainfall  # repr round trip is exact
    config = ModelConfig()
    direct = build_design(small_sim.observations, small_sim.contexts,
                          small_sim.rainfall, config)
    reread = build_design(obs, contexts, rainfall, config)
    assert reread.athletes == direct.athletes
    assert reread.courses == direct.courses
    assert reread.seasons == direct.seasons
    assert np.array_equal(reread.y, direct.y)
    assert np.array_equal(reread.race_idx, direct.race_idx)
    assert np.array_equal(reread.race_x_dist, direct.race_x_dist)
    assert np.array_equal(reread.race_x_wind, direct.race_x_wind)
    assert np.array_equal(reread.race_rain_cur, direct.race_rain_cur)
    assert np.array_equal(reread.race_rain_prev, direct.race_rain_prev)


def test_simulate_other_sex_round_trip(tmp_path):
    spec = SyntheticSpec(n_athletes=4, n_courses=1, n_seasons=1, n_races=1,
                         mean_finishers=4, sex="F", seed=10)
    sim = simulate_dataset(spec)
    sim.write_csv(tmp_path)
    assert parse_results(tmp_path / "results.csv", "F")
    assert parse_results(tmp_path / "results.csv", "M") == []


# ---------------------------------------------------------------- prediction

def test_predictive_race_shape_and_determinism(small_fit):
    design, _, chain = small_fit
    course, season = design.races()[0]
    n_field = np.count_nonzero(design.race_idx == 0)
    a = posterior_predictive_race(chain, design, course, season,
                                  np.random.default_rng(0))
    b = posterior_predictive_race(chain, design, course, season,
                                  np.random.default_rng(0))
    assert a.shape == (chain.n_stored, n_field)
    assert np.all(a > 0.0)
    assert np.array_equal(a, b)
    c = posterior_predictive_race(chain, design, course, season,
                                  np.random.default_rng(1))
    assert not np.array_equal(a, c)


def test_predictive_race_collapses_without_noise(small_fit):
    design, _, chain = small_fit
    doctored = ChainOutput(draws=chain.draws[:4].copy(),
                           columns=chain.columns, meta=chain.meta)
    doctored.draws[:, list(chain.columns).index("tau_obs")] = 1e18
    course, season = design.races()[0]
    rows = np.nonzero(design.race_idx == 0)[0]
    pred = posterior_predictive_race(doctored, design, course, season,
                                     np.random.default_rng(0))
    for i in range(4):
        mu = linear_predictor_all(chain_state(doctored, doctored.draws[i]), design)[rows]
        assert pred[i] == pytest.approx(np.exp(mu), rel=1e-7)


def test_predictive_race_spans_chunks_deterministically(small_fit):
    # force > 1 chunk (PPC_CHUNK = 2048) and check a fixed seed still
    # reproduces, including across the chunk boundary
    design, _, chain = small_fit
    big = ChainOutput(draws=np.vstack([chain.draws, chain.draws])[:2500],
                      columns=chain.columns, meta=chain.meta)
    course, season = design.races()[0]
    a = posterior_predictive_race(big, design, course, season,
                                  np.random.default_rng(42))
    b = posterior_predictive_race(big, design, course, season,
                                  np.random.default_rng(42))
    assert a.shape[0] == 2500
    assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def long_fits(small_sim):
    """Chains longer than PPC_CHUNK, so a predicted field spans two chunks."""
    fits = {}
    for response, windspeed in ((RESPONSE_LOG_TIME, False), (RESPONSE_LOG_TIME, True),
                                (RESPONSE_LOG_PACE, True)):
        config = ModelConfig(response=response, include_windspeed=windspeed,
                             mcmc=McmcSchedule(burn_in=100, iterations=PPC_CHUNK + 52,
                                               thin=1, seed=79))
        design = build_design(small_sim.observations, small_sim.contexts,
                              small_sim.rainfall, config)
        fits[response, windspeed] = design, run_chain(design, config)
    return fits


@pytest.mark.parametrize("response,windspeed", [
    (RESPONSE_LOG_TIME, False), (RESPONSE_LOG_TIME, True), (RESPONSE_LOG_PACE, True)])
def test_predictive_race_is_the_linear_predictor_plus_chunked_noise(
        long_fits, response, windspeed):
    design, chain = long_fits[response, windspeed]
    course, season = design.races()[1]
    rows = np.nonzero(design.race_idx == 1)[0]
    pred = posterior_predictive_race(chain, design, course, season,
                                     np.random.default_rng(31))
    children = np.random.default_rng(31).spawn(2)
    z = np.vstack([children[0].standard_normal((PPC_CHUNK, rows.size)),
                   children[1].standard_normal((chain.n_stored - PPC_CHUNK, rows.size))])
    for i in range(chain.n_stored):
        state = chain_state(chain, chain.draws[i])
        assert (state.lambda_wind is not None) == windspeed
        want = np.exp(linear_predictor_all(state, design)[rows]
                      + z[i] / math.sqrt(state.tau_obs))
        if response == RESPONSE_LOG_PACE:
            want = want * design.race_dist[design.race_idx[rows]]
        np.testing.assert_allclose(pred[i], want, rtol=1e-12, atol=0.0)


def test_predictive_race_rejects_mismatched_design(small_fit, toy_design):
    _, _, chain = small_fit
    with pytest.raises(DataError, match="does not match"):
        posterior_predictive_race(chain, toy_design, "Alnwick", "17/18",
                                  np.random.default_rng(0))


def test_predictive_race_rejects_response_mismatch(small_sim, small_fit):
    design, _, chain = small_fit
    config = ModelConfig(response=RESPONSE_LOG_PACE)
    design_pace = build_design(small_sim.observations, small_sim.contexts,
                               small_sim.rainfall, config)
    with pytest.raises(DataError, match="response"):
        posterior_predictive_race(chain, design_pace, *design.races()[0],
                                  np.random.default_rng(0))


def test_predictive_responses_agree_on_times(small_sim, small_fit):
    # fitting log pace instead of log time must predict nearly the same
    # finish-time distribution for the same race
    design, _, chain = small_fit
    config = ModelConfig(response=RESPONSE_LOG_PACE,
                         mcmc=McmcSchedule(burn_in=1000, iterations=8000,
                                           thin=4, seed=78))
    design_pace = build_design(small_sim.observations, small_sim.contexts,
                               small_sim.rainfall, config)
    chain_pace = run_chain(design_pace, config)
    course, season = design.races()[0]
    a = posterior_predictive_race(chain, design, course, season,
                                  np.random.default_rng(9)).ravel()
    b = posterior_predictive_race(chain_pace, design_pace, course, season,
                                  np.random.default_rng(9)).ravel()
    stat = scipy.stats.ks_2samp(a, b).statistic
    assert stat < 0.02


# ---------------------------------------------------------------- reports

def test_ppc_report_self_consistency(small_sim, small_fit):
    design, _, chain = small_fit
    reports = ppc_report(chain, design, small_sim.observations,
                         np.random.default_rng(5))
    assert [(r.course, r.season) for r in reports] == design.races()
    assert sum(r.n_finishers for r in reports) == len(small_sim.observations)
    for r in reports:
        assert not r.low_power
        for d, o, p in zip(r.discrepancy, r.observed, r.predicted):
            assert d == pytest.approx(o - p, abs=1e-12)
        # the model fitted this exact data: interior quantiles close
        for k in (1, 2, 3):
            assert abs(r.discrepancy[k]) < 0.10 * r.observed[k]
        for k in (0, 4):
            assert abs(r.discrepancy[k]) < 0.20 * r.observed[k]


def _assert_summaries_are_of_the_mean_sorted_field(reports, chain, design, seed):
    """Each report's predicted summary is, exactly, the five-number summary of
    its race's mean sorted field, and the mean of the draws' own summaries
    to within rounding; returns each race's unsorted predicted field."""
    fields = []
    for r, child in zip(reports, np.random.default_rng(seed).spawn(len(reports))):
        pred = posterior_predictive_race(chain, design, r.course, r.season, child)
        mean_field = np.sort(pred, axis=1).mean(axis=0)
        assert r.predicted == tuple(float(v) for v in np.quantile(mean_field, FIVE_NUMBER_QS))
        per_draw = np.quantile(pred, FIVE_NUMBER_QS, axis=1).mean(axis=1)
        np.testing.assert_allclose(r.predicted, per_draw, rtol=1e-13, atol=0.0)
        fields.append(pred)
    return fields


def test_ppc_report_summaries_equal_those_of_the_unsorted_fields(small_sim, long_fits):
    design, chain = long_fits[RESPONSE_LOG_TIME, False]
    reports = ppc_report(chain, design, small_sim.observations,
                         np.random.default_rng(12), bins=17)
    fields = _assert_summaries_are_of_the_mean_sorted_field(reports, chain, design, 12)
    for r, pred in zip(reports, fields):
        obs = [o.finish_time for o in small_sim.observations
               if (o.course, o.season) == (r.course, r.season)]
        edges = np.linspace(min(pred.min(), min(obs)), max(pred.max(), max(obs)), 18)
        assert np.array_equal(r.bin_edges, edges)
        assert np.array_equal(r.predicted_counts, np.histogram(pred, bins=edges)[0])


def test_ppc_report_summaries_of_fields_of_one_to_three_finishers():
    # the toy races have 3 and 2 finishers; a third race has one
    observations = TOY_OBSERVATIONS + [
        RaceObservation("A3", "Coxhoe", "18/19", 50.4, "2018-12")]
    contexts = TOY_CONTEXTS + [RaceContext("Coxhoe", "18/19", 6.0, 8.0, "2018-12")]
    rainfall = dict(TOY_RAINFALL, **{"2018-12": 71.0})
    config = ModelConfig(mcmc=McmcSchedule(burn_in=50, iterations=300, thin=1, seed=5))
    design = build_design(observations, contexts, rainfall, config)
    chain = run_chain(design, config)
    reports = ppc_report(chain, design, observations, np.random.default_rng(3))
    assert sorted(r.n_finishers for r in reports) == [1, 2, 3]
    _assert_summaries_are_of_the_mean_sorted_field(reports, chain, design, 3)


def test_ppc_report_is_deterministic(small_sim, small_fit):
    design, _, chain = small_fit
    sub = small_sim.observations[:80]
    a = ppc_report(chain, design, sub, np.random.default_rng(6))
    b = ppc_report(chain, design, sub, np.random.default_rng(6))
    assert a == b


def _serial_reports(chain, design, observed, seed, bins):
    """ppc_report's reports built one race after another, in design order."""
    groups = {}
    for o in observed:
        groups.setdefault((o.course, o.season), []).append(o.finish_time)
    races = [race for race in design.races() if race in groups]
    reports = []
    for (course, season), child in zip(races, np.random.default_rng(seed).spawn(len(races))):
        obs = np.asarray(groups[course, season])
        pred = np.sort(posterior_predictive_race(chain, design, course, season, child), axis=1)
        edges = np.linspace(min(pred.min(), obs.min()), max(pred.max(), obs.max()), bins + 1)
        obs_summary = np.quantile(obs, FIVE_NUMBER_QS)
        pred_summary = np.quantile(pred.mean(axis=0), FIVE_NUMBER_QS)
        reports.append(PpcRaceReport(
            course=course, season=season, n_finishers=obs.size,
            observed=tuple(float(v) for v in obs_summary),
            predicted=tuple(float(v) for v in pred_summary),
            discrepancy=tuple(float(v) for v in obs_summary - pred_summary),
            low_power=obs.size < 5, bin_edges=edges,
            predicted_counts=np.histogram(pred, bins=edges)[0],
            observed_counts=np.histogram(obs, bins=edges)[0]))
    return reports


def _assert_bit_identical(reports, expected):
    # every field, the arrays that PpcRaceReport.__eq__ skips included
    assert len(reports) == len(expected)
    for got, want in zip(reports, expected):
        for f in dataclasses.fields(PpcRaceReport):
            a, b = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


def test_ppc_report_does_not_depend_on_the_worker_count(small_sim, small_fit, monkeypatch):
    design, _, chain = small_fit
    pool_sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    runs = []
    for n_cpus in (1, 4):
        set_usable_cpus(monkeypatch, n_cpus)
        runs.append(ppc_report(chain, design, small_sim.observations,
                               np.random.default_rng(21), bins=13))
    # without an affinity mask, the machine's CPU count; never more threads than races
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    runs.append(ppc_report(chain, design, small_sim.observations,
                           np.random.default_rng(21), bins=13))
    assert pool_sizes == [1, 4, len(design.races())]
    expected = _serial_reports(chain, design, small_sim.observations, 21, 13)
    for reports in runs:
        _assert_bit_identical(reports, expected)


def test_ppc_report_propagates_an_error_raised_for_one_race(small_sim, small_fit, monkeypatch):
    design, _, chain = small_fit
    simulate = racemix.predictive.posterior_predictive_race
    failing_race = design.races()[5]

    def failing(chain, design, course, season, rng):
        if (course, season) == failing_race:
            raise DataError("bad race")
        return simulate(chain, design, course, season, rng)

    monkeypatch.setattr(racemix.predictive, "posterior_predictive_race", failing)
    set_usable_cpus(monkeypatch, 4)
    threads = threading.active_count()
    with pytest.raises(DataError, match="bad race"):
        ppc_report(chain, design, small_sim.observations, np.random.default_rng(4))
    assert threading.active_count() == threads  # the pool's threads are gone


def test_ppc_report_low_power_flag(small_sim, small_fit):
    design, _, chain = small_fit
    course, season = design.races()[0]
    race_obs = [o for o in small_sim.observations
                if (o.course, o.season) == (course, season)][:3]
    reports = ppc_report(chain, design, race_obs, np.random.default_rng(7))
    assert len(reports) == 1
    assert reports[0].n_finishers == 3
    assert reports[0].low_power


def test_ppc_report_rejects_empty_and_unknown(small_fit):
    design, _, chain = small_fit
    with pytest.raises(DataError, match="no observations"):
        ppc_report(chain, design, [], np.random.default_rng(0))
    alien = [RaceObservation("A00001", "Nowhere", "17/18", 40.0, "2017-10")]
    with pytest.raises(DataError, match="Nowhere:17/18"):
        ppc_report(chain, design, alien, np.random.default_rng(0))


def test_write_ppc_csv_format(small_sim, small_fit, tmp_path):
    design, _, chain = small_fit
    reports = ppc_report(chain, design, small_sim.observations[:50],
                         np.random.default_rng(8))
    path = tmp_path / "ppc.csv"
    write_ppc_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == PPC_HEADER
    assert len(lines) == 1 + len(reports)
    fields = lines[1].split(",")
    assert len(fields) == 14
    assert fields[0] == reports[0].course
    assert int(fields[2]) == reports[0].n_finishers
    assert float(fields[3]) == reports[0].observed[0]
    assert fields[13] in ("0", "1")


# ---------------------------------------------------------------- conversions

def test_effect_on_time_reference_values():
    # one-sd rainfall swing at typical league times, both sexes
    assert effect_on_time(47.0, 0.224, 0.1) == pytest.approx(63.8808, abs=1e-3)
    assert effect_on_time(38.0, 0.368, 0.1) == pytest.approx(85.4669, abs=1e-3)


def test_effect_on_time_is_linear_in_base_time():
    one = effect_on_time(40.0, 0.3, 0.2)
    assert effect_on_time(80.0, 0.3, 0.2) == pytest.approx(2.0 * one)
    assert effect_on_time(20.0, 0.3, 0.2) == pytest.approx(0.5 * one)


def test_effect_on_time_composes_multiplicatively():
    # applying delta1 then delta2 from the shifted base equals one jump
    t, c, d1, d2 = 40.0, 0.2, 0.1, 0.2
    step1 = effect_on_time(t, c, d1)
    step2 = effect_on_time(t + step1 / 60.0, c, d2)
    assert step1 + step2 == pytest.approx(effect_on_time(t, c, d1 + d2))


def test_effect_on_time_edge_cases():
    assert effect_on_time(45.0, 0.5, 0.0) == 0.0
    assert effect_on_time(45.0, -0.2, 0.1) < 0.0
    with pytest.raises(ValueError, match="positive"):
        effect_on_time(0.0, 0.2, 0.1)
    with pytest.raises(ValueError, match="positive"):
        effect_on_time(-3.0, 0.2, 0.1)
