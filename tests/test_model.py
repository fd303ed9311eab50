"""Density arithmetic, configuration validation, and the gradient check."""
import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from conftest import make_toy_design, make_toy_state

from racemix.ingest import DesignMatrixView, RaceContext, RaceObservation, build_design
from racemix.model import (
    ConfigError,
    McmcSchedule,
    ModelConfig,
    ParameterState,
    PriorConfig,
    gamma_logpdf,
    linear_predictor_all,
    log_likelihood,
    log_posterior,
    log_prior,
    normal_logpdf,
)

from _oracles import analytic_gradient


### density helpers against scipy


@pytest.mark.parametrize("x,mean,var", [(0.0, 0.0, 1.0), (1.7, -0.3, 4.2), (5.0, 5.0, 0.01)])
def test_normal_logpdf_matches_scipy(x, mean, var):
    expect = stats.norm.logpdf(x, loc=mean, scale=math.sqrt(var))
    assert normal_logpdf(x, mean, var) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("x,shape,rate", [(1.0, 1.0, 1.0), (0.5, 2.0, 3.0), (7.0, 0.001, 0.001)])
def test_gamma_logpdf_matches_scipy(x, shape, rate):
    expect = stats.gamma.logpdf(x, a=shape, scale=1.0 / rate)
    assert gamma_logpdf(x, shape, rate) == pytest.approx(expect, abs=1e-12)


def test_density_domain_errors():
    with pytest.raises(ValueError):
        normal_logpdf(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gamma_logpdf(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_logpdf(1.0, 0.0, 1.0)


### configuration


def test_prior_config_validation():
    with pytest.raises(ConfigError, match="v_rho_cur"):
        PriorConfig(v_rho_cur=0.0).validate()
    with pytest.raises(ConfigError, match="a_phi <= b_phi"):
        PriorConfig(a_phi=2.0, b_phi=1.0).validate()
    with pytest.raises(ConfigError, match="unknown prior fields"):
        PriorConfig.from_dict({"nonsense": 1.0})
    round_tripped = PriorConfig.from_dict(PriorConfig().to_dict())
    assert round_tripped == PriorConfig()


def test_mcmc_schedule_validation():
    sched = McmcSchedule(burn_in=10, iterations=100, thin=10)
    sched.validate()
    assert sched.n_stored == 10
    with pytest.raises(ConfigError):
        McmcSchedule(iterations=105, thin=10).validate()
    with pytest.raises(ConfigError):
        McmcSchedule(burn_in=-1).validate()
    with pytest.raises(ConfigError):
        McmcSchedule(thin=0).validate()
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        McmcSchedule(seed=-1).validate()


def test_model_config_roundtrip_and_validation():
    cfg = ModelConfig(response="log_pace", include_windspeed=True, d_bar=6.1)
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again.response == "log_pace" and again.include_windspeed
    assert again.d_bar == 6.1 and again.w_bar is None
    with pytest.raises(ConfigError, match="response"):
        ModelConfig(response="sqrt_time").validate()


def test_parameter_state_invariants():
    state = make_toy_state()
    state.validate()
    bad = make_toy_state()
    bad.tau_obs = 0.0
    with pytest.raises(ValueError, match="tau_obs"):
        bad.validate()
    bad2 = make_toy_state()
    bad2.course_effects = np.array([0.01, 0.03])
    with pytest.raises(ValueError, match="course_effects"):
        bad2.validate()


def test_parameter_state_copy_and_dict_roundtrip():
    state = make_toy_state(include_windspeed=True)
    dup = state.copy()
    dup.athlete_effects[1] = 99.0
    assert state.athlete_effects[1] == 0.04  # deep copy of vectors
    again = ParameterState.from_dict(state.to_dict())
    assert again.lambda_wind == 0.003
    np.testing.assert_array_equal(again.season_effects, state.season_effects)
    nowind = ParameterState.from_dict(make_toy_state().to_dict())
    assert nowind.lambda_wind is None


### linear predictor worked examples


def example_design(rain_cur, rain_prev):
    obs = [RaceObservation("A1", "Alnwick", "17/18", 45.0, "2017-10"),
           RaceObservation("A1", "Herrington", "21/22", 47.0, "2021-11")]
    ctx = [RaceContext("Alnwick", "17/18", 6.1, 4.0, "2017-10"),
           RaceContext("Herrington", "21/22", 6.2, 8.0, "2021-11")]
    rain = {"2017-09": 10.0, "2017-10": 20.0,
            "2021-10": rain_prev, "2021-11": rain_cur}
    cfg = ModelConfig(d_bar=6.1)  # puts the target observation at D - d_bar = 0.1
    return build_design(obs, ctx, rain, cfg)


def example_state():
    return ParameterState(
        intercept=3.80,
        athlete_effects=np.array([0.0]),
        course_effects=np.array([0.0, 0.150]),   # Herrington
        season_effects=np.array([0.0, 0.045]),   # 21/22
        gamma_dist=0.224, rho_cur=0.001, rho_prev=0.001,
        m_rho=0.0, phi=1.0,
        tau_obs=1.0, tau_athlete=1.0, tau_course=1.0, tau_season=1.0)


def test_linear_predictor_zero_case():
    design = example_design(50.0, 40.0)
    state = example_state()
    state.course_effects = np.zeros(2)
    state.season_effects = np.zeros(2)
    state.gamma_dist = 0.0
    state.rho_cur = state.rho_prev = 0.0
    state.intercept = 3.8
    assert linear_predictor_all(state, design)[0] == pytest.approx(3.8, abs=1e-12)


def test_linear_predictor_hand_sum():
    design = example_design(50.0, 40.0)
    mu = linear_predictor_all(example_state(), design)[1]
    assert mu == pytest.approx(3.80 + 0.150 + 0.045 + 0.0224 + 0.05 + 0.04, abs=1e-9)
    assert mu == pytest.approx(4.1074, abs=1e-9)


def test_linear_predictor_no_rain():
    design = example_design(0.0, 0.0)
    mu = linear_predictor_all(example_state(), design)[1]
    assert mu == pytest.approx(4.0174, abs=1e-9)


### likelihood and prior worked examples


def one_obs_design(time_min=45.0):
    obs = [RaceObservation("A1", "Alnwick", "17/18", time_min, "2017-10")]
    ctx = [RaceContext("Alnwick", "17/18", 6.0, 0.0, "2017-10")]
    rain = {"2017-09": 0.0, "2017-10": 0.0}
    return build_design(obs, ctx, rain, ModelConfig())


def flat_state(intercept, tau_obs):
    return ParameterState(
        intercept=intercept,
        athlete_effects=np.zeros(1), course_effects=np.zeros(1),
        season_effects=np.zeros(1),
        gamma_dist=0.0, rho_cur=0.0, rho_prev=0.0, m_rho=0.0, phi=1.0,
        tau_obs=tau_obs, tau_athlete=1.0, tau_course=1.0, tau_season=1.0)


def test_log_likelihood_at_the_mean():
    design = one_obs_design()
    state = flat_state(intercept=float(design.y[0]), tau_obs=1.0)
    assert log_likelihood(state, design) == pytest.approx(-0.9189385, abs=1e-7)


def test_log_likelihood_offset_residual():
    design = one_obs_design()
    state = flat_state(intercept=float(design.y[0]) - 0.5, tau_obs=4.0)
    expect = 0.5 * math.log(4.0) - 0.5 * math.log(2 * math.pi) - 4.0 * 0.25 / 2
    assert log_likelihood(state, design) == pytest.approx(expect, abs=1e-12)
    assert log_likelihood(state, design) == pytest.approx(-0.7257913, abs=1e-7)


def test_log_likelihood_empty_dataset_is_zero():
    empty = DesignMatrixView(
        athlete_idx=np.empty(0, dtype=np.int64), race_idx=np.empty(0, dtype=np.int64),
        y=np.empty(0),
        race_course=np.empty(0, dtype=np.int64), race_season=np.empty(0, dtype=np.int64),
        race_dist=np.empty(0), race_x_dist=np.empty(0), race_x_wind=np.empty(0),
        race_rain_cur=np.empty(0), race_rain_prev=np.empty(0),
        athletes=("A1",), courses=("Alnwick",), seasons=("17/18",),
        d_bar=6.0, w_bar=0.0, response="log_time")
    assert log_likelihood(flat_state(3.8, 1.0), empty) == 0.0


def test_log_likelihood_rejects_bad_tau():
    design = one_obs_design()
    state = flat_state(3.8, 1.0)
    state.tau_obs = -1.0
    with pytest.raises(ValueError):
        log_likelihood(state, design)


def test_prior_rho_prev_centred_on_phi_m_rho():
    # the carryover coefficient's prior mean is phi * m_rho
    assert normal_logpdf(0.001, 0.5 * 0.002, 1.0) == pytest.approx(-0.9189385, abs=1e-7)
    priors = PriorConfig()
    base = make_toy_state()
    centre = base.phi * base.m_rho
    hi = base.copy()
    hi.rho_prev = centre + 0.25
    lo = base.copy()
    lo.rho_prev = centre - 0.25
    assert log_prior(hi, priors) == pytest.approx(log_prior(lo, priors), abs=1e-12)


def test_prior_phi_gamma_term():
    assert gamma_logpdf(1.0, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-12)


def test_prior_counts_only_free_effects():
    priors = PriorConfig()
    one = make_toy_state()
    one.athlete_effects = np.array([0.0])
    two = make_toy_state()
    two.athlete_effects = np.array([0.0, 0.0])
    # one extra free zero effect adds exactly its Normal(0, 1/tau) density
    diff = log_prior(two, priors) - log_prior(one, priors)
    assert diff == pytest.approx(normal_logpdf(0.0, 0.0, 1.0 / one.tau_athlete),
                                 abs=1e-12)


def test_log_posterior_is_sum_and_monotone(toy_design, toy_state):
    priors = PriorConfig()
    lp = log_posterior(toy_state, toy_design, priors)
    assert lp == log_likelihood(toy_state, toy_design) + log_prior(toy_state, priors)
    assert math.isfinite(lp)
    worse = toy_state.copy()
    worse.intercept += 1.0  # inflate every residual
    assert log_posterior(worse, toy_design, priors) < lp


def test_likelihood_decomposes_over_partitions(toy_design, toy_state):
    full = log_likelihood(toy_state, toy_design)
    parts = 0.0
    for keep in (toy_design.athlete_idx < 2, toy_design.athlete_idx >= 2):
        sub = dataclasses.replace(
            toy_design, athlete_idx=toy_design.athlete_idx[keep],
            race_idx=toy_design.race_idx[keep], y=toy_design.y[keep])
        parts += log_likelihood(toy_state, sub)
    assert full == pytest.approx(parts, abs=1e-10)


### gradient check: analytic partials vs central differences


def random_state(rng, design, include_windspeed):
    la, lc, ls = len(design.athletes), len(design.courses), len(design.seasons)
    def effects(k, scale):
        v = rng.normal(0.0, scale, size=k)
        v[0] = 0.0
        return v
    return ParameterState(
        intercept=float(rng.normal(3.8, 0.3)),
        athlete_effects=effects(la, 0.2),
        course_effects=effects(lc, 0.1),
        season_effects=effects(ls, 0.05),
        gamma_dist=float(rng.normal(0.2, 0.2)),
        rho_cur=float(rng.normal(0.001, 0.002)),
        rho_prev=float(rng.normal(0.001, 0.002)),
        m_rho=float(rng.normal(0.0, 0.005)),
        phi=float(np.exp(rng.normal(0.0, 0.4))),
        tau_obs=float(np.exp(rng.normal(4.0, 0.5))),
        tau_athlete=float(np.exp(rng.normal(3.0, 0.5))),
        tau_course=float(np.exp(rng.normal(3.0, 0.5))),
        tau_season=float(np.exp(rng.normal(3.0, 0.5))),
        lambda_wind=float(rng.normal(0.0, 0.01)) if include_windspeed else None)


@pytest.mark.parametrize("include_windspeed", [False, True])
def test_gradient_matches_central_differences(include_windspeed):
    design = make_toy_design(include_windspeed=include_windspeed)
    priors = PriorConfig()
    rng = np.random.default_rng(42)
    for _ in range(10):
        state = random_state(rng, design, include_windspeed)
        for label, getter, setter, grad in analytic_gradient(state, design, priors):
            x = getter(state)
            h = 6e-6 * max(1.0, abs(x))
            plus = state.copy()
            setter(plus, x + h)
            minus = state.copy()
            setter(minus, x - h)
            numeric = (log_posterior(plus, design, priors)
                       - log_posterior(minus, design, priors)) / (2 * h)
            assert numeric == pytest.approx(grad, rel=1e-5, abs=1e-6), label
