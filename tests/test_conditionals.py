"""The core sampler oracle: every conditional update against a grid density.

Each update is applied 10^5 times with the rest of the parameter state
frozen; the resulting empirical CDF must sit within KS distance 0.02 of
the density obtained by grid-normalizing exp(log_posterior) along that
single coordinate.  This checks the derived conjugate updates against
the joint density definition rather than against their own algebra.
The joint location block is checked the same way after whitening with
the exact Gaussian conditional taken from log_posterior.
"""
import numpy as np
import pytest
from scipy import stats

from conftest import make_toy_design, make_toy_state

from racemix.model import PriorConfig
from racemix.sampler import slice_update_phi

from _oracles import (
    conditional_ks,
    coordinate_log_posterior,
    grid_cdf,
    ks_to_grid,
)

N_DRAWS = 100_000
KS_TOL = 0.02

UPDATES = [
    "intercept", "gamma_dist", "rho_cur", "rho_prev",
    "athlete_level", "course_level", "season_level",
    "m_rho", "phi",
    "tau_athlete", "tau_course", "tau_season", "tau_obs",
]


def test_grid_oracle_sanity_against_scipy():
    # the grid machinery itself, checked on a known closed form
    grid = np.linspace(-8.0, 8.0, 4001)
    cdf = grid_cdf(grid, -0.5 * grid ** 2)
    assert np.abs(cdf - stats.norm.cdf(grid)).max() < 1e-6
    rng = np.random.default_rng(1)
    assert ks_to_grid(rng.standard_normal(100_000), grid, cdf) < 0.01


@pytest.mark.parametrize("name", UPDATES)
def test_conditional_matches_grid_density(name):
    design = make_toy_design()
    state = make_toy_state()
    ks = conditional_ks(name, design, state, PriorConfig(), N_DRAWS,
                        seed=1000 + UPDATES.index(name))
    assert ks < KS_TOL, f"{name}: KS {ks:.4f}"


def test_conditional_lambda_wind_matches_grid_density():
    design = make_toy_design(include_windspeed=True)
    state = make_toy_state(include_windspeed=True)
    ks = conditional_ks("lambda_wind", design, state, PriorConfig(), N_DRAWS,
                        seed=321)
    assert ks < KS_TOL, f"lambda_wind: KS {ks:.4f}"


@pytest.mark.parametrize("include_windspeed", [False, True])
def test_location_block_matches_exact_gaussian(include_windspeed):
    # the sweep's joint draw of every location parameter, whitened by the
    # exact conditional precision from log_posterior: KS per coordinate and
    # the whitened covariance (asserted inside the oracle)
    design = make_toy_design(include_windspeed=include_windspeed)
    state = make_toy_state(include_windspeed=include_windspeed)
    ks = conditional_ks("location_block", design, state, PriorConfig(), N_DRAWS,
                        seed=400 + include_windspeed)
    assert ks < KS_TOL, f"location_block: KS {ks:.4f}"


def test_phi_slice_preserves_the_stationary_distribution():
    # start from exact (grid inverse-CDF) draws, apply one slice update
    # each: the sample must still match the target, and its moments must
    # be unchanged within Monte Carlo error
    design = make_toy_design()
    state = make_toy_state()
    priors = PriorConfig()
    grid = np.linspace(1e-9, 45.0, 8001)
    logd = coordinate_log_posterior(state, design, priors,
                                    lambda s, v: setattr(s, "phi", v), grid)
    cdf = grid_cdf(grid, logd, left_bounded=True)
    rng = np.random.default_rng(90)
    n = 100_000
    starts = np.interp(rng.random(n), cdf, grid)
    updated = np.array([
        slice_update_phi(s0, state.rho_prev, state.m_rho, priors.v_rho_prev,
                         priors.a_phi, priors.b_phi, rng)
        for s0 in starts])

    w = np.exp(logd - logd.max())
    target_mean = float(np.trapezoid(grid * w, grid) / np.trapezoid(w, grid))
    target_var = float(np.trapezoid((grid - target_mean) ** 2 * w, grid)
                       / np.trapezoid(w, grid))
    # one update correlates start and end, so allow twice the iid variance
    tol = 3.0 * np.sqrt(2.0 * target_var / n)
    assert updated.mean() == pytest.approx(target_mean, abs=tol)
    assert ks_to_grid(updated, grid, cdf) < KS_TOL
