"""Unit tests for the Gibbs/slice update steps and the chain driver."""
import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (fail_location_factorisations, make_toy_design, make_toy_state,
                      set_usable_cpus)

import racemix.sampler
from racemix.ingest import build_design
from racemix.model import McmcSchedule, ModelConfig, ParameterState, linear_predictor_all
from racemix.predictive import SyntheticSpec, simulate_dataset
from racemix.sampler import (
    ChainOutput,
    LocationBlock,
    SLICE_UNIFORMS,
    SamplerError,
    VARIATE_BLOCK,
    WRITE_BLOCK_ROWS,
    gibbs_hypermean,
    gibbs_precision,
    gibbs_random_effect,
    gibbs_scalar_normal,
    load_chain,
    phi_log_target,
    precision_shape,
    run_chain,
    run_chains,
    save_chain,
    slice_update_phi,
    spawn_chain_seeds,
)

from _oracles import chain_state, draws_row, state_from_row


### scalar Normal conditional


def test_scalar_normal_reproduces_conjugate_formula():
    # worked case: p* = 100*0.02 + 1/100 = 2.01, m* = 0.8/2.01
    xs = np.array([0.1, -0.1])
    res = np.array([0.05, -0.03])
    draw = gibbs_scalar_normal(0.0, 100.0, xs, res, 100.0, np.random.default_rng(3))
    z = np.random.default_rng(3).standard_normal()
    p_star = 100.0 * float(xs @ xs) + 1.0 / 100.0
    m_star = (100.0 * float(xs @ res) + 0.0 / 100.0) / p_star
    assert p_star == pytest.approx(2.01, abs=1e-12)
    assert m_star == pytest.approx(0.398010, abs=1e-6)
    assert draw == m_star + z / math.sqrt(p_star)


def test_scalar_normal_moments():
    xs = np.array([0.1, -0.1])
    res = np.array([0.05, -0.03])
    rng = np.random.default_rng(10)
    draws = np.array([gibbs_scalar_normal(0.0, 100.0, xs, res, 100.0, rng)
                      for _ in range(50_000)])
    sd = 1.0 / math.sqrt(2.01)
    assert draws.mean() == pytest.approx(0.398010, abs=4 * sd / math.sqrt(50_000))
    assert draws.std() == pytest.approx(sd, rel=0.03)


def test_scalar_normal_prior_recovery_with_no_data():
    rng = np.random.default_rng(4)
    empty = np.empty(0)
    draws = np.array([gibbs_scalar_normal(1.5, 0.25, empty, empty, 7.0, rng)
                      for _ in range(50_000)])
    assert draws.mean() == pytest.approx(1.5, abs=0.01)
    assert draws.std() == pytest.approx(0.5, rel=0.03)


def test_scalar_normal_likelihood_dominated_limit():
    draw = gibbs_scalar_normal(0.0, 100.0, np.array([1.0]), np.array([0.7]),
                               1e12, np.random.default_rng(0))
    assert draw == pytest.approx(0.7, abs=1e-5)


def test_scalar_normal_domain_errors():
    with pytest.raises(SamplerError):
        gibbs_scalar_normal(0.0, 0.0, np.ones(1), np.ones(1), 1.0,
                            np.random.default_rng(0))
    with pytest.raises(SamplerError):
        gibbs_scalar_normal(0.0, 1.0, np.ones(1), np.ones(1), -1.0,
                            np.random.default_rng(0))


### random-effect block conditional


def test_random_effect_corner_is_exactly_zero():
    rng = np.random.default_rng(5)
    draw = gibbs_random_effect(np.array([5.0, 0.3, -0.2]), np.array([4, 2, 1]),
                               100.0, 50.0, rng.standard_normal(3))
    assert draw[0] == 0.0
    assert draw.shape == (3,)


def test_random_effect_worked_case_and_no_data_level():
    rng = np.random.default_rng(6)
    sums = np.array([0.0, 0.3, 0.0])
    counts = np.array([3, 2, 0])
    draws = np.array([gibbs_random_effect(sums, counts, 100.0, 50.0, z)
                      for z in rng.standard_normal((50_000, 3))])
    # level 1: N(100*0.3/250, 1/250)
    assert draws[:, 1].mean() == pytest.approx(0.12, abs=4 / math.sqrt(250 * 50_000))
    assert draws[:, 1].std() == pytest.approx(1 / math.sqrt(250), rel=0.03)
    # level 2 has no observations: population prior N(0, 1/50)
    assert draws[:, 2].mean() == pytest.approx(0.0, abs=4 / math.sqrt(50 * 50_000))
    assert draws[:, 2].std() == pytest.approx(1 / math.sqrt(50), rel=0.03)


def test_random_effect_into_a_buffer_equals_the_allocating_call_bit_for_bit():
    rng = np.random.default_rng(7)
    for counts in (rng.integers(0, 30, 200), rng.integers(0, 30, 200).astype(float)):
        sums, z = rng.standard_normal(200) * 40.0, rng.standard_normal(200)
        inputs = (sums.copy(), counts.copy(), z.copy())
        for tau_obs, tau_group in ((3.7, 250.0), (1e-3, 1e4), (812.0, 0.02)):
            expected = gibbs_random_effect(sums, counts, tau_obs, tau_group, z)
            out = np.full(200, np.nan)
            assert gibbs_random_effect(sums, counts, tau_obs, tau_group, z, out=out) is out
            assert np.array_equal(out, expected)
            # with a scratch buffer as well, passed as LocationBlock passes it
            out, work = np.full(200, np.nan), np.full(200, np.nan)
            assert gibbs_random_effect(sums, counts, tau_obs, tau_group, z, out, work) is out
            assert np.array_equal(out, expected)
            # a second draw over the same scratch leaves the first one as it was
            second = gibbs_random_effect(sums, counts, tau_obs, tau_group, -z, work=work)
            assert np.array_equal(second, gibbs_random_effect(sums, counts, tau_obs,
                                                              tau_group, -z))
            assert np.array_equal(out, expected) and second is not work
        # the inputs are read, never written
        assert all(np.array_equal(x, y) for x, y in zip((sums, counts, z), inputs))


def test_random_effect_domain_errors():
    with pytest.raises(SamplerError):
        gibbs_random_effect(np.zeros(2), np.ones(2), 0.0, 1.0, np.zeros(2))


@pytest.mark.parametrize("tau_obs, tau_group", [(math.nan, 1.0), (1.0, math.nan)])
def test_random_effect_rejects_nan_precisions(tau_obs, tau_group):
    with pytest.raises(SamplerError, match="precisions must be positive"):
        gibbs_random_effect(np.zeros(2), np.ones(2), tau_obs, tau_group, np.zeros(2))


### precision conditional


def test_precision_worked_case_moments():
    # free effects (0.1, -0.1), prior Gamma(0.001, 0.001) -> Gamma(1.001, 0.011)
    rng = np.random.default_rng(7)
    variates = rng.standard_gamma(precision_shape(0.001, 2), 100_000)
    draws = np.array([gibbs_precision(0.001, 0.02, g) for g in variates.tolist()])
    mean = 1.001 / 0.011
    sd = math.sqrt(1.001) / 0.011
    assert draws.mean() == pytest.approx(mean, abs=4 * sd / math.sqrt(100_000))
    assert draws.std() == pytest.approx(sd, rel=0.03)


def test_precision_no_data_and_zero_ss():
    assert precision_shape(2.0, 0) == 2.0  # n_free=0: the prior shape, unchanged
    assert precision_shape(2.0, 2) == 3.0
    g = np.random.default_rng(8).standard_gamma(2.0)
    # zero sum of squares leaves the prior rate
    assert gibbs_precision(3.0, 0.0, g) == g / 3.0


def test_precision_domain_errors():
    with pytest.raises(SamplerError):
        precision_shape(0.0, 1)
    with pytest.raises(SamplerError):
        precision_shape(1.0, -1)
    with pytest.raises(SamplerError):
        gibbs_precision(1.0, -1.0, 1.0)


@pytest.mark.parametrize("shape, rate, sum_squares", [
    (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf)])
def test_precision_rejects_nan_and_infinite_inputs(shape, rate, sum_squares):
    with pytest.raises(SamplerError):
        gibbs_precision(rate, sum_squares, precision_shape(shape, 1))


def test_precision_prior_only_draws_never_underflow_to_zero():
    # shape 0.001 puts half the prior mass below float64's range; the
    # draw must stay positive anyway
    variates = np.random.default_rng(10).standard_gamma(precision_shape(0.001, 0), 2000)
    assert np.any(variates == 0.0)
    draws = [gibbs_precision(0.001, 0.0, g) for g in variates.tolist()]
    assert min(draws) > 0.0


### hyper-mean conditional


def test_hypermean_worked_case():
    z = np.random.default_rng(11).standard_normal()
    draw = gibbs_hypermean(0.002, 0.001, 0.5, 1.0, 1.0, 10.0, z)
    p_star = 0.1 + 1.0 + 0.25
    m_star = (0.002 + 0.5 * 0.001) / p_star
    assert m_star == pytest.approx(0.0018519, abs=1e-7)
    assert draw == m_star + z / math.sqrt(p_star)


def test_hypermean_symmetry_at_zero():
    z = np.random.default_rng(12).standard_normal()
    draw = gibbs_hypermean(0.0, 0.0, 0.7, 1.0, 2.0, 5.0, z)
    p_star = 0.2 + 1.0 + 0.49 / 2.0
    assert draw == 0.0 + z / math.sqrt(p_star)


@pytest.mark.parametrize("variances", [
    (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan), (1.0, 0.0, 1.0)])
def test_hypermean_rejects_nan_and_nonpositive_variances(variances):
    with pytest.raises(SamplerError, match="variances must be positive"):
        gibbs_hypermean(0.1, 0.1, 0.5, *variances, 0.0)


def test_hypermean_prior_dominated_limit():
    rng = np.random.default_rng(13)
    draws = np.array([gibbs_hypermean(0.5, 0.5, 1.0, 1.0, 1.0, 1e-10, z)
                      for z in rng.standard_normal(1000).tolist()])
    assert np.abs(draws).max() < 1e-3


### slice update for phi


def test_phi_log_target_worked_value():
    val = phi_log_target(1.0, rho_prev=0.001, m_rho=0.002, v_rho_prev=1.0,
                         a_phi=2.0, b_phi=2.0)
    assert val == pytest.approx(-2.0000005, abs=1e-9)
    assert phi_log_target(0.0, 0.0, 0.0, 1.0, 1.0, 1.0) == -math.inf
    assert phi_log_target(-1.0, 0.0, 0.0, 1.0, 1.0, 1.0) == -math.inf


def test_slice_decoupled_case_matches_gamma_moments():
    # m_rho = 0 removes the Normal factor: the target is Gamma(3, 2)
    rng = np.random.default_rng(14)
    phi = 1.0
    draws = np.empty(20_000)
    for i in range(draws.size):
        phi = slice_update_phi(phi, rho_prev=0.5, m_rho=0.0, v_rho_prev=1.0,
                               a_phi=3.0, b_phi=2.0, exponential=rng.standard_exponential(),
                               uniforms=rng.random(SLICE_UNIFORMS), rng=rng)
        draws[i] = phi
    assert np.all(draws > 0.0)
    # slice chains autocorrelate, so allow a generous Monte Carlo margin
    assert draws.mean() == pytest.approx(1.5, abs=0.05)
    assert draws.var() == pytest.approx(0.75, rel=0.1)


def test_slice_bracket_failure_raises_with_state():
    # target increasing far beyond the step-out range: bracketing must fail
    with pytest.raises(SamplerError, match="bracket failure"):
        slice_update_phi(1.0, rho_prev=5000.0, m_rho=1.0, v_rho_prev=1.0,
                         a_phi=1.0, b_phi=1e-6, exponential=1.0, uniforms=[0.5],
                         rng=np.random.default_rng(15))


def test_slice_rejects_nonpositive_phi():
    with pytest.raises(SamplerError):
        slice_update_phi(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, [0.5], np.random.default_rng(0))


class NoGenerator:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"the generator was called: {name}")


def test_slice_overflow_continues_from_the_generator():
    # a thin slice at phi's mode (the target is Gamma(3, 2) with m_rho = 0)
    # takes several shrinkage proposals; given one uniform, the update draws
    # each of them from the generator, in the generator's order
    args = (1.0, 0.5, 0.0, 1.0, 3.0, 2.0, 0.01)
    rng = np.random.default_rng(19)
    overflow = slice_update_phi(*args, [0.7], rng)
    after = rng.random()
    drawn = np.random.default_rng(19).random(50).tolist()
    k = drawn.index(after)  # the draws the update took
    assert k >= 2
    assert slice_update_phi(*args, [0.7, *drawn[:k]], NoGenerator()) == overflow
    with pytest.raises(AssertionError, match="generator was called"):
        slice_update_phi(*args, [0.7, *drawn[:k - 1]], NoGenerator())


@pytest.mark.parametrize("phi, rho_prev", [(math.nan, 0.5), (1.0, math.nan)])
def test_slice_names_its_state_when_an_input_is_nan(phi, rho_prev):
    # before any step-out or shrinkage, so no random number is drawn
    with pytest.raises(SamplerError, match=f"phi={phi} rho_prev={rho_prev} m_rho=0.1"):
        slice_update_phi(phi, rho_prev, 0.1, 1.0, 1.0, 1.0, 1.0, [0.5], NoGenerator())


### location block


def _observation_level_q_and_b(design, config, state):
    """Q and b of beta's conditional from the full n x p observation design.

    The joint precision and linear term of (beta, free athletes) are built
    row by row from the observations, then the athletes are integrated
    out with a dense Schur complement.
    """
    pr = config.priors
    lc, ls = len(design.courses), len(design.seasons)
    race = design.race_idx
    cols = [np.ones(design.n_obs), design.race_x_dist[race]]
    prec = [1.0 / pr.v_intercept, 1.0 / pr.v_gamma_dist]
    lin = [pr.m_intercept / pr.v_intercept, pr.m_gamma_dist / pr.v_gamma_dist]
    if config.include_windspeed:
        cols.append(design.race_x_wind[race])
        prec.append(1.0 / pr.v_lambda_wind)
        lin.append(pr.m_lambda_wind / pr.v_lambda_wind)
    cols += [design.race_rain_cur[race], design.race_rain_prev[race]]
    prec += [1.0 / pr.v_rho_cur, 1.0 / pr.v_rho_prev]
    lin += [state.m_rho / pr.v_rho_cur, state.phi * state.m_rho / pr.v_rho_prev]
    cols += [design.race_course[race] == c for c in range(1, lc)]
    cols += [design.race_season[race] == s for s in range(1, ls)]
    prec += [state.tau_course] * (lc - 1) + [state.tau_season] * (ls - 1)
    lin += [0.0] * (lc + ls - 2)
    p = len(cols)
    athletes = [design.athlete_idx == a for a in range(1, len(design.athletes))]
    z = np.column_stack(cols + athletes).astype(float)
    joint = state.tau_obs * z.T @ z
    joint[np.diag_indices(z.shape[1])] += prec + [state.tau_athlete] * len(athletes)
    shift = state.tau_obs * z.T @ design.y
    shift[:p] += lin
    cross = joint[:p, p:]
    q = joint[:p, :p] - cross @ np.linalg.solve(joint[p:, p:], cross.T)
    b = shift[:p] - cross @ np.linalg.solve(joint[p:, p:], shift[p:])
    return q, b


def _default_spec_case(seed=0, **config_args):
    sim = simulate_dataset(SyntheticSpec(seed=seed))
    config = ModelConfig(**config_args)
    design = build_design(sim.observations, sim.contexts, sim.rainfall, config)
    state = sim.truth.copy()
    if config.include_windspeed:
        state.lambda_wind = 0.001
    return design, config, state


def _single_course_season_case():
    from conftest import TOY_CONTEXTS, TOY_OBSERVATIONS, TOY_RAINFALL, make_toy_state

    config = ModelConfig()
    obs = [o for o in TOY_OBSERVATIONS if o.course == "Alnwick"]
    design = build_design(obs, TOY_CONTEXTS[:1], TOY_RAINFALL, config)
    state = make_toy_state()
    state.course_effects = state.course_effects[:1].copy()
    state.season_effects = state.season_effects[:1].copy()
    return design, config, state


def _hyper(state):
    """The non-location arguments of LocationBlock.precision and .draw."""
    return (state.tau_obs, state.tau_athlete, state.tau_course, state.tau_season,
            state.m_rho, state.phi)


def _q_and_b(block):
    """Copies of Q and b as LocationBlock.precision wrote them into the
    augmented matrix: Q in its first p rows and columns, b in its last row."""
    p = block.unit.size
    return block.augmented[:p, :p].copy(), block.augmented[2 * p, :p].copy()


LOCATION_CASES = pytest.mark.parametrize("case", [
    lambda: _default_spec_case(),
    lambda: _default_spec_case(response="log_pace", include_windspeed=True),
    _single_course_season_case,
], ids=["default", "windspeed-log-pace", "single-course-season"])


@LOCATION_CASES
def test_location_block_race_statistics_match_observation_design(case):
    design, config, state = case()
    block = LocationBlock(design, config)
    block.precision(*_hyper(state))
    q, b = _q_and_b(block)  # for beta / unit
    q_ref, b_ref = _observation_level_q_and_b(design, config, state)
    assert q.shape == q_ref.shape
    np.testing.assert_allclose(q, q_ref * block.unit[:, None] * block.unit, rtol=1e-10)
    np.testing.assert_allclose(b, b_ref * block.unit, rtol=1e-10)


@LOCATION_CASES
def test_location_block_sum_of_squares_matches_the_residuals(case):
    design, config, state = case()
    block = LocationBlock(design, config)
    rng = np.random.default_rng(16)
    for _ in range(5):
        # spread the precisions so the drawn states range from tight to loose fits
        for name in ("tau_obs", "tau_athlete", "tau_course", "tau_season"):
            setattr(state, name, getattr(state, name) * 10.0 ** rng.uniform(-2.0, 1.0))
        row = draws_row(state)
        z = rng.standard_normal(block.unit.size + len(design.athletes))
        sum_squares = block.draw(row, z[:block.unit.size], z[block.unit.size:],
                                 *_hyper(state))
        state = state_from_row(row, state)
        e = design.y - linear_predictor_all(state, design)
        assert sum_squares == pytest.approx(float(e @ e), rel=1e-9)


def _factor_and_solve_draw(design, block, row, z_beta, z_athletes, *hyper):
    """LocationBlock.draw the way it was first written: a Cholesky factor L of
    Q, then beta / unit = Q^-1 (b + L z_beta) by an LU solve, and e'e from
    its separate sums."""
    block.precision(*hyper)
    q, b = _q_and_b(block)
    chol = np.linalg.cholesky(q)
    beta = block.unit * np.linalg.solve(q, b + chol @ z_beta)
    row[block.beta_columns] = beta
    x, g = np.split(block.xg, [design.race_course.size])
    r = block.s_ya - g @ beta
    a = gibbs_random_effect(r, block.n_a, hyper[0], hyper[1], z_athletes)
    row[block.athletes] = a
    m = x @ beta
    race_n = np.bincount(design.race_idx, minlength=m.size)
    race_y = np.bincount(design.race_idx, weights=design.y, minlength=m.size)
    return float(block.yy + (race_n * m) @ m + (block.n_a * a) @ a
                 - 2.0 * (m @ race_y + a @ r))


@LOCATION_CASES
def test_location_block_draw_matches_a_factorisation_and_solve(case):
    # the augmented factorisation is the same map from variates to draws
    design, config, state = case()
    block = LocationBlock(design, config)
    rng = np.random.default_rng(17)
    z = rng.standard_normal(block.unit.size + len(design.athletes))
    z_beta, z_athletes = z[:block.unit.size], z[block.unit.size:]
    row, expected_row = draws_row(state), draws_row(state)
    sum_squares = block.draw(row, z_beta, z_athletes, *_hyper(state))
    expected = _factor_and_solve_draw(design, block, expected_row, z_beta, z_athletes,
                                      *_hyper(state))
    # two backward-stable routes differ by up to about cond(Q) eps: 1e-10
    # bounds that on the default spec, but in the one-race case only the
    # prior separates the intercept from the rainfall columns, cond(Q) is
    # 2.5e8, and both routes miss a 50-digit reference by 1.3e-9
    q, _ = _q_and_b(block)
    rtol = max(1e-10, float(np.linalg.cond(q)) * np.finfo(float).eps)
    np.testing.assert_allclose(row, expected_row, rtol=rtol)
    assert sum_squares == pytest.approx(expected, rel=rtol)


@LOCATION_CASES
def test_location_block_draws_leave_earlier_rows_unchanged(case):
    # the block writes into buffers it reuses every draw: a row it filled
    # must hold copies, not views of them
    design, config, state = case()
    block = LocationBlock(design, config)
    rng = np.random.default_rng(19)
    p, la = block.unit.size, len(design.athletes)
    first, second = draws_row(state), draws_row(state)
    block.draw(first, *np.split(rng.standard_normal(p + la), [p]), *_hyper(state))
    kept = first.copy()
    state.tau_obs *= 3.0
    block.draw(second, *np.split(rng.standard_normal(p + la), [p]), *_hyper(state))
    assert np.array_equal(first, kept)
    assert not np.array_equal(second[block.athletes], first[block.athletes])
    assert not np.array_equal(second[block.beta_columns], first[block.beta_columns])


def _matmul_draw(design, block, row, z_beta, z_athletes, *hyper):
    """LocationBlock.draw with np.matmul for every product and a numpy-made
    factor: the reference that the block's ndarray.dot products must match
    bit for bit.  Returns the basis product and e'e."""
    p = block.unit.size
    first_columns = np.matmul(block.coef, block.basis)
    factor = np.asfortranarray(np.linalg.cholesky(block.augmented))
    beta = np.matmul(factor[p:2 * p, :p], factor[2 * p, :p] + z_beta)
    row[block.beta_columns] = beta
    v = np.matmul(block.xg, beta)
    n_races = design.race_course.size
    r = block.s_ya - v[n_races:]
    v[n_races:] = gibbs_random_effect(r, block.n_a, hyper[0], hyper[1], z_athletes)
    row[block.athletes] = v[n_races:]
    race_n = np.bincount(design.race_idx, minlength=n_races).astype(float)
    race_y = np.bincount(design.race_idx, weights=design.y, minlength=n_races)
    q = np.stack([np.concatenate([race_n, block.n_a]) * v, np.concatenate([race_y, r])])
    squares, cross = np.matmul(q, v).tolist()
    return first_columns, block.yy + squares - 2.0 * cross


@LOCATION_CASES
def test_location_block_dot_products_equal_matmul_bit_for_bit(case):
    # the basis product, [X; G] beta and q v are taken by ndarray.dot: their
    # bits must be those np.matmul gives, or every chain would change
    design, config, state = case()
    block = LocationBlock(design, config)
    rng = np.random.default_rng(23)
    p, la = block.unit.size, len(design.athletes)
    for _ in range(5):
        for name in ("tau_obs", "tau_athlete", "tau_course", "tau_season"):
            setattr(state, name, getattr(state, name) * 10.0 ** rng.uniform(-2.0, 1.0))
        z_beta, z_athletes = np.split(rng.standard_normal(p + la), [p])
        row, expected_row = draws_row(state), draws_row(state)
        sum_squares = block.draw(row, z_beta, z_athletes, *_hyper(state))
        first_columns, expected = _matmul_draw(design, block, expected_row, z_beta,
                                               z_athletes, *_hyper(state))
        assert np.array_equal(block.augmented.reshape(-1, order="F")[:first_columns.size],
                              first_columns)
        assert np.array_equal(row, expected_row)
        assert sum_squares == expected


@pytest.mark.parametrize("name, value", [("tau_obs", math.nan), ("m_rho", math.nan),
                                         ("phi", math.nan), ("tau_course", -1000.0)])
def test_location_block_draw_rejects_a_nan_or_indefinite_conditional(name, value):
    # the factorisation raises nothing, for a NaN or a matrix that is not
    # positive definite: the draw's own check on the factor's last pivot has
    # to catch both.  draw() is called in the error state run_chain sets
    design, state = make_toy_design(), make_toy_state()
    block = LocationBlock(design, ModelConfig())
    setattr(state, name, value)
    row = draws_row(state)
    with np.errstate(invalid="ignore"), pytest.raises(
            SamplerError, match=f"not positive definite .* tau_obs={state.tau_obs!r} .*"
                                f"tau_course={state.tau_course!r}"):
        block.draw(row, np.zeros(block.unit.size), np.zeros(len(design.athletes)),
                   *_hyper(state))


@pytest.mark.parametrize("case", [
    lambda: _default_spec_case(seed=1),
    lambda: (make_toy_design(include_windspeed=True), ModelConfig(include_windspeed=True),
             make_toy_state(include_windspeed=True)),
], ids=["default-seed-1", "toy-windspeed"])
def test_location_block_factor_is_numpys_cholesky_bit_for_bit(case):
    # the block calls numpy's private LAPACK gufunc: a numpy that changed it
    # would change every chain, so its factor and the draw it gives must be
    # exactly those of the public np.linalg.cholesky
    design, config, state = case()
    block = LocationBlock(design, config)
    p = block.unit.size
    rng = np.random.default_rng(21)
    for _ in range(5):
        block.precision(*_hyper(state))
        factor = np.linalg.cholesky(block.augmented)
        # called as draw() calls it: into a column-major buffer
        out = np.empty_like(block.augmented)
        racemix.sampler.cholesky_lo(block.augmented, signature="d->d", out=out)
        assert out.flags.f_contiguous and np.array_equal(out, factor)
        z = rng.standard_normal(p + len(design.athletes))
        row = draws_row(state)
        block.draw(row, z[:p], z[p:], *_hyper(state))
        # the product's summation order follows the factor's layout, so the
        # reference takes it in the block's column-major layout
        layout = np.asfortranarray(factor)
        beta = layout[p:2 * p, :p] @ (layout[2 * p, :p] + z[:p])
        assert np.array_equal(row[block.beta_columns], beta)
        for name in ("tau_obs", "tau_athlete", "tau_course", "tau_season"):
            setattr(state, name, getattr(state, name) * 10.0 ** rng.uniform(-2.0, 1.0))


### chain driver


def small_config(**kwargs):
    defaults = dict(burn_in=50, iterations=200, thin=10, seed=123)
    defaults.update(kwargs)
    return ModelConfig(mcmc=McmcSchedule(**defaults))


def test_run_chain_stored_count():
    design = make_toy_design()
    chain = run_chain(design, small_config(burn_in=10, iterations=100, thin=10))
    assert chain.n_stored == 10
    assert chain.draws.shape == (10, len(chain.columns))


def test_run_chain_restores_the_error_state(monkeypatch):
    # a caller's state that raises on an invalid value: the chain's own state
    # must replace it for the sweeps and give it back on return and on error
    with np.errstate(invalid="raise", over="warn", divide="ignore"):
        caller = np.geterr()
        run_chain(make_toy_design(), small_config())
        assert np.geterr() == caller
        fail_location_factorisations(monkeypatch)
        with pytest.raises(SamplerError, match="sweep 1: location block"):
            run_chain(make_toy_design(), small_config())
        assert np.geterr() == caller


def test_run_chain_determinism_and_seed_sensitivity():
    design = make_toy_design()
    a = run_chain(design, small_config())
    b = run_chain(design, small_config())
    assert np.array_equal(a.draws, b.draws)
    c = run_chain(design, small_config(seed=124))
    assert not np.array_equal(a.draws, c.draws)


def test_run_chain_constraints_every_draw():
    design = make_toy_design()
    chain = run_chain(design, small_config(iterations=400))
    assert np.all(chain.column("athlete[A1]") == 0.0)
    assert np.all(chain.column("course[Alnwick]") == 0.0)
    assert np.all(chain.column("season[17/18]") == 0.0)
    for name in ("tau_obs", "tau_athlete", "tau_course", "tau_season", "phi"):
        assert np.all(chain.column(name) > 0.0)


def test_run_chain_survives_single_level_blocks():
    # one course and one season: those precisions sample from their
    # diffuse priors, which must not underflow and kill the sweep
    from racemix.ingest import build_design
    from racemix.model import ModelConfig
    from conftest import TOY_CONTEXTS, TOY_OBSERVATIONS, TOY_RAINFALL

    obs = [o for o in TOY_OBSERVATIONS if o.course == "Alnwick"]
    config = ModelConfig(mcmc=small_config().mcmc)
    design = build_design(obs, TOY_CONTEXTS[:1], TOY_RAINFALL, config)
    chain = run_chain(design, config)
    assert np.all(chain.column("tau_season") > 0.0)
    assert np.all(chain.column("tau_course") > 0.0)


def test_run_chain_rejects_empty_design():
    design = make_toy_design()
    import dataclasses
    empty = dataclasses.replace(
        design, y=np.empty(0), athlete_idx=np.empty(0, dtype=np.int64),
        race_idx=np.empty(0, dtype=np.int64))
    with pytest.raises(SamplerError, match="empty design"):
        run_chain(empty, small_config())


def test_chain_output_accessors():
    design = make_toy_design()
    chain = run_chain(design, small_config())
    state = chain_state(chain, chain.draws[3])
    state.validate()
    assert state.athlete_effects.size == 3
    mean_state = chain_state(chain, chain.draws.mean(axis=0))
    mean_state.validate()
    assert mean_state.gamma_dist == pytest.approx(chain.column("gamma_dist").mean())
    with pytest.raises(KeyError):
        chain.column("no_such_parameter")


@pytest.mark.parametrize("include_windspeed", [False, True])
def test_draw_layout_round_trips(include_windspeed):
    design = make_toy_design(include_windspeed=include_windspeed)
    cfg = small_config()
    cfg.include_windspeed = include_windspeed
    chain = run_chain(design, cfg)
    column = {name: j for j, name in enumerate(chain.columns)}
    levels = {"athlete_effects": ("athlete", design.athletes),
              "course_effects": ("course", design.courses),
              "season_effects": ("season", design.seasons)}
    for i in range(chain.n_stored):
        state, row = chain_state(chain, chain.draws[i]), chain.draws[i]
        checked = set()
        for field in dataclasses.fields(ParameterState):
            value = getattr(state, field.name)
            if field.name in levels:
                block, names = levels[field.name]
                assert value.shape == (len(names),)
                for level, v in zip(names, value):
                    assert v == row[column[f"{block}[{level}]"]]
                    checked.add(f"{block}[{level}]")
            elif value is None:
                assert field.name == "lambda_wind" and not include_windspeed
                assert field.name not in column
            else:
                assert value == row[column[field.name]], field.name
                checked.add(field.name)
        assert checked == set(chain.columns)
    for block, names in levels.values():
        named = np.column_stack([chain.column(f"{block}[{level}]") for level in names])
        assert np.array_equal(chain.effects(block), named)


def test_stored_precisions_are_draws_given_their_row():
    # each stored precision was drawn given the location values stored in
    # the same row, so precision x posterior rate is a standard Gamma
    # variate of the posterior shape; a precision written to another
    # precision's column fails this
    from scipy import stats

    design = make_toy_design()
    config = small_config(burn_in=0, iterations=3000, thin=1)
    pr = config.priors
    chain = run_chain(design, config)
    states = [chain_state(chain, chain.draws[i]) for i in range(chain.n_stored)]
    sse = np.array([float(e @ e) for e in
                    (design.y - linear_predictor_all(s, design) for s in states)])
    cases = {"tau_obs": (pr.a_tau_obs, pr.b_tau_obs, design.n_obs, sse)}
    for block, name in (("athlete", "tau_athlete"), ("course", "tau_course"),
                        ("season", "tau_season")):
        effects = chain.effects(block)
        cases[name] = (getattr(pr, f"a_{name}"), getattr(pr, f"b_{name}"),
                       effects.shape[1] - 1, (effects ** 2).sum(axis=1))
    for name, (shape, rate, n_free, sum_squares) in cases.items():
        scaled = chain.column(name) * (rate + 0.5 * sum_squares)
        p_value = stats.kstest(scaled, stats.gamma(precision_shape(shape, n_free)).cdf).pvalue
        assert p_value > 1e-3, (name, p_value)


@pytest.mark.parametrize("sweeps", [VARIATE_BLOCK - 1, VARIATE_BLOCK, VARIATE_BLOCK + 1])
def test_shorter_chain_is_a_prefix_of_a_longer_one(sweeps):
    # variates are drawn per block of sweeps, always whole blocks, so a
    # sweep's draws do not depend on where the chain ends
    design = make_toy_design()
    short = run_chain(design, small_config(burn_in=3, iterations=sweeps - 3, thin=1))
    long = run_chain(design, small_config(burn_in=3, iterations=2 * VARIATE_BLOCK + 7, thin=1))
    assert short.n_stored == sweeps - 3
    assert np.array_equal(short.draws, long.draws[:short.n_stored])


class ReadCount(list):
    """A list that records the highest index read from it."""

    read = 0

    def __getitem__(self, index):
        self.read = max(self.read, index + 1)
        return super().__getitem__(index)


def test_a_chain_calls_its_generator_once_per_block_of_each_variate(monkeypatch):
    # four block draws per VARIATE_BLOCK sweeps; the only other calls are a
    # slice update's uniforms beyond its budget, made only once it has read
    # them all.  A per-sweep generator call would show here.
    import racemix.sampler

    calls = []  # (method, args, kwargs, result, made inside a slice update)
    updates = []  # (args, result, the generator's results inside the update)
    make_generator = np.random.default_rng
    slice_update = racemix.sampler.slice_update_phi
    inside = []

    class CountingGenerator:
        def __init__(self, seed):
            self.generator = make_generator(seed)

        def __getattr__(self, name):
            method = getattr(self.generator, name)

            def counted(*args, **kwargs):
                result = method(*args, **kwargs)
                calls.append((name, args, kwargs, result, bool(inside)))
                return result
            return counted

    def counted_slice_update(*args):
        start = len(calls)
        inside.append(True)
        try:
            result = slice_update(*args)
        finally:
            inside.pop()
        updates.append((args, result, [call[3] for call in calls[start:]]))
        return result

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    monkeypatch.setattr(racemix.sampler, "slice_update_phi", counted_slice_update)
    sweeps = 10 * VARIATE_BLOCK
    # seed 103 runs one slice update past its budget, so that path is checked too
    run_chain(make_toy_design(),
              small_config(burn_in=40, iterations=sweeps - 40, thin=10, seed=103))

    blocks = [call for call in calls if not call[4]]
    assert [call[0] for call in blocks] == ["standard_normal", "standard_gamma",
                                            "standard_exponential", "random"] * 10
    assert all(len(call[3]) == VARIATE_BLOCK for call in blocks)
    overflow = [call for call in calls if call[4]]
    assert overflow
    assert all(name == "random" and not args and not kwargs
               for name, args, kwargs, _, _ in overflow)
    assert len(updates) == sweeps
    assert len(calls) == 4 * sweeps // VARIATE_BLOCK + len(overflow)
    for (*state, exponential, uniforms, _), result, drawn in updates:
        assert len(uniforms) == SLICE_UNIFORMS
        if drawn:
            given = ReadCount([*uniforms, *drawn])
            assert slice_update(*state, exponential, given, NoGenerator()) == result
            assert given.read == len(given)


def test_two_sweep_chain_keeps_the_invariants():
    # the shortest schedule a one-chain fit accepts: both sweeps in the first block
    design = make_toy_design()
    chain = run_chain(design, small_config(burn_in=0, iterations=2, thin=1))
    assert chain.draws.shape == (2, len(chain.columns))
    assert np.all(np.isfinite(chain.draws))
    for name in ("athlete[A1]", "course[Alnwick]", "season[17/18]"):
        assert np.all(chain.column(name) == 0.0)
    for name in ("tau_obs", "tau_athlete", "tau_course", "tau_season", "phi"):
        assert np.all(chain.column(name) > 0.0)


def test_windspeed_variant_has_lambda_column():
    design = make_toy_design(include_windspeed=True)
    cfg = small_config()
    cfg.include_windspeed = True
    chain = run_chain(design, cfg)
    assert "lambda_wind" in chain.columns
    state = chain_state(chain, chain.draws[0])
    assert state.lambda_wind is not None


def test_save_load_roundtrip(tmp_path):
    # more rows than one write block; random bit patterns need up to 17
    # significant digits, and the edge values sit in the first row
    chain = run_chain(make_toy_design(), small_config())
    rng = np.random.default_rng(5)
    n_rows = 2 * WRITE_BLOCK_ROWS + 37
    bits = rng.integers(0, 2**64, size=(n_rows, len(chain.columns)), dtype=np.uint64)
    draws = bits.view(np.float64)
    draws[~np.isfinite(draws)] = 0.5
    edges = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 0.1 + 0.2, 2.2250738585072014e-308,
             -1.0000000000000002]
    draws[0, :len(edges)] = edges
    wide = ChainOutput(draws=draws, columns=chain.columns, meta=chain.meta)
    csv_path, meta_path = tmp_path / "chain.csv", tmp_path / "metadata.json"
    save_chain(wide, csv_path, meta_path)
    again = load_chain(csv_path, meta_path)
    # repr round-trips bit for bit
    assert np.array_equal(again.draws.view(np.int64), draws.view(np.int64))
    assert again.columns == chain.columns
    assert again.meta == chain.meta
    # the writer's text is repr of each Python float, row by row
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + n_rows
    assert lines[1] == ",".join(repr(float(v)) for v in draws[0])
    assert lines[-1] == ",".join(repr(float(v)) for v in draws[-1])


def test_load_chain_one_draw_blank_lines_and_no_draws(tmp_path):
    chain = run_chain(make_toy_design(), small_config())
    one = ChainOutput(draws=chain.draws[:1].copy(), columns=chain.columns, meta=chain.meta)
    csv_path, meta_path = tmp_path / "chain.csv", tmp_path / "metadata.json"
    save_chain(one, csv_path, meta_path)
    header, row = csv_path.read_text().splitlines()
    for text in (f"{header}\n{row}\n", f"{header}\n{row}\n\n", f"{header}\n\n{row}"):
        csv_path.write_text(text)
        again = load_chain(csv_path, meta_path)
        assert again.draws.shape == (1, len(chain.columns))
        assert np.array_equal(again.draws, one.draws)
    csv_path.write_text(header + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty = load_chain(csv_path, meta_path)
    assert empty.draws.shape == (0, len(chain.columns))


def test_metadata_without_chain_seed_fields_loads(tmp_path):
    # metadata written before the per-chain SeedSequence was recorded
    chain = run_chain(make_toy_design(), small_config())
    csv_path, meta_path = tmp_path / "chain.csv", tmp_path / "metadata.json"
    save_chain(chain, csv_path, meta_path)
    meta = json.loads(meta_path.read_text())
    assert meta["seed_entropy"] == 123 and meta["seed_spawn_key"] == []
    del meta["seed_entropy"], meta["seed_spawn_key"]
    meta_path.write_text(json.dumps(meta))
    again = load_chain(csv_path, meta_path)
    assert again.meta.seed_entropy is None and again.meta.seed_spawn_key is None
    assert np.array_equal(again.draws, chain.draws)


def test_run_chains_parallel_equals_serial(monkeypatch):
    design = make_toy_design()
    cfg = small_config(iterations=100)
    set_usable_cpus(monkeypatch, 1)
    serial = run_chains(design, cfg, 2)
    set_usable_cpus(monkeypatch, 2)
    parallel = run_chains(design, cfg, 2)
    for s, p in zip(serial, parallel):
        assert np.array_equal(s.draws, p.draws)
    assert not np.array_equal(serial[0].draws, serial[1].draws)
    with pytest.raises(SamplerError):
        run_chains(design, cfg, 0)


def _chain_digest(index, chain):
    # a module-level finish, so that it pickles to the pool's workers
    return index, chain.draws.shape, chain.draws.sum()


def test_run_chains_returns_finish_results_in_chain_order(monkeypatch):
    design = make_toy_design()
    cfg = small_config(iterations=100)
    set_usable_cpus(monkeypatch, 1)
    serial = run_chains(design, cfg, 3, finish=_chain_digest)
    chains = run_chains(design, cfg, 3)
    set_usable_cpus(monkeypatch, 2)
    pooled = run_chains(design, cfg, 3, finish=_chain_digest)
    assert serial == pooled
    assert serial == [_chain_digest(i, c) for i, c in enumerate(chains, start=1)]


def test_run_chains_with_finish_keeps_no_chain(monkeypatch):
    # 3,000 stored draws: they dominate what a toy chain allocates
    set_usable_cpus(monkeypatch, 1)
    design = make_toy_design()
    cfg = small_config(iterations=3000, thin=1)
    # also loads the modules the sampler imports on first use, before tracing
    shape = run_chain(design, cfg).draws.shape
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        digests = run_chains(design, cfg, 2, finish=_chain_digest)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [d[1] for d in digests] == [shape] * 2
    assert held < 8 * shape[0] * shape[1]


def test_spawn_chain_seeds_are_stable():
    a = [s.generate_state(2).tolist() for s in spawn_chain_seeds(9, 3)]
    b = [s.generate_state(2).tolist() for s in spawn_chain_seeds(9, 3)]
    assert a == b
    assert len({tuple(x) for x in a}) == 3
