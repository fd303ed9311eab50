"""MCMC engine: one exact Gaussian block for the locations, then Gibbs and slice.

Every covariate except the athlete is constant within a race, so the
race-level location parameters beta = (intercept, gamma_dist,
lambda_wind when fitted, rho_cur, rho_prev, course[1:], season[1:])
enter the likelihood only through the R distinct races.  Given the
precisions, m_rho and phi, beta and the free athlete effects are jointly
Gaussian.  A sweep visits, in order:

1. the location block: beta from its conditional with the free athletes
   integrated out (one Cholesky factorisation of a (2p + 1)-square matrix
   that holds the p x p precision built from race-level statistics), then
   the athletes given beta;
2. the rainfall hyper-mean m_rho (Normal) and the carryover ratio phi,
   whose conditional is nonstandard and is updated by slice sampling with
   stepping out and shrinkage;
3. the athlete, course, season and observation precisions (Gamma), the
   last from the new state's residual sum of squares, which step 1
   computes from its race and athlete sums.

The race-level statistics are built once per chain (LocationBlock).
After that a sweep reads no array with one entry per observation, so
its cost does not grow with the number of observations.  Drawing beta
and the athletes together removes the strong posterior correlations
between the intercept, the uncentred rainfall coefficients and the
athlete effects that single-site updates mix slowly through.

A sweep costs tens of microseconds, most of it per-call overhead, so
run_chain keeps the location parameters in one float64 vector laid out
like a draws row (the block writes beta and the athletes straight into
it) and the other scalars as Python floats; a stored draw is one row
copy.  The standard Normal, Gamma and exponential variates of
VARIATE_BLOCK sweeps, and SLICE_UNIFORMS uniforms per sweep, come from one
generator call each, and every update takes its variates rather than the
generator: no update draws as it goes.  A slice update that needs more
uniforms than its sweep's budget continues from the chain's generator.

Chains are deterministic given a seed; independent chains get
SeedSequence-spawned child seeds, recorded in each chain's metadata so
any one chain can be replayed alone.  The variates are drawn in whole
blocks and the generator is only ever read forward, so a sweep's draws do
not depend on how long the chain runs.
"""
from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np
# the LAPACK dpotrf gufunc behind np.linalg.cholesky, called without the
# wrapper's array checks and error state: run_chain sets the error state
# once per chain, and a failed factorisation leaves NaN, which draw() checks
from numpy.linalg._umath_linalg import cholesky_lo

from . import __version__
from .ingest import DataError, DesignMatrixView, not_utf8_error, parse_number, read_json
from .model import RESPONSES, McmcSchedule, ModelConfig, json_number
# not called by the sweep; perfbench/tracing.py wraps it by this name here
from .model import linear_predictor_all  # noqa: F401

# near phi's posterior sd (about 0.75 on the default synthetic spec): 4.9
# log-target calls per update, against 6.3 at width 0.5
SLICE_WIDTH = 1.0
SLICE_MAX_STEPS = 50
# rows of a chain CSV formatted per write: their text is the largest
# transient of a chain worker, about 0.6 MB at 32 rows of 223 columns
WRITE_BLOCK_ROWS = 32
# sweeps whose standard Normal, Gamma, exponential and uniform variates
# are drawn by one generator call each: 64 x (p + athletes + 1) normals
# is about 110 KB at league scale
VARIATE_BLOCK = 64
# uniforms per sweep for the slice update of phi, drawn with the block:
# one places the initial interval, the rest are shrinkage proposals, and a
# sweep that needs more continues from the chain's generator
SLICE_UNIFORMS = 8

# smallest positive normal float64; floor for underflowing Gamma draws
TINY_PRECISION = float(np.finfo(float).tiny)

# the trailing diagonal of the matrix LocationBlock.draw factorises; any
# value far above the largest entry of beta's conditional covariance and of
# b'Q^-1 b does, since the draw reads no column of the factor that depends
# on it
KAPPA = 1e150

# The draws-row layout: these scalars in this order (lambda_wind only when
# the windspeed term is fitted), then each effect block's levels in level
# order.  Scalar names are ParameterState fields; block b is the state's
# `b_effects`, the metadata's `bs` levels and the columns `b[level]`.
SCALAR_COLUMNS = ("intercept", "gamma_dist", "lambda_wind", "rho_cur", "rho_prev",
                  "m_rho", "phi", "tau_obs", "tau_athlete", "tau_course", "tau_season")
EFFECT_BLOCKS = ("athlete", "course", "season")


class SamplerError(Exception):
    """Raised when an MCMC update cannot proceed."""


def gibbs_scalar_normal(prior_mean, prior_var, xs, residuals, tau_obs, rng) -> float:
    """Draw a scalar coefficient from its Normal full conditional.

    `residuals` must exclude this coefficient's own contribution; `xs` is
    the covariate it multiplies (all ones for the intercept).  With no
    data the draw comes from the prior.

    The sweep draws the coefficients jointly (LocationBlock); this
    single-coordinate conditional stays because the grid oracles check
    it and perfbench/tracing.py wraps it by name.
    """
    if prior_var <= 0.0:
        raise SamplerError(f"prior variance must be positive, got {prior_var}")
    if tau_obs <= 0.0:
        raise SamplerError(f"tau_obs must be positive, got {tau_obs}")
    prec = tau_obs * float(xs @ xs) + 1.0 / prior_var
    mean = (tau_obs * float(xs @ residuals) + prior_mean / prior_var) / prec
    return mean + rng.standard_normal() / math.sqrt(prec)


def gibbs_random_effect(level_residual_sums, level_counts, tau_obs, tau_group, z,
                        out=None, work=None) -> np.ndarray:
    """Draw a whole random-effect block; entry 0 stays exactly zero.

    level_residual_sums[l] is the sum, over that level's observations, of
    residuals excluding this block's contribution.  Levels with no data
    are drawn from the N(0, 1/tau_group) population.  z holds one
    standard Normal variate per level.

    The draw is written into `out` when given (LocationBlock passes a
    view of its own buffer), else into a new array; either way it is
    returned.  `work`, when given, is a float64 scratch array of the same
    length that the call overwrites, else one is allocated.  Neither may
    overlap the inputs or each other.
    """
    if not tau_obs > 0.0 or not tau_group > 0.0:  # NaN included
        raise SamplerError(f"precisions must be positive, got "
                           f"tau_obs={tau_obs} tau_group={tau_group}")
    # output arrays are passed positionally: by keyword, each ufunc call
    # costs about 0.1 us more, as much as its arithmetic at league scale
    prec = np.multiply(level_counts, tau_obs, work)
    prec += tau_group
    draw = np.multiply(tau_obs, level_residual_sums, out)
    draw /= prec
    # prec's last use: it becomes z / sqrt(prec)
    np.sqrt(prec, prec)
    np.divide(z, prec, prec)
    draw += prec
    draw[0] = 0.0
    return draw


def precision_shape(shape, n_free) -> float:
    """The Gamma shape of a precision's full conditional: shape + n_free / 2.

    n_free excludes corner-constrained entries; for the observation
    precision it is the number of observations.  It does not change
    during a chain, so run_chain computes it once.
    """
    if not shape > 0.0:  # NaN included
        raise SamplerError(f"gamma shape must be positive, got {shape}")
    if n_free < 0:
        raise SamplerError(f"n_free must be >= 0, got {n_free}")
    return shape + 0.5 * n_free


def gibbs_precision(rate, sum_squares, gamma_variate) -> float:
    """Draw a precision from its Gamma full conditional.

    gamma_variate is a standard Gamma variate of the conditional's shape,
    precision_shape(prior shape, n_free); sum_squares is that of the free
    levels, or the residual sum of squares for the observation precision.
    """
    if not rate > 0.0:  # NaN included
        raise SamplerError(f"gamma rate must be positive, got {rate}")
    if not 0.0 <= sum_squares < math.inf:
        raise SamplerError(f"invalid update input: sum_squares={sum_squares}")
    draw = gamma_variate / (rate + 0.5 * sum_squares)
    # with no free levels the conditional is the diffuse prior, whose
    # tiny-shape draws can underflow float64 to exactly 0; clamp to keep
    # the positivity invariant (anything below tiny is unrepresentable).
    # A comparison, not max(): the same result, NaN passing through, for
    # less than a builtin call
    return draw if not draw < TINY_PRECISION else TINY_PRECISION


def gibbs_hypermean(rho_cur, rho_prev, phi, v_rho_cur, v_rho_prev, v_m, z) -> float:
    """Draw the rainfall hyper-mean from its Normal full conditional.

    Both rainfall coefficients inform it: the current-month one directly,
    the previous-month one through the phi-scaled prior mean.  z is a
    standard Normal variate.
    """
    if not v_rho_cur > 0.0 or not v_rho_prev > 0.0 or not v_m > 0.0:  # NaN included
        raise SamplerError(f"variances must be positive, got v_rho_cur={v_rho_cur} "
                           f"v_rho_prev={v_rho_prev} v_m={v_m}")
    prec = 1.0 / v_m + 1.0 / v_rho_cur + phi * phi / v_rho_prev
    mean = (rho_cur / v_rho_cur + phi * rho_prev / v_rho_prev) / prec
    return mean + z / math.sqrt(prec)


def phi_log_target(phi, rho_prev, m_rho, v_rho_prev, a_phi, b_phi) -> float:
    """Unnormalised log conditional for the rainfall carryover ratio."""
    if phi <= 0.0:
        return -math.inf
    return ((a_phi - 1.0) * math.log(phi) - b_phi * phi
            - (rho_prev - phi * m_rho) ** 2 / (2.0 * v_rho_prev))


def _slice_error(reason, phi, rho_prev, m_rho, v_rho_prev, a_phi, b_phi) -> SamplerError:
    return SamplerError(f"{reason}: phi={phi} rho_prev={rho_prev} m_rho={m_rho} "
                        f"v_rho_prev={v_rho_prev} a_phi={a_phi} b_phi={b_phi}")


def slice_update_phi(phi_current, rho_prev, m_rho, v_rho_prev, a_phi, b_phi,
                     exponential, uniforms, rng) -> float:
    """One slice-sampling update of phi: stepping out, then shrinkage.

    exponential is a standard exponential variate, the slice's depth below
    the current log target.  uniforms holds at least one Uniform(0, 1)
    variate: the first places the initial interval, the rest are the
    shrinkage proposals in order, and any further proposal is drawn from
    rng.  The interval is clamped at zero on the left (the target has no
    mass there).  A current point where the log target is not finite (any
    NaN input included) and failing to bracket the slice within
    SLICE_MAX_STEPS step-outs are errors carrying the full conditioning state.
    """
    if not phi_current > 0.0:  # NaN included
        raise _slice_error("phi must be positive",
                           phi_current, rho_prev, m_rho, v_rho_prev, a_phi, b_phi)
    log_fx = phi_log_target(phi_current, rho_prev, m_rho, v_rho_prev, a_phi, b_phi)
    if not math.isfinite(log_fx):
        raise _slice_error(f"phi's log target is {log_fx}",
                           phi_current, rho_prev, m_rho, v_rho_prev, a_phi, b_phi)
    log_y = log_fx - exponential

    left = phi_current - SLICE_WIDTH * uniforms[0]
    right = left + SLICE_WIDTH
    steps = 0
    # no closure around phi_log_target: one Python call fewer per evaluation
    while (left > 0.0
           and phi_log_target(left, rho_prev, m_rho, v_rho_prev, a_phi, b_phi) > log_y):
        left -= SLICE_WIDTH
        steps += 1
        if steps > SLICE_MAX_STEPS:
            raise _slice_error(f"slice bracket failure (left) after "
                               f"{SLICE_MAX_STEPS} step-outs",
                               phi_current, rho_prev, m_rho, v_rho_prev, a_phi, b_phi)
    left = max(left, 0.0)
    steps = 0
    while phi_log_target(right, rho_prev, m_rho, v_rho_prev, a_phi, b_phi) > log_y:
        right += SLICE_WIDTH
        steps += 1
        if steps > SLICE_MAX_STEPS:
            raise _slice_error(f"slice bracket failure (right) after "
                               f"{SLICE_MAX_STEPS} step-outs",
                               phi_current, rho_prev, m_rho, v_rho_prev, a_phi, b_phi)

    given = len(uniforms)
    for k in range(1, 10_001):
        u = uniforms[k] if k < given else rng.random()
        prop = left + u * (right - left)
        if phi_log_target(prop, rho_prev, m_rho, v_rho_prev, a_phi, b_phi) >= log_y:
            return prop
        if prop < phi_current:
            left = prop
        else:
            right = prop
    raise _slice_error("slice shrinkage failed to accept",
                       phi_current, rho_prev, m_rho, v_rho_prev, a_phi, b_phi)


class LocationBlock:
    """The joint conditional of every location parameter, from race statistics.

    A race is a (course, season) pair, whose observations share the
    centred distance, centred windspeed and both rainfalls; X is the
    R x p design of the races for beta = (intercept, gamma_dist,
    [lambda_wind], rho_cur, rho_prev, course[1:], season[1:]).  With N the
    race sizes, S_yr the race sums of y, M the race x athlete count matrix,
    G = M'X, and n_a / S_ya the athletes' counts and sums of y, the free
    athletes integrate out of the joint Gaussian in closed form:

        Q = tau X'NX + P0 - G~'G~,   b = tau X'S_yr + P0 m0 - G~'(w S_ya)

    where w = tau / sqrt(tau n_a + tau_athlete) over the free athletes, G~
    is G scaled row-wise by w, and P0, m0 are beta's prior precisions and
    means.  Athletes with the same count n_a share w, so G~'G~ and
    G~'(w S_ya) are sums over the distinct counts of w^2 times fixed
    moments of [G | S_ya].  Q and b are therefore fixed matrices times a
    short coefficient vector (`coef`), built in O(R p^2) whatever the
    number of observations or athletes.

    Q and b are kept in units of the columns' weighted norms sqrt(X'NX),
    so Q is well scaled however different the covariates' scales are
    (rainfall in mm against indicators); `unit` converts back.

    draw() writes beta and the athletes into a draws row, at
    `beta_columns` and `athletes`.  It factorises the augmented matrix

        A = [[Q, ., .], [U, kappa I, .], [b', 0, kappa]],   U = diag(unit),

    of size 2p + 1 (only its lower triangle is read): the factor's first p
    columns are [L; U L^-T; (L^-1 b)'] with L L' = Q, whatever kappa is.
    kappa (KAPPA) only has to keep the trailing pivots positive.  A's
    first p columns are one fixed basis (`basis`) times `coef`, U sitting
    in the basis matrix whose coefficient is always 1, so precision()
    writes every entry that changes with one product.

    The same statistics give the residual sum of squares of a state
    without a pass over the observations: with m = X beta the race means,
    a the athlete effects (a[0] = 0) and r = S_ya - G beta,

        e'e = y'y + m'N m + a'(n_a a) - 2 (m'S_yr + a'r).

    draw() keeps v = [m; a] in one vector and q = [[N m, n_a a], [S_yr, r]]
    in one 2-row matrix, so q v = (m'N m + a'(n_a a), m'S_yr + a'r) is a
    single product.  m is formed before it is squared: beta'(X'NX beta)
    would sum terms far larger than e'e when the prior alone separates
    collinear coefficients (one race), and lose e'e to rounding.

    The block owns every array a draw writes, allocated once: the matrix
    and its factor, L^-1 b + z_beta, beta, v, q, the two sums and
    gibbs_random_effect's scratch.  So a draw allocates no array, and one
    block serves one chain at a time; sweeping several chains in one
    process would give these buffers a chain axis.  The products whose
    operands are contiguous (the basis, [X; G] beta and q v) call BLAS
    through ndarray.dot, which skips np.matmul's dispatch and gives the
    same bits.
    """

    # the statistics are built without a bound on the covariates: one of
    # 1e300 overflows the column norms, and the first draw's check of the
    # factor turns that into a SamplerError, so numpy need not warn of it
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, design: DesignMatrixView, config: ModelConfig):
        pr = config.priors
        la = len(design.athletes)
        lc, ls = len(design.courses), len(design.seasons)
        covariates = ([design.race_x_dist]
                      + ([design.race_x_wind] if config.include_windspeed else [])
                      + [design.race_rain_cur, design.race_rain_prev])
        race_idx = design.race_idx
        n_races = design.race_course.size
        course = np.eye(lc)[design.race_course, 1:]
        season = np.eye(ls)[design.race_season, 1:]
        x = np.column_stack([np.ones(n_races), *covariates, course, season])
        k = 1 + len(covariates)  # first course[1:] column
        p = x.shape[1]
        rows = _block_slices(config.include_windspeed, design)
        self.beta_columns = np.r_[:k, rows["course"].start + 1:rows["course"].stop,
                                  rows["season"].start + 1:rows["season"].stop]
        self.athletes = rows["athlete"]

        race_n = np.bincount(race_idx, minlength=n_races).astype(float)
        race_y = np.bincount(race_idx, weights=design.y, minlength=n_races)
        athlete_race = np.bincount(design.athlete_idx * n_races + race_idx,
                                   minlength=la * n_races).reshape(la, n_races)  # M'
        g = athlete_race @ x
        # X stacked over G: draw() forms the race means X beta and G beta in
        # one product
        self.xg = np.concatenate([x, g])
        self.n_a = athlete_race.sum(axis=1).astype(float)
        self.s_ya = np.bincount(design.athlete_idx, weights=design.y, minlength=la)
        self.yy = float(design.y @ design.y)

        # built (p + 1)-square: Q in [:p, :p], b in [p, :p]
        x1 = np.column_stack([x, np.zeros(n_races)])
        data = x1.T @ (race_n[:, None] * x1)  # coefficient tau
        data[p] = x1.T @ race_y
        # coefficient -w^2 for each distinct count of the free athletes
        counts, group = np.unique(self.n_a[1:], return_inverse=True)
        self.distinct_counts = counts.tolist()  # Python floats, for precision()
        stats = np.column_stack([g, self.s_ya])[1:]
        moments = [stats[group == j].T @ stats[group == j] for j in range(counts.size)]
        # prior terms, coefficients (1, tau_course, tau_season, m_rho, phi m_rho)
        prior = np.zeros((5, p + 1, p + 1))
        fixed = [(pr.m_intercept, pr.v_intercept), (pr.m_gamma_dist, pr.v_gamma_dist)]
        if config.include_windspeed:
            fixed.append((pr.m_lambda_wind, pr.v_lambda_wind))
        for j, (mean, var) in enumerate(fixed):
            prior[0, j, j] = 1.0 / var
            prior[0, p, j] = mean / var
        j = len(fixed)  # rho_cur ~ N(m_rho, v_rho_cur), rho_prev ~ N(phi m_rho, v_rho_prev)
        prior[0, j, j] = prior[3, p, j] = 1.0 / pr.v_rho_cur
        prior[0, j + 1, j + 1] = prior[4, p, j + 1] = 1.0 / pr.v_rho_prev
        course, season = np.arange(k, k + lc - 1), np.arange(k + lc - 1, p)
        prior[1, course, course] = 1.0
        prior[2, season, season] = 1.0
        basis = np.concatenate([[data], -np.array(moments).reshape(-1, p + 1, p + 1), prior])
        norms = np.sqrt(data.diagonal()[:p])
        self.unit = unit = 1.0 / np.where(norms > 0.0, norms, 1.0)
        scaled = basis[:, :, :p] * np.append(unit, 1.0)[:, None] * unit
        # A is stored column-major, so its first p columns, which hold Q, U
        # and b, are its first p (2p + 1) entries: the basis spans just
        # those, each matrix's columns laid end to end.  The other columns
        # hold only kappa's diagonal, written once.
        n = 2 * p + 1
        columns = np.zeros((basis.shape[0], p, n))
        columns[:, :, np.r_[:p, 2 * p]] = scaled.transpose(0, 2, 1)
        columns[-5, :, p:2 * p] = np.diag(unit)
        self.basis = columns.reshape(basis.shape[0], -1)
        # the coefficients of the basis, rewritten in place by precision()
        self.coef = np.empty(basis.shape[0])
        self.augmented = np.zeros((n, n), order="F")
        np.fill_diagonal(self.augmented[p:, p:], KAPPA)
        self._first_columns = self.augmented.reshape(-1, order="F")[:p * n]

        # draw()'s buffers, written in place every sweep.  The factor, with
        # fixed views of its U L^-T block, its L^-1 b row and its last pivot
        self._factor = np.empty((n, n), order="F")
        self._ul = self._factor[p:2 * p, :p]
        self._solved = self._factor[2 * p, :p]
        self._pivot = self._factor[-1, -1, ...]
        self._shifted = np.empty(p)  # L^-1 b + z_beta
        self._beta = np.empty(p)
        # v = [m; G beta], then [m; a] once the athletes overwrite G beta
        self._v = np.empty(n_races + la)
        self._athletes_v = self._v[n_races:]
        self._weights = np.concatenate([race_n, self.n_a])
        # q = [[N m, n_a a], [S_yr, r]]: q @ v holds both sums e'e needs
        self._q = np.empty((2, n_races + la))
        self._q[1, :n_races] = race_y
        self._weighted_v = self._q[0]
        self._r = self._q[1, n_races:]
        self._sums = np.empty(2)
        self._work = np.empty(la)  # gibbs_random_effect's scratch

    def precision(self, tau_obs, tau_athlete, tau_course, tau_season, m_rho, phi) -> None:
        """Write the augmented matrix draw() factorises into `augmented`.

        Its Q = augmented[:p, :p] and b = augmented[2p, :p] are those of the
        conditional N(Q^-1 b, Q^-1) of beta / unit with the free athletes
        integrated out.  In beta's own units these are Q / (unit unit') and
        b / unit.
        """
        # in basis order: tau, w^2 of each distinct count, U's 1, then the
        # prior terms.  w^2 is computed on Python floats: for the few
        # distinct counts, ufunc calls would cost more than the arithmetic
        tau2 = tau_obs * tau_obs
        self.coef[:] = [tau_obs,
                        *[tau2 / (count * tau_obs + tau_athlete)
                          for count in self.distinct_counts],
                        1.0, tau_course, tau_season, m_rho, phi * m_rho]
        self.coef.dot(self.basis, self._first_columns)

    def draw(self, row, z_beta, z_athletes, tau_obs, tau_athlete, tau_course, tau_season,
             m_rho, phi) -> float:
        """Redraw beta and the athlete effects in the draws row `row`; returns e'e.

        With F the Cholesky factor of the augmented matrix (see the class),
        beta = F[p:2p, :p] (F[2p, :p] + z_beta) = U (Q^-1 b + L^-T z_beta),
        which is U N(Q^-1 b, Q^-1): one factorisation and one product, in
        beta's own units.  One product with [X; G] gives v = [m; G beta];
        the athletes are then drawn from their conditional given beta, with
        z_athletes (one standard Normal per athlete), straight over G beta,
        so v = [m; a], and the new state's residual sum of squares is one
        more product (see the class).  Every array written lives in the
        block; `row` receives copies, so no later draw changes it.

        The factor comes from LAPACK's gufunc, which fills it with NaN when
        the matrix is not positive definite; a NaN anywhere in Q or b also
        reaches the factor's last pivot.  So checking that one pivot turns
        both into a SamplerError.  The gufunc then also sets numpy's invalid
        flag: call draw() under np.errstate(invalid="ignore"), as run_chain
        does, or that flag warns (an error where warnings are errors).
        """
        self.precision(tau_obs, tau_athlete, tau_course, tau_season, m_rho, phi)
        cholesky_lo(self.augmented, signature="d->d", out=self._factor)
        if not self._pivot.item() > 0.0:  # NaN included
            raise SamplerError(
                f"location block precision is not positive definite at "
                f"tau_obs={tau_obs!r} tau_athlete={tau_athlete!r} "
                f"tau_course={tau_course!r} tau_season={tau_season!r}")
        np.add(self._solved, z_beta, self._shifted)
        # U L^-T is a strided view of the factor: ndarray.dot would copy it
        # first, and round differently, so this product stays np.matmul
        np.matmul(self._ul, self._shifted, self._beta)
        row[self.beta_columns] = self._beta
        v, a = self._v, self._athletes_v
        self.xg.dot(self._beta, v)
        # a holds G beta until the athletes are drawn over it
        np.subtract(self.s_ya, a, self._r)
        gibbs_random_effect(self._r, self.n_a, tau_obs, tau_athlete, z_athletes, a,
                            self._work)
        row[self.athletes] = a
        np.multiply(self._weights, v, self._weighted_v)
        self._q.dot(v, self._sums)
        squares, cross = self._sums.tolist()
        return self.yy + squares - 2.0 * cross


@dataclass
class ChainMeta:
    """Fit metadata stored alongside the draws."""

    seed: int
    burn_in: int
    iterations: int
    thin: int
    response: str
    include_windspeed: bool
    d_bar: float
    w_bar: float
    athletes: tuple[str, ...]
    courses: tuple[str, ...]
    seasons: tuple[str, ...]
    version: str = __version__
    # this chain's own SeedSequence: SeedSequence(seed_entropy,
    # spawn_key=seed_spawn_key) replays it alone (None in older metadata)
    seed_entropy: int | None = None
    seed_spawn_key: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("athletes", "courses", "seasons", "seed_spawn_key"):
            if d[key] is not None:
                d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ChainMeta":
        """The metadata of a JSON object; KeyError for a missing field, and
        ValueError naming the field for a value of the wrong type or out of
        range.  Values are checked, never coerced."""
        schedule = McmcSchedule(**{name: json_number(d[name], name, integer=True)
                                   for name in ("seed", "burn_in", "iterations", "thin")})
        schedule.validate()
        include_windspeed = d["include_windspeed"]
        if not isinstance(include_windspeed, bool):
            raise ValueError(f"include_windspeed must be true or false, "
                             f"got {include_windspeed!r}")
        if d["response"] not in RESPONSES:
            raise ValueError(f"response must be one of {RESPONSES}, got {d['response']!r}")
        levels = {name: d[name] for name in ("athletes", "courses", "seasons")}
        for name, values in levels.items():
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                raise ValueError(f"{name} must be an array of strings")
        entropy, spawn_key = d.get("seed_entropy"), d.get("seed_spawn_key")
        return cls(
            **asdict(schedule), response=d["response"], include_windspeed=include_windspeed,
            d_bar=json_number(d["d_bar"], "d_bar"), w_bar=json_number(d["w_bar"], "w_bar"),
            **{name: tuple(values) for name, values in levels.items()},
            version=d.get("version", "unknown"),
            seed_entropy=None if entropy is None else json_number(
                entropy, "seed_entropy", integer=True),
            seed_spawn_key=None if spawn_key is None else tuple(
                json_number(k, "seed_spawn_key", integer=True) for k in spawn_key))


def _scalar_columns(include_windspeed: bool) -> tuple[str, ...]:
    return tuple(name for name in SCALAR_COLUMNS
                 if include_windspeed or name != "lambda_wind")


def _block_slices(include_windspeed: bool, levels) -> dict[str, slice]:
    """Where each effect block sits in a draws row.

    `levels` is a ChainMeta or a design: anything with the `athletes`,
    `courses` and `seasons` level names.
    """
    slices = {}
    start = len(_scalar_columns(include_windspeed))
    for block in EFFECT_BLOCKS:
        stop = start + len(getattr(levels, f"{block}s"))
        slices[block] = slice(start, stop)
        start = stop
    return slices


def parameter_columns(meta: ChainMeta) -> tuple[str, ...]:
    """Column names for the draws matrix, constrained levels included."""
    return _scalar_columns(meta.include_windspeed) + tuple(
        f"{block}[{level}]" for block in EFFECT_BLOCKS
        for level in getattr(meta, f"{block}s"))


@dataclass
class ChainOutput:
    """Thinned post-burn-in draws plus the metadata needed to reuse them."""

    draws: np.ndarray  # (n_stored, n_params)
    columns: tuple[str, ...]
    meta: ChainMeta
    # wall seconds run_chain spent sweeping; not saved (None for a loaded chain)
    sampling_s: float | None = None
    _col_index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._col_index:
            self._col_index = {name: i for i, name in enumerate(self.columns)}

    @property
    def n_stored(self) -> int:
        return self.draws.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.draws[:, self._col_index[name]]
        except KeyError:
            raise KeyError(f"no parameter column {name!r}") from None

    def effects(self, block: str) -> np.ndarray:
        """(n_stored, n_levels) draws of one of EFFECT_BLOCKS."""
        return self.draws[:, _block_slices(self.meta.include_windspeed, self.meta)[block]]


def run_chain(design: DesignMatrixView, config: ModelConfig, rng_seed=None) -> ChainOutput:
    """Run one full chain and return the thinned post-burn-in draws.

    rng_seed may be an int or a numpy SeedSequence; by default the
    schedule's seed is used.  Identical seeds give bit-identical output.

    The sweeps run under np.errstate(invalid="ignore"), entered once for
    the chain, and the caller's error state is back in place when
    run_chain returns or raises.  A factorisation that fails under it is
    still a SamplerError (see LocationBlock.draw).
    """
    config.validate()
    if design.n_obs == 0:
        raise SamplerError("cannot fit an empty design")

    pr = config.priors
    sched = config.mcmc
    seed_seq = (rng_seed if isinstance(rng_seed, np.random.SeedSequence)
                else np.random.SeedSequence(sched.seed if rng_seed is None else rng_seed))
    rng = np.random.default_rng(seed_seq)

    n = design.n_obs
    la, lc, ls = len(design.athletes), len(design.courses), len(design.seasons)
    block = LocationBlock(design, config)
    p = block.unit.size

    total = sched.burn_in + sched.iterations
    meta = ChainMeta(
        seed=int(rng_seed) if isinstance(rng_seed, (int, np.integer)) else sched.seed,
        seed_entropy=seed_seq.entropy,
        seed_spawn_key=tuple(seed_seq.spawn_key),
        burn_in=sched.burn_in, iterations=sched.iterations, thin=sched.thin,
        response=design.response, include_windspeed=config.include_windspeed,
        d_bar=design.d_bar, w_bar=design.w_bar,
        athletes=design.athletes, courses=design.courses, seasons=design.seasons)
    columns = parameter_columns(meta)
    draws = np.empty((sched.n_stored, len(columns)))
    stored = 0

    # the state, laid out like a draws row: the location parameters live in
    # `state` (views below), the rest in Python floats that are written into
    # it only when a draw is stored.  The first block draw replaces every
    # location value.
    state = np.zeros(len(columns))
    blocks = _block_slices(config.include_windspeed, design)
    # the effect blocks lie side by side in the row: one reduceat gives
    # their three sums of squares
    effects = state[blocks["athlete"].start:blocks["season"].stop]
    squares = np.empty_like(effects)
    block_starts = np.array([0, la, la + lc])
    names = _scalar_columns(config.include_windspeed)
    rho = slice(names.index("rho_cur"), names.index("rho_prev") + 1)
    # m_rho, phi, tau_obs, tau_athlete, tau_course, tau_season: the last
    # six scalar columns
    rest = slice(names.index("m_rho"), len(names))
    m_rho, phi = 0.0, pr.a_phi / pr.b_phi
    tau_obs = tau_athlete = tau_course = tau_season = 1.0

    v_rho_cur, v_rho_prev, v_m_rho = pr.v_rho_cur, pr.v_rho_prev, pr.v_m_rho
    a_phi, b_phi = pr.a_phi, pr.b_phi
    b_athlete, b_course, b_season, b_obs = (pr.b_tau_athlete, pr.b_tau_course,
                                            pr.b_tau_season, pr.b_tau_obs)
    shapes = [precision_shape(pr.a_tau_athlete, la - 1), precision_shape(pr.a_tau_course, lc - 1),
              precision_shape(pr.a_tau_season, ls - 1), precision_shape(pr.a_tau_obs, n)]

    started = time.perf_counter()
    # the error state of every block draw, entered once per chain (see
    # LocationBlock.draw)
    with np.errstate(invalid="ignore"):
        try:
            for sweep in range(1, total + 1):
                i = (sweep - 1) % VARIATE_BLOCK
                if i == 0:
                    normals = rng.standard_normal((VARIATE_BLOCK, p + la + 1))
                    # each sweep's row views, built once per block
                    z_beta, z_athletes = list(normals[:, :p]), list(normals[:, p:-1])
                    z_m_rho = normals[:, -1].tolist()
                    gammas = rng.standard_gamma(shapes, size=(VARIATE_BLOCK, 4)).tolist()
                    exponentials = rng.standard_exponential(VARIATE_BLOCK).tolist()
                    uniforms = rng.random((VARIATE_BLOCK, SLICE_UNIFORMS)).tolist()

                sum_squares = block.draw(state, z_beta[i], z_athletes[i], tau_obs, tau_athlete,
                                         tau_course, tau_season, m_rho, phi)

                rho_cur, rho_prev = state[rho].tolist()
                m_rho = gibbs_hypermean(rho_cur, rho_prev, phi, v_rho_cur, v_rho_prev, v_m_rho,
                                        z_m_rho[i])
                phi = slice_update_phi(phi, rho_prev, m_rho, v_rho_prev, a_phi, b_phi,
                                       exponentials[i], uniforms[i], rng)

                # entry 0 of each effect vector is exactly 0, so whole-vector
                # sums of squares are those of the free levels
                np.square(effects, out=squares)
                ss_athlete, ss_course, ss_season = np.add.reduceat(squares, block_starts).tolist()
                g_athlete, g_course, g_season, g_obs = gammas[i]
                tau_athlete = gibbs_precision(b_athlete, ss_athlete, g_athlete)
                tau_course = gibbs_precision(b_course, ss_course, g_course)
                tau_season = gibbs_precision(b_season, ss_season, g_season)
                tau_obs = gibbs_precision(b_obs, sum_squares, g_obs)

                if sweep > sched.burn_in and (sweep - sched.burn_in) % sched.thin == 0:
                    state[rest] = (m_rho, phi, tau_obs, tau_athlete, tau_course, tau_season)
                    draws[stored] = state
                    stored += 1
        except SamplerError as exc:
            raise SamplerError(f"sweep {sweep}: {exc}") from exc

    return ChainOutput(draws=draws, columns=columns, meta=meta,
                       sampling_s=time.perf_counter() - started)


def _chain_worker(job):
    design, config, seed_seq, finish, index = job
    chain = run_chain(design, config, rng_seed=seed_seq)
    # the chain is dropped on return: only finish's result leaves the worker
    return chain if finish is None else finish(index, chain)


def spawn_chain_seeds(seed: int, n_chains: int):
    """Deterministic per-chain seeds: SeedSequence(seed).spawn(n_chains)."""
    return np.random.SeedSequence(seed).spawn(n_chains)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chains(design: DesignMatrixView, config: ModelConfig, n_chains: int, finish=None) -> list:
    """Run n_chains independent chains on min(n_chains, usable_cpus())
    processes: one after another in this process when that is one, else
    on a process pool of that size.

    Chain i uses the i-th SeedSequence child of the schedule seed, so its
    draws depend on neither the chain count nor the pool size.  Without
    `finish` the ChainOutputs are returned, in chain order.  `finish(i,
    chain)`, when given, runs right after chain i (1-based) in the process
    that sampled it, so each chain's own post-processing overlaps the
    other chains' sampling; its return value takes the chain's place in
    the list, and the chain itself is dropped there.  So with a pool no
    draws cross back to this process, only what `finish` returns.  With a
    pool, `finish` and its results must pickle (a module-level function or
    a functools.partial of one).
    """
    if n_chains < 1:
        raise SamplerError(f"n_chains must be >= 1, got {n_chains}")
    seeds = spawn_chain_seeds(config.mcmc.seed, n_chains)
    jobs = [(design, config, ss, finish, i) for i, ss in enumerate(seeds, start=1)]
    workers = min(n_chains, usable_cpus())
    if workers == 1:
        return [_chain_worker(job) for job in jobs]
    # imported here, so that in-process fits and the commands that read a fit
    # do not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_chain_worker, jobs))


def save_chain(chain: ChainOutput, csv_path, meta_path) -> None:
    """Write draws as CSV (exact shortest-repr floats) and metadata JSON."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(chain.columns) + "\n")
        # one write per block of rows: the text of a whole chain would
        # outweigh the draws themselves in memory
        for start in range(0, chain.n_stored, WRITE_BLOCK_ROWS):
            rows = chain.draws[start:start + WRITE_BLOCK_ROWS].astype(float, copy=False)
            # repr of the Python float: shortest round-trip representation
            fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows.tolist()]))
    meta = chain.meta.to_dict()
    meta["columns"] = list(chain.columns)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _chain_parse_error(csv_path, header, reason) -> DataError:
    """The error for a chain CSV that np.loadtxt refused, or that holds a
    draw that is not finite, naming the line.

    The file is scanned again because loadtxt's row numbers start after
    the header and skip blank lines; this scan counts the header as line
    1 and skips empty lines as loadtxt does, and reads each cell by
    ingest's numeric-cell rule, which refuses what loadtxt refuses ("1_0",
    non-ASCII digits).  Where no line fails, loadtxt's own `reason` is
    kept.  The scan decodes the file to its end, so a byte that is not
    UTF-8 anywhere in it is the error, wherever loadtxt stopped.
    """
    error = None
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            fh.readline()
            for number, line in enumerate(fh, start=2):
                error = _chain_line_error(csv_path, header, number, line)
                if error is not None:
                    break
            while fh.read(1 << 20):
                pass
    except UnicodeDecodeError:
        return not_utf8_error(csv_path)
    return error or DataError(f"{csv_path}: {reason}")


def _chain_line_error(csv_path, header, number, line) -> DataError | None:
    """The error for line `number` of a chain CSV, or None for a good line."""
    cells = line.rstrip("\n").split(",")
    if cells == [""]:
        return None
    if len(cells) != len(header):
        return DataError(f"{csv_path}, line {number}: {len(cells)} cell(s), "
                         f"expected {len(header)}")
    for column, cell in enumerate(cells):
        try:
            value = parse_number(cell)
        except ValueError:
            return DataError(f"{csv_path}, line {number}, column {column + 1} "
                             f"({header[column]}): cannot parse {cell!r} as a number")
        if not math.isfinite(value):
            return DataError(f"{csv_path}, line {number}, column {column + 1} "
                             f"({header[column]}): non-finite draw {cell!r}")
    return None


def load_chain_meta(meta_path) -> ChainMeta:
    """A chain's metadata JSON, as load_chain reads it."""
    meta_dict = read_json(meta_path)
    if not isinstance(meta_dict, dict):
        raise DataError(f"{meta_path} is not a JSON object")
    try:
        return ChainMeta.from_dict(meta_dict)
    except KeyError as exc:
        raise DataError(f"{meta_path}: missing metadata field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{meta_path}: bad metadata value: {exc}") from None


def load_chain(csv_path, meta_path) -> ChainOutput:
    """Reload a persisted chain; floats round-trip exactly.  A cell that is
    not a finite number is a DataError naming its line and column."""
    meta = load_chain_meta(meta_path)
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            header = tuple(fh.readline().strip().split(","))
            if header != parameter_columns(meta):
                raise DataError(f"{csv_path}, line 1: chain CSV columns do not match "
                                f"those of {meta_path}")
            with warnings.catch_warnings():
                # a header-only file is a chain of no draws, checked by callers
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # numpy's C parser rounds correctly: repr text round-trips bit for bit
                draws = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2, comments=None)
    # caught before ValueError, its base class; the header's read decodes a
    # whole chunk of the file, so it can raise one too
    except UnicodeDecodeError:
        raise not_utf8_error(csv_path) from None
    except ValueError as exc:
        raise _chain_parse_error(csv_path, header, exc) from None
    if draws.size == 0:
        draws = np.empty((0, len(header)))
    elif draws.shape[1] != len(header):
        raise _chain_parse_error(csv_path, header, f"rows have {draws.shape[1]} cells")
    elif not np.isfinite(draws).all():
        raise _chain_parse_error(csv_path, header, "a draw is not finite")
    return ChainOutput(draws=draws, columns=header, meta=meta)
