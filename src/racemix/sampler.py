"""MCMC engine: one exact Gaussian block for the locations, then Gibbs and slice.

Every covariate except the athlete is constant within a race, so the
race-level location parameters beta = (intercept, gamma_dist,
lambda_wind when fitted, rho_cur, rho_prev, course[1:], season[1:])
enter the likelihood only through the R distinct races.  Given the
precisions, m_rho and phi, beta and the free athlete effects are jointly
Gaussian.  A sweep visits, in order:

1. the location block: beta from its conditional with the free athletes
   integrated out (one Cholesky factorisation of a p x p precision built
   from race-level statistics), then the athletes given beta;
2. the rainfall hyper-mean m_rho (Normal) and the carryover ratio phi,
   whose conditional is nonstandard and is updated by slice sampling with
   stepping out and shrinkage;
3. the athlete, course, season and observation precisions (Gamma), the
   last from the residual sum of squares recomputed from the new state.

The race-level statistics are built once per chain (LocationBlock), and
no residual vector is carried between sweeps.  Drawing beta and the
athletes together removes the strong posterior correlations between the
intercept, the uncentred rainfall coefficients and the athlete effects
that single-site updates mix slowly through.  Chains are deterministic
given a seed; independent chains get SeedSequence-spawned child seeds,
recorded in each chain's metadata so any one chain can be replayed alone.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, asdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .ingest import DataError, DesignMatrixView
from .model import ModelConfig, ParameterState
# not called by the sweep; perfbench/tracing.py wraps it by this name here
from .model import linear_predictor_all  # noqa: F401

SLICE_WIDTH = 0.5
SLICE_MAX_STEPS = 50

# smallest positive normal float64; floor for underflowing Gamma draws
TINY_PRECISION = float(np.finfo(float).tiny)

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


def gibbs_random_effect(level_residual_sums, level_counts, tau_obs, tau_group, rng) -> np.ndarray:
    """Draw a whole random-effect block; entry 0 stays exactly zero.

    level_residual_sums[l] is the sum, over that level's observations, of
    residuals excluding this block's contribution.  Levels with no data
    are drawn from the N(0, 1/tau_group) population.
    """
    if tau_obs <= 0.0 or tau_group <= 0.0:
        raise SamplerError(f"precisions must be positive, got "
                           f"tau_obs={tau_obs} tau_group={tau_group}")
    prec = tau_obs * np.asarray(level_counts, dtype=float) + tau_group
    mean = tau_obs * np.asarray(level_residual_sums, dtype=float) / prec
    draw = mean + rng.standard_normal(prec.size) / np.sqrt(prec)
    draw[0] = 0.0
    return draw


def gibbs_precision(shape, rate, sum_squares, n_free, rng) -> float:
    """Draw a precision from its Gamma full conditional.

    n_free excludes corner-constrained entries; for the observation
    precision it is the number of observations and sum_squares the
    residual sum of squares.
    """
    if shape <= 0.0 or rate <= 0.0:
        raise SamplerError(f"gamma shape/rate must be positive, got ({shape}, {rate})")
    if sum_squares < 0.0 or n_free < 0:
        raise SamplerError(f"invalid update inputs: sum_squares={sum_squares} n_free={n_free}")
    draw = rng.gamma(shape + 0.5 * n_free, 1.0 / (rate + 0.5 * sum_squares))
    # with no free levels the conditional is the diffuse prior, whose
    # tiny-shape draws can underflow float64 to exactly 0; clamp to keep
    # the positivity invariant (anything below tiny is unrepresentable)
    return max(draw, TINY_PRECISION)


def gibbs_hypermean(rho_cur, rho_prev, phi, v_rho_cur, v_rho_prev, v_m, rng) -> float:
    """Draw the rainfall hyper-mean from its Normal full conditional.

    Both rainfall coefficients inform it: the current-month one directly,
    the previous-month one through the phi-scaled prior mean.
    """
    if v_rho_cur <= 0.0 or v_rho_prev <= 0.0 or v_m <= 0.0:
        raise SamplerError("variances must be positive")
    prec = 1.0 / v_m + 1.0 / v_rho_cur + phi * phi / v_rho_prev
    mean = (rho_cur / v_rho_cur + phi * rho_prev / v_rho_prev) / prec
    return mean + rng.standard_normal() / math.sqrt(prec)


def phi_log_target(phi, rho_prev, m_rho, v_rho_prev, a_phi, b_phi) -> float:
    """Unnormalised log conditional for the rainfall carryover ratio."""
    if phi <= 0.0:
        return -math.inf
    return ((a_phi - 1.0) * math.log(phi) - b_phi * phi
            - (rho_prev - phi * m_rho) ** 2 / (2.0 * v_rho_prev))


def slice_update_phi(phi_current, rho_prev, m_rho, v_rho_prev, a_phi, b_phi, rng,
                     width=SLICE_WIDTH, max_steps=SLICE_MAX_STEPS) -> float:
    """One slice-sampling update of phi: stepping out, then shrinkage.

    The interval is clamped at zero on the left (the target has no mass
    there).  Failing to bracket the slice within max_steps step-outs is an
    error carrying the full conditioning state.
    """
    if phi_current <= 0.0:
        raise SamplerError(f"phi must be positive, got {phi_current}")

    def logf(p):
        return phi_log_target(p, rho_prev, m_rho, v_rho_prev, a_phi, b_phi)

    log_y = logf(phi_current) - rng.exponential()

    u = rng.random()
    left = phi_current - width * u
    right = left + width
    steps = 0
    while left > 0.0 and logf(left) > log_y:
        left -= width
        steps += 1
        if steps > max_steps:
            raise SamplerError(
                f"slice bracket failure (left) after {max_steps} step-outs: "
                f"phi={phi_current} rho_prev={rho_prev} m_rho={m_rho} "
                f"v_rho_prev={v_rho_prev} a_phi={a_phi} b_phi={b_phi}")
    left = max(left, 0.0)
    steps = 0
    while logf(right) > log_y:
        right += width
        steps += 1
        if steps > max_steps:
            raise SamplerError(
                f"slice bracket failure (right) after {max_steps} step-outs: "
                f"phi={phi_current} rho_prev={rho_prev} m_rho={m_rho} "
                f"v_rho_prev={v_rho_prev} a_phi={a_phi} b_phi={b_phi}")

    for _ in range(10_000):
        prop = left + rng.random() * (right - left)
        if logf(prop) >= log_y:
            return prop
        if prop < phi_current:
            left = prop
        else:
            right = prop
    raise SamplerError(f"slice shrinkage failed to accept near phi={phi_current}")


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
    moments of [G | S_ya].  Q and b are therefore one fixed basis
    (`basis`) times a short coefficient vector, built in O(R p^2) whatever
    the number of observations or athletes.

    The basis is kept in units of the columns' weighted norms sqrt(X'NX),
    so Q is well scaled however different the covariates' scales are
    (rainfall in mm against indicators); `unit` converts back.
    """

    def __init__(self, design: DesignMatrixView, config: ModelConfig):
        pr = config.priors
        la = len(design.athletes)
        lc, ls = len(design.courses), len(design.seasons)
        covariates = [design.x_dist] + ([design.x_wind] if config.include_windspeed else [])
        covariates = np.column_stack(covariates + [design.rain_cur, design.rain_prev])
        keys, first, race_idx = np.unique(design.course_idx * ls + design.season_idx,
                                          return_index=True, return_inverse=True)
        self.race_idx = race_idx
        if not np.array_equal(covariates, covariates[first][race_idx]):
            raise DataError("race covariates differ between observations of one race")
        n_races = keys.size
        course = np.eye(lc)[keys // ls, 1:]
        season = np.eye(ls)[keys % ls, 1:]
        self.x = np.column_stack([np.ones(n_races), covariates[first], course, season])
        k = 1 + covariates.shape[1]  # first course[1:] column
        self.scalars = _scalar_columns(config.include_windspeed)[:k]
        self.course = slice(k, k + lc - 1)
        self.season = slice(k + lc - 1, self.x.shape[1])
        p = self.x.shape[1]

        race_n = np.bincount(self.race_idx, minlength=n_races).astype(float)
        race_y = np.bincount(self.race_idx, weights=design.y, minlength=n_races)
        athlete_race = np.bincount(design.athlete_idx * n_races + self.race_idx,
                                   minlength=la * n_races).reshape(la, n_races)  # M'
        self.g = athlete_race @ self.x
        self.n_a = athlete_race.sum(axis=1).astype(float)
        self.s_ya = np.bincount(design.athlete_idx, weights=design.y, minlength=la)

        # each basis matrix is (p + 1) x (p + 1): Q in [:p, :p], b in [p, :p]
        x1 = np.column_stack([self.x, np.zeros(n_races)])
        data = x1.T @ (race_n[:, None] * x1)  # coefficient tau
        data[p] = x1.T @ race_y
        # coefficient -w^2 for each distinct count of the free athletes
        self.distinct_counts, group = np.unique(self.n_a[1:], return_inverse=True)
        stats = np.column_stack([self.g, self.s_ya])[1:]
        moments = [stats[group == j].T @ stats[group == j]
                   for j in range(self.distinct_counts.size)]
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
        levels = np.arange(p)
        prior[1, levels[self.course], levels[self.course]] = 1.0
        prior[2, levels[self.season], levels[self.season]] = 1.0
        basis = np.concatenate([[data], -np.array(moments).reshape(-1, p + 1, p + 1), prior])
        norms = np.sqrt(data.diagonal()[:p])
        self.unit = 1.0 / np.where(norms > 0.0, norms, 1.0)
        unit = np.append(self.unit, 1.0)
        self.basis = (basis * unit[:, None] * unit).reshape(basis.shape[0], -1)

    def precision(self, state: ParameterState) -> tuple[np.ndarray, np.ndarray]:
        """Q and b of the conditional N(Q^-1 b, Q^-1) of beta / unit.

        The free athletes are integrated out.  In beta's own units these
        are Q / (unit unit') and b / unit.
        """
        tau = state.tau_obs
        coef = np.concatenate((
            [tau], tau * tau / (tau * self.distinct_counts + state.tau_athlete),
            [1.0, state.tau_course, state.tau_season, state.m_rho, state.phi * state.m_rho]))
        p = self.x.shape[1]
        qb = (coef @ self.basis).reshape(p + 1, p + 1)
        return qb[:p, :p], qb[p, :p]

    def draw(self, state: ParameterState, rng) -> np.ndarray:
        """Redraw beta and the athlete effects of `state` jointly; returns X beta.

        beta = Q^-1 (b + L z) with L L' = Q is N(Q^-1 b, Q^-1): one
        Cholesky factorisation and one solve, in the scaled units.  The
        athletes are then drawn from their conditional given beta.
        """
        q, b = self.precision(state)
        try:
            if not q.diagonal().min() > 0.0:  # NaN included
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            chol = np.linalg.cholesky(q)
            beta = self.unit * np.linalg.solve(q, b + chol @ rng.standard_normal(b.size))
        except np.linalg.LinAlgError as exc:
            raise SamplerError(
                f"location block precision is not positive definite ({exc}) at "
                f"tau_obs={state.tau_obs!r} tau_athlete={state.tau_athlete!r} "
                f"tau_course={state.tau_course!r} tau_season={state.tau_season!r}") from exc
        for name, value in zip(self.scalars, beta.tolist()):
            setattr(state, name, value)
        state.course_effects[1:] = beta[self.course]
        state.season_effects[1:] = beta[self.season]
        state.athlete_effects = gibbs_random_effect(self.s_ya - self.g @ beta, self.n_a,
                                                    state.tau_obs, state.tau_athlete, rng)
        return self.x @ beta


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
        entropy, spawn_key = d.get("seed_entropy"), d.get("seed_spawn_key")
        return cls(
            seed=int(d["seed"]), burn_in=int(d["burn_in"]),
            iterations=int(d["iterations"]), thin=int(d["thin"]),
            response=d["response"], include_windspeed=bool(d["include_windspeed"]),
            d_bar=float(d["d_bar"]), w_bar=float(d["w_bar"]),
            athletes=tuple(d["athletes"]), courses=tuple(d["courses"]),
            seasons=tuple(d["seasons"]), version=d.get("version", "unknown"),
            seed_entropy=None if entropy is None else int(entropy),
            seed_spawn_key=None if spawn_key is None else tuple(int(k) for k in spawn_key))


@functools.cache  # state_row runs once per stored draw
def _scalar_columns(include_windspeed: bool) -> tuple[str, ...]:
    return tuple(name for name in SCALAR_COLUMNS
                 if include_windspeed or name != "lambda_wind")


def _block_slices(meta: ChainMeta) -> dict[str, slice]:
    """Where each effect block sits in a draws row."""
    slices = {}
    start = len(_scalar_columns(meta.include_windspeed))
    for block in EFFECT_BLOCKS:
        stop = start + len(getattr(meta, f"{block}s"))
        slices[block] = slice(start, stop)
        start = stop
    return slices


def parameter_columns(meta: ChainMeta) -> tuple[str, ...]:
    """Column names for the draws matrix, constrained levels included."""
    return _scalar_columns(meta.include_windspeed) + tuple(
        f"{block}[{level}]" for block in EFFECT_BLOCKS
        for level in getattr(meta, f"{block}s"))


def state_row(state: ParameterState) -> np.ndarray:
    """`state` as one draws row, in parameter_columns order."""
    scalars = [getattr(state, name)
               for name in _scalar_columns(state.lambda_wind is not None)]
    return np.concatenate([scalars] + [getattr(state, f"{block}_effects")
                                       for block in EFFECT_BLOCKS])


@dataclass
class ChainOutput:
    """Thinned post-burn-in draws plus the metadata needed to reuse them."""

    draws: np.ndarray  # (n_stored, n_params)
    columns: tuple[str, ...]
    meta: ChainMeta
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
        return self.draws[:, _block_slices(self.meta)[block]]

    def _unpack(self, row: np.ndarray) -> ParameterState:
        names = _scalar_columns(self.meta.include_windspeed)
        return ParameterState(
            **{name: float(v) for name, v in zip(names, row)},
            **{f"{block}_effects": row[where].copy()
               for block, where in _block_slices(self.meta).items()})

    def state_at(self, i: int) -> ParameterState:
        return self._unpack(self.draws[i])

    def posterior_mean_state(self) -> ParameterState:
        """Componentwise posterior mean as a ParameterState.

        Constrained entries stay exactly zero; positivity of the averaged
        precisions and phi is automatic.
        """
        return self._unpack(self.draws.mean(axis=0))


def run_chain(design: DesignMatrixView, config: ModelConfig, rng_seed=None) -> ChainOutput:
    """Run one full chain and return the thinned post-burn-in draws.

    rng_seed may be an int or a numpy SeedSequence; by default the
    schedule's seed is used.  Identical seeds give bit-identical output.
    """
    config.validate()
    if design.n_obs == 0:
        raise SamplerError("cannot fit an empty design")

    pr = config.priors
    sched = config.mcmc
    seed_seq = (rng_seed if isinstance(rng_seed, np.random.SeedSequence)
                else np.random.SeedSequence(sched.seed if rng_seed is None else rng_seed))
    rng = np.random.default_rng(seed_seq)

    y = design.y
    n = y.size
    a_idx = design.athlete_idx
    la, lc, ls = len(design.athletes), len(design.courses), len(design.seasons)
    block = LocationBlock(design, config)

    # deterministic start; the first block draw replaces every location value
    state = ParameterState(
        intercept=0.0, athlete_effects=np.zeros(la),
        course_effects=np.zeros(lc), season_effects=np.zeros(ls),
        gamma_dist=0.0, rho_cur=0.0, rho_prev=0.0, m_rho=0.0, phi=pr.a_phi / pr.b_phi,
        tau_obs=1.0, tau_athlete=1.0, tau_course=1.0, tau_season=1.0,
        lambda_wind=0.0 if config.include_windspeed else None)

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
    row = 0

    try:
        for sweep in range(1, total + 1):
            race_means = block.draw(state, rng)

            state.m_rho = gibbs_hypermean(state.rho_cur, state.rho_prev, state.phi,
                                          pr.v_rho_cur, pr.v_rho_prev, pr.v_m_rho, rng)
            state.phi = slice_update_phi(state.phi, state.rho_prev, state.m_rho,
                                         pr.v_rho_prev, pr.a_phi, pr.b_phi, rng)

            a_free = state.athlete_effects[1:]
            c_free = state.course_effects[1:]
            s_free = state.season_effects[1:]
            state.tau_athlete = gibbs_precision(pr.a_tau_athlete, pr.b_tau_athlete,
                                                float(a_free @ a_free), la - 1, rng)
            state.tau_course = gibbs_precision(pr.a_tau_course, pr.b_tau_course,
                                               float(c_free @ c_free), lc - 1, rng)
            state.tau_season = gibbs_precision(pr.a_tau_season, pr.b_tau_season,
                                               float(s_free @ s_free), ls - 1, rng)
            e = y - state.athlete_effects[a_idx] - race_means[block.race_idx]
            state.tau_obs = gibbs_precision(pr.a_tau_obs, pr.b_tau_obs, float(e @ e), n, rng)

            if sweep > sched.burn_in and (sweep - sched.burn_in) % sched.thin == 0:
                draws[row] = state_row(state)
                row += 1
    except SamplerError as exc:
        raise SamplerError(f"sweep {sweep}: {exc}") from exc

    return ChainOutput(draws=draws, columns=columns, meta=meta)


def _chain_worker(args):
    design, config, seed_seq = args
    return run_chain(design, config, rng_seed=seed_seq)


def spawn_chain_seeds(seed: int, n_chains: int):
    """Deterministic per-chain seeds: SeedSequence(seed).spawn(n_chains)."""
    return np.random.SeedSequence(seed).spawn(n_chains)


def run_chains(design: DesignMatrixView, config: ModelConfig, n_chains: int,
               max_workers: int | None = None) -> list[ChainOutput]:
    """Run n_chains independent chains, concurrently when workers allow.

    Chain i uses the i-th SeedSequence child of the schedule seed, so
    results do not depend on the worker count.
    """
    if n_chains < 1:
        raise SamplerError(f"n_chains must be >= 1, got {n_chains}")
    seeds = spawn_chain_seeds(config.mcmc.seed, n_chains)
    if n_chains == 1 or max_workers == 1:
        return [run_chain(design, config, rng_seed=ss) for ss in seeds]
    jobs = [(design, config, ss) for ss in seeds]
    with ProcessPoolExecutor(max_workers=max_workers or n_chains) as pool:
        return list(pool.map(_chain_worker, jobs))


def save_chain(chain: ChainOutput, csv_path, meta_path) -> None:
    """Write draws as CSV (exact shortest-repr floats) and metadata JSON."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(chain.columns) + "\n")
        for r in range(chain.n_stored):
            # repr of the Python float: shortest round-trip representation
            fh.write(",".join(repr(float(v)) for v in chain.draws[r]) + "\n")
    meta = chain.meta.to_dict()
    meta["columns"] = list(chain.columns)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_chain(csv_path, meta_path) -> ChainOutput:
    """Reload a persisted chain; floats round-trip exactly."""
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta_dict = json.load(fh)
    try:
        meta = ChainMeta.from_dict(meta_dict)
    except KeyError as exc:
        raise DataError(f"{meta_path}: missing metadata field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{meta_path}: bad metadata value: {exc}") from None
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            rows = [[float(cell) for cell in line.rstrip("\n").split(",")]
                    for line in fh if line.strip()]
            draws = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
        except ValueError as exc:
            raise DataError(f"{csv_path}: {exc}") from None
    if tuple(header) != parameter_columns(meta):
        raise DataError(f"{csv_path}: chain CSV columns do not match metadata")
    return ChainOutput(draws=draws, columns=tuple(header), meta=meta)
