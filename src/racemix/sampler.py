"""MCMC engine: conjugate Gibbs updates plus slice sampling for phi.

Every parameter except the rainfall carryover ratio phi has a closed-form
Normal or Gamma full conditional, so a sweep is almost entirely direct
Gibbs draws.  phi's conditional (gamma prior kernel times the Normal
likelihood of the previous-month rainfall coefficient) is nonstandard and
is updated by slice sampling with stepping out and shrinkage.

A sweep visits, in order: intercept, fixed effects (distance, windspeed
when enabled, current rainfall, previous rainfall), the athlete, course
and season blocks, the rainfall hyper-mean, phi, and finally the four
precisions with the observation precision last.  Sweep order does not
affect the stationary distribution; this one just groups the cheap scalar
refreshes together.

Residuals are carried incrementally through the sweep and recomputed from
scratch every RESIDUAL_REFRESH sweeps to bound floating-point drift.
Chains are deterministic given a seed; independent chains get
SeedSequence-spawned child seeds.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, asdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .ingest import DesignMatrixView
from .model import ModelConfig, ParameterState, linear_predictor_all

RESIDUAL_REFRESH = 1000
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

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("athletes", "courses", "seasons"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ChainMeta":
        return cls(
            seed=int(d["seed"]), burn_in=int(d["burn_in"]),
            iterations=int(d["iterations"]), thin=int(d["thin"]),
            response=d["response"], include_windspeed=bool(d["include_windspeed"]),
            d_bar=float(d["d_bar"]), w_bar=float(d["w_bar"]),
            athletes=tuple(d["athletes"]), courses=tuple(d["courses"]),
            seasons=tuple(d["seasons"]), version=d.get("version", "unknown"))


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
    seed = sched.seed if rng_seed is None else rng_seed
    rng = np.random.default_rng(seed)

    y = design.y
    n = y.size
    a_idx = design.athlete_idx
    c_idx = design.course_idx
    s_idx = design.season_idx
    la, lc, ls = len(design.athletes), len(design.courses), len(design.seasons)
    n_a = np.bincount(a_idx, minlength=la).astype(float)
    n_c = np.bincount(c_idx, minlength=lc).astype(float)
    n_s = np.bincount(s_idx, minlength=ls).astype(float)
    ones = np.ones(n)
    xd = design.x_dist
    xw = design.x_wind
    rc = design.rain_cur
    rp = design.rain_prev
    use_wind = config.include_windspeed

    # deterministic start: data mean intercept, everything else flat
    intercept = float(np.mean(y))
    gamma = 0.0
    lam_w = 0.0 if use_wind else None
    rho_c = 0.0
    rho_p = 0.0
    m_rho = 0.0
    phi = pr.a_phi / pr.b_phi
    tau = tau_a = tau_c = tau_s = 1.0
    a_eff = np.zeros(la)
    c_eff = np.zeros(lc)
    s_eff = np.zeros(ls)

    def current_state():
        return ParameterState(
            intercept=intercept, athlete_effects=a_eff, course_effects=c_eff,
            season_effects=s_eff, gamma_dist=gamma, rho_cur=rho_c, rho_prev=rho_p,
            m_rho=m_rho, phi=phi, tau_obs=tau, tau_athlete=tau_a,
            tau_course=tau_c, tau_season=tau_s, lambda_wind=lam_w)

    e = y - linear_predictor_all(current_state(), design)

    total = sched.burn_in + sched.iterations
    n_stored = sched.n_stored
    meta = ChainMeta(
        seed=int(seed) if isinstance(seed, (int, np.integer)) else sched.seed,
        burn_in=sched.burn_in, iterations=sched.iterations, thin=sched.thin,
        response=design.response, include_windspeed=use_wind,
        d_bar=design.d_bar, w_bar=design.w_bar,
        athletes=design.athletes, courses=design.courses, seasons=design.seasons)
    columns = parameter_columns(meta)
    draws = np.empty((n_stored, len(columns)))
    row = 0

    try:
        for sweep in range(1, total + 1):
            if sweep % RESIDUAL_REFRESH == 0:
                e = y - linear_predictor_all(current_state(), design)

            e += intercept
            intercept = gibbs_scalar_normal(pr.m_intercept, pr.v_intercept,
                                            ones, e, tau, rng)
            e -= intercept

            e += gamma * xd
            gamma = gibbs_scalar_normal(pr.m_gamma_dist, pr.v_gamma_dist,
                                        xd, e, tau, rng)
            e -= gamma * xd

            if use_wind:
                e += lam_w * xw
                lam_w = gibbs_scalar_normal(pr.m_lambda_wind, pr.v_lambda_wind,
                                            xw, e, tau, rng)
                e -= lam_w * xw

            e += rho_c * rc
            rho_c = gibbs_scalar_normal(m_rho, pr.v_rho_cur, rc, e, tau, rng)
            e -= rho_c * rc

            e += rho_p * rp
            rho_p = gibbs_scalar_normal(phi * m_rho, pr.v_rho_prev, rp, e, tau, rng)
            e -= rho_p * rp

            e += a_eff[a_idx]
            sums = np.bincount(a_idx, weights=e, minlength=la)
            a_eff = gibbs_random_effect(sums, n_a, tau, tau_a, rng)
            e -= a_eff[a_idx]

            e += c_eff[c_idx]
            sums = np.bincount(c_idx, weights=e, minlength=lc)
            c_eff = gibbs_random_effect(sums, n_c, tau, tau_c, rng)
            e -= c_eff[c_idx]

            e += s_eff[s_idx]
            sums = np.bincount(s_idx, weights=e, minlength=ls)
            s_eff = gibbs_random_effect(sums, n_s, tau, tau_s, rng)
            e -= s_eff[s_idx]

            m_rho = gibbs_hypermean(rho_c, rho_p, phi,
                                    pr.v_rho_cur, pr.v_rho_prev, pr.v_m_rho, rng)
            phi = slice_update_phi(phi, rho_p, m_rho, pr.v_rho_prev,
                                   pr.a_phi, pr.b_phi, rng)

            tau_a = gibbs_precision(pr.a_tau_athlete, pr.b_tau_athlete,
                                    float(a_eff[1:] @ a_eff[1:]), la - 1, rng)
            tau_c = gibbs_precision(pr.a_tau_course, pr.b_tau_course,
                                    float(c_eff[1:] @ c_eff[1:]), lc - 1, rng)
            tau_s = gibbs_precision(pr.a_tau_season, pr.b_tau_season,
                                    float(s_eff[1:] @ s_eff[1:]), ls - 1, rng)
            tau = gibbs_precision(pr.a_tau_obs, pr.b_tau_obs,
                                  float(e @ e), n, rng)

            if sweep > sched.burn_in and (sweep - sched.burn_in) % sched.thin == 0:
                draws[row] = state_row(current_state())
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
    meta = ChainMeta.from_dict(meta_dict)
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(cell) for cell in line.rstrip("\n").split(",")]
                for line in fh if line.strip()]
    draws = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    expected = parameter_columns(meta)
    if tuple(header) != expected:
        raise SamplerError("chain CSV columns do not match metadata")
    return ChainOutput(draws=draws, columns=tuple(header), meta=meta)
