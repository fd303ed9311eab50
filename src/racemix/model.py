"""Model definition: parameter space, priors and exact log densities.

The model explains the natural log of a finish time (minutes) for one
athlete on one course in one season as

    mu = intercept + athlete + course + season
         + gamma_dist * (distance - d_bar)
         [+ lambda_wind * (windspeed - w_bar)]
         + rho_cur * rain_current + rho_prev * rain_previous

with the observed response Normal(mu, 1/tau_obs).  Athlete, course and
season effects are exchangeable Normal deviations with estimated
precisions, and the first level of each factor is pinned to zero so the
remaining levels are identified relative to it.  Rainfall enters through
both the race month and the month before; the two coefficients share a
hyper-mean m_rho, with the previous-month prior mean scaled by a positive
ratio phi.  Rainfall covariates are deliberately left uncentred; distance
and windspeed are centred on d_bar / w_bar.

The log-pace response variant replaces log(time) with log(time/distance).
All densities here are exact and written out longhand so they can serve
as the reference target for the samplers.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, asdict
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import DesignMatrixView

LOG_2PI = math.log(2.0 * math.pi)

RESPONSE_LOG_TIME = "log_time"
RESPONSE_LOG_PACE = "log_pace"
RESPONSES = (RESPONSE_LOG_TIME, RESPONSE_LOG_PACE)


class ConfigError(ValueError):
    """Raised for invalid prior or MCMC configuration."""


def json_number(value, name: str, integer: bool = False):
    """A JSON document's value for a numeric field, as a float (an int if
    `integer`); ConfigError naming the field for a bool, a string or, for
    an integer field, a fraction."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    return int(value) if integer else float(value)


def json_numbers(value, name: str) -> list[float]:
    """A JSON document's array of numbers for a field, as floats;
    ConfigError naming the field for anything but an array of numbers."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be an array of numbers, got {value!r}")
    return [json_number(v, name) for v in value]


def _numeric_fields(cls, d: dict, what: str, integer: bool):
    """A validated `cls` from a JSON object of its numeric fields."""
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    cfg = cls(**{k: json_number(v, f"{what} {k}", integer) for k, v in d.items()})
    cfg.validate()
    return cfg


def normal_logpdf(x: float, mean: float, var: float) -> float:
    """Log density of N(mean, var) at x.  var must be positive."""
    if var <= 0.0:
        raise ValueError(f"normal variance must be positive, got {var}")
    return -0.5 * (LOG_2PI + math.log(var)) - (x - mean) ** 2 / (2.0 * var)


def gamma_logpdf(x: float, shape: float, rate: float) -> float:
    """Log density of Gamma(shape, rate) at x > 0."""
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError(f"gamma shape/rate must be positive, got ({shape}, {rate})")
    if x <= 0.0:
        raise ValueError(f"gamma variate must be positive, got {x}")
    return shape * math.log(rate) - math.lgamma(shape) + (shape - 1.0) * math.log(x) - rate * x


@dataclass
class PriorConfig:
    """Hyperparameters for every prior in the model.

    Defaults are deliberately diffuse: Normal(0, 100) for all fixed-effect
    coefficients and the rainfall hyper-mean, Gamma(0.001, 0.001) for every
    precision, and Gamma(1, 1) for the rainfall carryover ratio phi (the
    shape must not exceed the rate, keeping prior mass on phi below one,
    i.e. on current-month rainfall mattering at least as much as
    previous-month rainfall).
    """

    m_intercept: float = 0.0
    v_intercept: float = 100.0
    m_gamma_dist: float = 0.0
    v_gamma_dist: float = 100.0
    m_lambda_wind: float = 0.0
    v_lambda_wind: float = 100.0
    v_rho_cur: float = 100.0
    v_rho_prev: float = 100.0
    v_m_rho: float = 100.0
    a_phi: float = 1.0
    b_phi: float = 1.0
    a_tau_athlete: float = 0.001
    b_tau_athlete: float = 0.001
    a_tau_course: float = 0.001
    b_tau_course: float = 0.001
    a_tau_season: float = 0.001
    b_tau_season: float = 0.001
    a_tau_obs: float = 0.001
    b_tau_obs: float = 0.001

    def validate(self) -> None:
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"prior {name} must be a finite number, got {value}")
        for name in ("v_intercept", "v_gamma_dist", "v_lambda_wind",
                     "v_rho_cur", "v_rho_prev", "v_m_rho"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"prior variance {name} must be positive")
        for name in ("a_phi", "b_phi",
                     "a_tau_athlete", "b_tau_athlete", "a_tau_course", "b_tau_course",
                     "a_tau_season", "b_tau_season", "a_tau_obs", "b_tau_obs"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"gamma hyperparameter {name} must be positive")
        if self.a_phi > self.b_phi:
            raise ConfigError(
                f"carryover prior requires a_phi <= b_phi, got ({self.a_phi}, {self.b_phi})")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PriorConfig":
        return _numeric_fields(cls, d, "prior", integer=False)


@dataclass
class McmcSchedule:
    """Burn-in / iteration / thinning schedule and the master seed."""

    burn_in: int = 10_000
    iterations: int = 1_000_000
    thin: int = 100
    seed: int = 0

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.burn_in < 0:
            raise ConfigError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thin < 1:
            raise ConfigError(f"thin must be >= 1, got {self.thin}")
        if self.iterations < 1 or self.iterations % self.thin != 0:
            raise ConfigError(
                f"iterations must be a positive multiple of thin, "
                f"got iterations={self.iterations} thin={self.thin}")

    @property
    def n_stored(self) -> int:
        return self.iterations // self.thin

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "McmcSchedule":
        return _numeric_fields(cls, d, "mcmc", integer=True)


@dataclass
class ModelConfig:
    """Everything needed to turn parsed data into a fitted chain.

    d_bar / w_bar override the centering constants; when None the dataset
    means are used and recorded in the fit metadata.
    """

    response: str = RESPONSE_LOG_TIME
    include_windspeed: bool = False
    priors: PriorConfig = field(default_factory=PriorConfig)
    mcmc: McmcSchedule = field(default_factory=McmcSchedule)
    d_bar: float | None = None
    w_bar: float | None = None

    def validate(self) -> None:
        if self.response not in RESPONSES:
            raise ConfigError(f"response must be one of {RESPONSES}, got {self.response!r}")
        for name in ("d_bar", "w_bar"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value}")
        self.priors.validate()
        self.mcmc.validate()

    def to_dict(self) -> dict:
        return {
            "response": self.response,
            "include_windspeed": self.include_windspeed,
            "priors": self.priors.to_dict(),
            "mcmc": self.mcmc.to_dict(),
            "d_bar": self.d_bar,
            "w_bar": self.w_bar,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        unknown = set(d) - {"response", "include_windspeed", "priors", "mcmc", "d_bar", "w_bar"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        d_bar, w_bar = (None if d.get(name) is None else json_number(d[name], name)
                        for name in ("d_bar", "w_bar"))
        include_windspeed = d.get("include_windspeed", False)
        if not isinstance(include_windspeed, bool):
            raise ConfigError(f"include_windspeed must be true or false, "
                              f"got {include_windspeed!r}")
        cfg = cls(
            response=d.get("response", RESPONSE_LOG_TIME),
            include_windspeed=include_windspeed,
            priors=PriorConfig.from_dict(d.get("priors", {})),
            mcmc=McmcSchedule.from_dict(d.get("mcmc", {})),
            d_bar=d_bar, w_bar=w_bar,
        )
        cfg.validate()
        return cfg


@dataclass
class ParameterState:
    """One complete point in parameter space.

    Entry 0 of each effect vector is the corner-constrained baseline and
    must be exactly zero.  lambda_wind is None when the windspeed term is
    excluded from the model.
    """

    intercept: float
    athlete_effects: np.ndarray
    course_effects: np.ndarray
    season_effects: np.ndarray
    gamma_dist: float
    rho_cur: float
    rho_prev: float
    m_rho: float
    phi: float
    tau_obs: float
    tau_athlete: float
    tau_course: float
    tau_season: float
    lambda_wind: float | None = None

    def validate(self) -> None:
        for name in ("tau_obs", "tau_athlete", "tau_course", "tau_season", "phi"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("athlete_effects", "course_effects", "season_effects"):
            vec = getattr(self, name)
            if vec.size and vec[0] != 0.0:
                raise ValueError(f"{name}[0] must be exactly zero, got {vec[0]}")

    def copy(self) -> "ParameterState":
        return ParameterState(
            intercept=self.intercept,
            athlete_effects=self.athlete_effects.copy(),
            course_effects=self.course_effects.copy(),
            season_effects=self.season_effects.copy(),
            gamma_dist=self.gamma_dist,
            rho_cur=self.rho_cur,
            rho_prev=self.rho_prev,
            m_rho=self.m_rho,
            phi=self.phi,
            tau_obs=self.tau_obs,
            tau_athlete=self.tau_athlete,
            tau_course=self.tau_course,
            tau_season=self.tau_season,
            lambda_wind=self.lambda_wind,
        )

    def to_dict(self) -> dict:
        return {
            "intercept": self.intercept,
            "athlete_effects": [float(v) for v in self.athlete_effects],
            "course_effects": [float(v) for v in self.course_effects],
            "season_effects": [float(v) for v in self.season_effects],
            "gamma_dist": self.gamma_dist,
            "rho_cur": self.rho_cur,
            "rho_prev": self.rho_prev,
            "m_rho": self.m_rho,
            "phi": self.phi,
            "tau_obs": self.tau_obs,
            "tau_athlete": self.tau_athlete,
            "tau_course": self.tau_course,
            "tau_season": self.tau_season,
            "lambda_wind": self.lambda_wind,
        }

    @classmethod
    def from_dict(cls, d: dict, what: str = "state") -> "ParameterState":
        """A validated state from a JSON object named `what`; an unknown or
        missing field, a value of the wrong JSON type or an invalid state
        is a ConfigError naming the field."""
        if not isinstance(d, dict):
            raise ConfigError(f"{what} must be a JSON object, got {d!r}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
        vectors = {name: np.array(json_numbers(d.get(name, []), f"{what}.{name}"), dtype=float)
                   for name in ("athlete_effects", "course_effects", "season_effects")}
        scalar_names = ("intercept", "gamma_dist", "rho_cur", "rho_prev", "m_rho",
                        "phi", "tau_obs", "tau_athlete", "tau_course", "tau_season")
        missing = [name for name in scalar_names if name not in d]
        if missing:
            raise ConfigError(f"{what} is missing fields {missing}")
        scalars = {name: json_number(d[name], f"{what}.{name}") for name in scalar_names}
        lam = d.get("lambda_wind")
        state = cls(**vectors, **scalars,
                    lambda_wind=None if lam is None else json_number(lam, f"{what}.lambda_wind"))
        try:
            state.validate()
        except ValueError as exc:
            raise ConfigError(f"{what}: {exc}") from None
        return state


def linear_predictor_all(state: ParameterState, design: "DesignMatrixView") -> np.ndarray:
    """Vector of model means, one per observation."""
    r = design.race_idx
    mu = (state.intercept
          + state.athlete_effects[design.athlete_idx]
          + state.course_effects[design.race_course[r]]
          + state.season_effects[design.race_season[r]]
          + state.gamma_dist * design.race_x_dist[r]
          + state.rho_cur * design.race_rain_cur[r]
          + state.rho_prev * design.race_rain_prev[r])
    if state.lambda_wind is not None:
        mu = mu + state.lambda_wind * design.race_x_wind[r]
    return mu


def log_likelihood(state: ParameterState, design: "DesignMatrixView") -> float:
    """Sum of Normal log densities of the responses given the state."""
    if state.tau_obs <= 0.0:
        raise ValueError(f"tau_obs must be positive, got {state.tau_obs}")
    n = design.y.size
    if n == 0:
        return 0.0
    resid = design.y - linear_predictor_all(state, design)
    return 0.5 * n * (math.log(state.tau_obs) - LOG_2PI) \
        - 0.5 * state.tau_obs * float(resid @ resid)


def log_prior(state: ParameterState, priors: PriorConfig) -> float:
    """Joint log prior density at the state.

    Corner-constrained entries contribute nothing; each free random effect
    contributes a Normal(0, 1/tau_group) term.  The previous-month rainfall
    coefficient is centred on phi * m_rho, which is what couples the two
    rainfall effects a priori.
    """
    state.validate()
    lp = normal_logpdf(state.intercept, priors.m_intercept, priors.v_intercept)
    lp += normal_logpdf(state.gamma_dist, priors.m_gamma_dist, priors.v_gamma_dist)
    if state.lambda_wind is not None:
        lp += normal_logpdf(state.lambda_wind, priors.m_lambda_wind, priors.v_lambda_wind)
    lp += normal_logpdf(state.rho_cur, state.m_rho, priors.v_rho_cur)
    lp += normal_logpdf(state.rho_prev, state.phi * state.m_rho, priors.v_rho_prev)
    lp += normal_logpdf(state.m_rho, 0.0, priors.v_m_rho)
    lp += gamma_logpdf(state.phi, priors.a_phi, priors.b_phi)
    lp += gamma_logpdf(state.tau_obs, priors.a_tau_obs, priors.b_tau_obs)
    lp += gamma_logpdf(state.tau_athlete, priors.a_tau_athlete, priors.b_tau_athlete)
    lp += gamma_logpdf(state.tau_course, priors.a_tau_course, priors.b_tau_course)
    lp += gamma_logpdf(state.tau_season, priors.a_tau_season, priors.b_tau_season)
    for vec, tau in ((state.athlete_effects, state.tau_athlete),
                     (state.course_effects, state.tau_course),
                     (state.season_effects, state.tau_season)):
        free = vec[1:]
        k = free.size
        if k:
            lp += 0.5 * k * (math.log(tau) - LOG_2PI) - 0.5 * tau * float(free @ free)
    return lp


def log_posterior(state: ParameterState, design: "DesignMatrixView",
                  priors: PriorConfig) -> float:
    """Unnormalised log posterior: likelihood plus prior."""
    return log_likelihood(state, design) + log_prior(state, priors)
