"""Generative machinery: synthetic data, posterior prediction, conversions.

simulate_dataset runs the model forward from a known parameter state to
produce CSV-shaped race data, which is the parameter-recovery oracle for
the sampler.  posterior_predictive_race replays fitted draws through the
likelihood to predict a race's field, and ppc_report compares predicted
and observed five-number summaries per race.  effect_on_time converts a
log-scale coefficient into seconds at a given base finish time.

A race's field shares every term of the linear predictor but the athlete
effect, so each draw's mean is one race-level offset plus the athletes'
effects.  ppc_report sorts each draw's field once: its end columns give
the histogram's span, and the mean over draws of the sorted fields gives
the predicted five-number summary.  A type-7 quantile of a sorted field
is a fixed linear combination of two of its order statistics, so the
quantile of that mean field is the mean of the draws' quantiles, up to
rounding.  Predictive noise is generated in fixed-size chunks with
per-chunk child generators, so results are reproducible no matter how
the chunks are scheduled.  ppc_report simulates its races on a thread
pool of one thread per usable CPU; each race draws from its own spawned
child generator, so the reports do not depend on the thread count.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .ingest import (
    DataError,
    RaceContext,
    RaceObservation,
    RACES_HEADER,
    RAINFALL_HEADER,
    RESULTS_HEADER,
    BASELINE_COURSE,
    format_month,
    parse_month,
    previous_month,
)
from .model import (
    RESPONSE_LOG_PACE,
    RESPONSE_LOG_TIME,
    ConfigError,
    ParameterState,
    json_number,
    json_numbers,
)
from .sampler import ChainOutput

PPC_CHUNK = 2048

FIVE_NUMBER_QS = (0.0, 0.25, 0.5, 0.75, 1.0)

### synthetic data


def _default_truth() -> ParameterState:
    """Plausible league-scale truth; effect vectors drawn at simulate time."""
    return ParameterState(
        intercept=3.85,  # exp(3.85) ~ 47 min
        athlete_effects=np.empty(0),
        course_effects=np.empty(0),
        season_effects=np.empty(0),
        gamma_dist=0.224,
        rho_cur=0.0012,
        rho_prev=0.0008,
        m_rho=0.001,
        phi=0.8,
        tau_obs=400.0,     # 5% race-to-race noise on the log scale
        tau_athlete=25.0,  # sd 0.2 across athletes
        tau_course=150.0,
        tau_season=2500.0,
        lambda_wind=None,
    )


@dataclass
class SyntheticSpec:
    """Recipe for a synthetic dataset.

    `truth` supplies the generating scalars.  Its effect vectors may be
    empty, in which case simulate_dataset draws them from their Normal
    populations (seeded); full-length vectors are used exactly as given.
    If mean_finishers >= n_athletes every athlete runs every race,
    otherwise field sizes are Poisson(mean_finishers) clipped to
    [1, n_athletes].
    """

    n_athletes: int = 200
    n_courses: int = 8
    n_seasons: int = 5
    n_races: int = 15
    mean_finishers: int = 167
    truth: ParameterState = field(default_factory=_default_truth)
    distance_range: tuple[float, float] = (5.9, 6.4)
    windspeed_range: tuple[float, float] = (0.0, 20.0)
    rainfall_range: tuple[float, float] = (10.0, 120.0)
    seed: int = 0
    sex: str = "M"
    response: str = RESPONSE_LOG_TIME

    def validate(self) -> None:
        for name in ("n_athletes", "n_courses", "n_seasons", "n_races",
                     "mean_finishers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_races > self.n_courses * self.n_seasons:
            raise ConfigError(
                f"n_races={self.n_races} exceeds the {self.n_courses}x"
                f"{self.n_seasons} distinct (course, season) pairs")
        if self.n_seasons > 80:
            raise ConfigError("season labels support at most 80 seasons")
        for name in ("distance_range", "windspeed_range", "rainfall_range"):
            if len(getattr(self, name)) != 2:
                raise ConfigError(f"{name} must be a (low, high) pair")
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ConfigError(f"bad {name}: ({lo}, {hi})")
        if self.distance_range[0] <= 0.0:
            raise ConfigError("distances must be positive")
        if self.windspeed_range[0] < 0.0 or self.rainfall_range[0] < 0.0:
            raise ConfigError("windspeed and rainfall must be nonnegative")
        if self.response not in (RESPONSE_LOG_TIME, RESPONSE_LOG_PACE):
            raise ConfigError(f"unknown response {self.response!r}")
        if self.sex not in ("M", "F"):
            raise ConfigError(f"sex must be M or F, got {self.sex!r}")
        try:
            self.truth.validate()
        except ValueError as exc:
            raise ConfigError(f"truth: {exc}") from None
        for name, want in (("athlete_effects", self.n_athletes),
                           ("course_effects", self.n_courses),
                           ("season_effects", self.n_seasons)):
            vec = getattr(self.truth, name)
            if vec.size not in (0, want):
                raise ConfigError(f"truth.{name} must be empty or length {want}, "
                                  f"got {vec.size}")

    def to_dict(self) -> dict:
        return {
            "n_athletes": self.n_athletes, "n_courses": self.n_courses,
            "n_seasons": self.n_seasons, "n_races": self.n_races,
            "mean_finishers": self.mean_finishers,
            "truth": self.truth.to_dict(),
            "distance_range": list(self.distance_range),
            "windspeed_range": list(self.windspeed_range),
            "rainfall_range": list(self.rainfall_range),
            "seed": self.seed, "sex": self.sex, "response": self.response,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        """A validated spec from a JSON object; fields left out keep their
        defaults.  The `*_range` pairs are arrays of numbers and `truth` is
        an object of every ParameterState field but the optional effect
        vectors and lambda_wind.  An unknown field or a value of the wrong
        JSON type, here or in `truth`, is a ConfigError naming the field."""
        if not isinstance(d, dict):
            raise ConfigError("spec must be a JSON object")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown spec fields: {sorted(unknown)}")
        values = dict(d)
        for name in ("n_athletes", "n_courses", "n_seasons", "n_races",
                     "mean_finishers", "seed"):
            if name in values:
                values[name] = json_number(values[name], name, integer=True)
        for name in ("distance_range", "windspeed_range", "rainfall_range"):
            if name in values:
                values[name] = tuple(json_numbers(values[name], name))
        if "truth" in values:
            values["truth"] = ParameterState.from_dict(values["truth"], "truth")
        spec = cls(**values)
        spec.validate()
        return spec


@dataclass
class SimulatedData:
    """A synthetic dataset plus the state that generated it."""

    observations: list[RaceObservation]
    contexts: list[RaceContext]
    rainfall: dict[str, float]
    truth: ParameterState
    sex: str
    response: str

    def write_csv(self, directory) -> list[str]:
        """Write results/races/rainfall CSVs in the ingest schemas.

        Returns the file names written.  Byte-identical for equal inputs.
        """
        os.makedirs(directory, exist_ok=True)
        results = os.path.join(directory, "results.csv")
        with open(results, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(RESULTS_HEADER) + "\n")
            for o in self.observations:
                fh.write(f"{o.athlete_id},{o.course},{o.season},{self.sex},"
                         f"{repr(o.finish_time)},{o.race_month}\n")
        races = os.path.join(directory, "races.csv")
        with open(races, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(RACES_HEADER) + "\n")
            for c in self.contexts:
                fh.write(f"{c.course},{c.season},{repr(c.distance)},"
                         f"{repr(c.windspeed)},{c.race_month}\n")
        rain = os.path.join(directory, "rainfall.csv")
        with open(rain, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(RAINFALL_HEADER) + "\n")
            for month in sorted(self.rainfall):
                fh.write(f"{month},{repr(self.rainfall[month])}\n")
        return ["results.csv", "races.csv", "rainfall.csv"]


def _race_pairs(n_courses: int, n_seasons: int, n_races: int) -> list[tuple[int, int]]:
    """Distinct (course, season) index pairs spreading races over both."""
    pairs = []
    taken = set()
    r = 0
    # diagonal walk hits every course and season as evenly as possible
    while len(pairs) < n_races and r < n_courses * n_seasons:
        p = (r % n_courses, r % n_seasons)
        if p not in taken:
            taken.add(p)
            pairs.append(p)
        r += 1
    if len(pairs) < n_races:
        for ci in range(n_courses):
            for si in range(n_seasons):
                if (ci, si) not in taken:
                    taken.add((ci, si))
                    pairs.append((ci, si))
                    if len(pairs) == n_races:
                        return pairs
    return pairs


def _add_months(year: int, month: int, k: int) -> tuple[int, int]:
    total = (year * 12 + (month - 1)) + k
    return total // 12, total % 12 + 1


def simulate_dataset(spec: SyntheticSpec) -> SimulatedData:
    """Run the model forward from `spec` into CSV-shaped race data.

    Seasons start in October; each season's fixtures occupy consecutive
    months.  Rainfall covers the contiguous span from one month before
    the first fixture to the last, so ingest always finds the carryover
    month.  Deterministic given spec.seed.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    truth = spec.truth.copy()

    if truth.athlete_effects.size == 0:
        eff = rng.standard_normal(spec.n_athletes) / math.sqrt(truth.tau_athlete)
        eff[0] = 0.0
        truth.athlete_effects = eff
    if truth.course_effects.size == 0:
        eff = rng.standard_normal(spec.n_courses) / math.sqrt(truth.tau_course)
        eff[0] = 0.0
        truth.course_effects = eff
    if truth.season_effects.size == 0:
        eff = rng.standard_normal(spec.n_seasons) / math.sqrt(truth.tau_season)
        eff[0] = 0.0
        truth.season_effects = eff

    athletes = [f"A{i:05d}" for i in range(spec.n_athletes)]
    courses = [BASELINE_COURSE] + [f"Course{i:03d}" for i in range(1, spec.n_courses)]
    seasons = [f"{17 + k:02d}/{18 + k:02d}" for k in range(spec.n_seasons)]

    pairs = _race_pairs(spec.n_courses, spec.n_seasons, spec.n_races)
    distances = rng.uniform(*spec.distance_range, size=spec.n_races)
    windspeeds = rng.uniform(*spec.windspeed_range, size=spec.n_races)

    # consecutive months per season, starting each October
    per_season_pos = {}
    months = []
    for ci, si in pairs:
        pos = per_season_pos.get(si, 0)
        per_season_pos[si] = pos + 1
        y, m = _add_months(2017 + si, 10, pos)
        months.append(format_month(y, m))

    month_keys = {parse_month(m) for m in months}
    month_keys |= {parse_month(previous_month(m)) for m in months}
    lo = min(month_keys)
    hi = max(month_keys)
    span = (hi[0] * 12 + hi[1]) - (lo[0] * 12 + lo[1]) + 1
    rain_values = rng.uniform(*spec.rainfall_range, size=span)
    rainfall = {}
    for k in range(span):
        y, m = _add_months(lo[0], lo[1], k)
        rainfall[format_month(y, m)] = float(rain_values[k])

    contexts = [RaceContext(course=courses[ci], season=seasons[si],
                            distance=float(distances[r]),
                            windspeed=float(windspeeds[r]),
                            race_month=months[r])
                for r, (ci, si) in enumerate(pairs)]

    rosters = []
    for r in range(spec.n_races):
        if spec.mean_finishers >= spec.n_athletes:
            field_idx = np.arange(spec.n_athletes)
        else:
            size = int(rng.poisson(spec.mean_finishers))
            size = min(max(size, 1), spec.n_athletes)
            field_idx = np.sort(rng.choice(spec.n_athletes, size=size, replace=False))
        rosters.append(field_idx)

    obs_race = np.concatenate([np.full(f.size, r) for r, f in enumerate(rosters)])
    obs_ath = np.concatenate(rosters)
    dist = distances[obs_race]
    wind = windspeeds[obs_race]
    d_bar = float(dist.mean())
    w_bar = float(wind.mean())
    r_cur = np.array([rainfall[months[r]] for r in obs_race])
    r_prev = np.array([rainfall[previous_month(months[r])] for r in obs_race])
    course_of = np.array([pairs[r][0] for r in obs_race])
    season_of = np.array([pairs[r][1] for r in obs_race])

    mu = (truth.intercept
          + truth.athlete_effects[obs_ath]
          + truth.course_effects[course_of]
          + truth.season_effects[season_of]
          + truth.gamma_dist * (dist - d_bar)
          + truth.rho_cur * r_cur
          + truth.rho_prev * r_prev)
    if truth.lambda_wind is not None:
        mu = mu + truth.lambda_wind * (wind - w_bar)

    y = mu + rng.standard_normal(mu.size) / math.sqrt(truth.tau_obs)
    times = np.exp(y)
    if spec.response == RESPONSE_LOG_PACE:
        times = dist * times

    observations = [
        RaceObservation(
            athlete_id=athletes[obs_ath[i]],
            course=courses[pairs[obs_race[i]][0]],
            season=seasons[pairs[obs_race[i]][1]],
            finish_time=float(times[i]),
            race_month=months[obs_race[i]])
        for i in range(obs_ath.size)
    ]
    return SimulatedData(observations=observations, contexts=contexts,
                         rainfall=rainfall, truth=truth,
                         sex=spec.sex, response=spec.response)


### posterior prediction


def _check_chain_matches_design(chain: ChainOutput, design) -> None:
    meta = chain.meta
    if (meta.athletes != design.athletes or meta.courses != design.courses
            or meta.seasons != design.seasons):
        raise DataError("chain metadata does not match the design's level "
                        "dictionaries; was the chain fit on this data?")
    if meta.response != design.response:
        raise DataError(f"chain was fit with response {meta.response!r} but the "
                        f"design uses {design.response!r}")


def posterior_predictive_race(chain: ChainOutput, design, course: str,
                              season: str, rng) -> np.ndarray:
    """Predicted finish times for one race, one row per stored draw.

    Each row simulates the race's actual field from one posterior draw:
    Y* ~ N(mu, 1/tau) per athlete, back-transformed to minutes (times the
    race distance under the log-pace response).  Every term of mu but the
    athlete effect is shared by the whole field, so it is computed once
    per draw as a race-level offset from the design's race row.  Noise
    is chunked with spawned child generators, so parallel evaluation of
    chunks would give the same numbers.
    """
    _check_chain_matches_design(chain, design)
    r = design.race_index(course, season)
    rows = np.nonzero(design.race_idx == r)[0]
    meta = chain.meta
    slopes = [("gamma_dist", design.race_x_dist), ("rho_cur", design.race_rain_cur),
              ("rho_prev", design.race_rain_prev)]
    if meta.include_windspeed:
        slopes.append(("lambda_wind", design.race_x_wind))
    offset = (chain.column("intercept")
              + chain.effects("course")[:, design.race_course[r]]
              + chain.effects("season")[:, design.race_season[r]])
    for column, values in slopes:
        offset += chain.column(column) * values[r]
    pred = chain.effects("athlete")[:, design.athlete_idx[rows]]
    pred += offset[:, None]

    sd = 1.0 / np.sqrt(chain.column("tau_obs"))
    n_draws = chain.n_stored
    n_chunks = (n_draws + PPC_CHUNK - 1) // PPC_CHUNK
    for j, child in enumerate(rng.spawn(n_chunks)):
        i0 = j * PPC_CHUNK
        i1 = min(i0 + PPC_CHUNK, n_draws)
        z = child.standard_normal((i1 - i0, rows.size))
        z *= sd[i0:i1, None]
        pred[i0:i1] += z
    np.exp(pred, out=pred)
    if meta.response == RESPONSE_LOG_PACE:
        pred *= design.race_dist[r]
    return pred


@dataclass(frozen=True)
class PpcRaceReport:
    """Observed vs predicted five-number summary for one race (minutes),
    plus predicted and observed counts over shared histogram bins."""

    course: str
    season: str
    n_finishers: int
    observed: tuple[float, float, float, float, float]
    predicted: tuple[float, float, float, float, float]
    discrepancy: tuple[float, float, float, float, float]
    low_power: bool  # fewer than 5 finishers: quartiles are unstable
    bin_edges: np.ndarray = field(compare=False, repr=False)
    predicted_counts: np.ndarray = field(compare=False, repr=False)
    observed_counts: np.ndarray = field(compare=False, repr=False)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ppc_report(chain: ChainOutput, design, observed, rng,
               bins: int = 30) -> list[PpcRaceReport]:
    """One report per observed race, in the design's race order.

    The predicted summary is the type-7 five-number summary of the mean
    sorted field: each draw's simulated field is sorted, and the k-th
    fastest time is averaged over draws.  Each type-7 quantile is linear
    in two order statistics, so this equals the mean over draws of each
    field's own summary, up to rounding.  Discrepancies are observed minus
    predicted.  The histograms bin the same simulated fields and the
    observed times into `bins` equal-width bins spanning both; the sorted
    fields' end columns give the bins' span.

    Races are reported on a thread pool of one thread per usable CPU (at
    most one per race); numpy releases the GIL for the noise, exp, sort
    and binning.  Each race draws from its own child of `rng`, so the
    reports do not depend on the thread count or on scheduling, and each
    thread holds one race's simulated field at a time.  An exception
    raised for one race propagates as it is, and races not yet started
    are not run.
    """
    _check_chain_matches_design(chain, design)
    if not observed:
        raise DataError("no observations to compare")
    groups: dict[tuple[str, str], list[float]] = {}
    for o in observed:
        groups.setdefault((o.course, o.season), []).append(o.finish_time)
    design_races = design.races()
    unknown = set(groups) - set(design_races)
    if unknown:
        shown = ", ".join(f"{c}:{s}" for c, s in sorted(unknown))
        avail = ", ".join(f"{c}:{s}" for c, s in design_races)
        raise DataError(f"observed races not in design: {shown}; "
                        f"available races: {avail}")
    races = [r for r in design_races if r in groups]

    def report(race, child) -> PpcRaceReport:
        course, season = race
        obs_times = np.asarray(groups[race], dtype=float)
        obs_summary = np.quantile(obs_times, FIVE_NUMBER_QS)
        pred = posterior_predictive_race(chain, design, course, season, child)
        pred.sort(axis=1)
        lo = min(float(pred[:, 0].min()), float(obs_times.min()))
        hi = max(float(pred[:, -1].max()), float(obs_times.max()))
        edges = np.linspace(lo, hi if hi > lo else lo + 1.0, bins + 1)
        predicted_counts = np.histogram(pred, bins=edges)[0]
        pred_summary = np.quantile(pred.mean(axis=0), FIVE_NUMBER_QS)
        disc = obs_summary - pred_summary
        return PpcRaceReport(
            course=course, season=season, n_finishers=obs_times.size,
            observed=tuple(float(v) for v in obs_summary),
            predicted=tuple(float(v) for v in pred_summary),
            discrepancy=tuple(float(v) for v in disc),
            low_power=obs_times.size < 5,
            bin_edges=edges,
            predicted_counts=predicted_counts,
            observed_counts=np.histogram(obs_times, bins=edges)[0])

    # imported here, as run_chains imports its process pool, so that the
    # commands that run no ppc do not load the executor
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=min(len(races), usable_cpus()))
    try:
        return list(pool.map(report, races, rng.spawn(len(races))))
    finally:
        pool.shutdown(cancel_futures=True)


PPC_HEADER = ("course,season,n_finishers,"
              "obs_min,obs_lq,obs_median,obs_uq,obs_max,"
              "pred_min,pred_lq,pred_median,pred_uq,pred_max,low_power")


def write_ppc_csv(reports, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(PPC_HEADER + "\n")
        for r in reports:
            cells = [r.course, r.season, str(r.n_finishers)]
            cells += [repr(v) for v in r.observed]
            cells += [repr(v) for v in r.predicted]
            cells.append("1" if r.low_power else "0")
            fh.write(",".join(cells) + "\n")


HISTOGRAM_HEADER = "course,season,bin_left,bin_right,predicted_count,observed_count"


def write_histograms_csv(reports, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HISTOGRAM_HEADER + "\n")
        for r in reports:
            for b in range(r.predicted_counts.size):
                fh.write(f"{r.course},{r.season},{repr(float(r.bin_edges[b]))},"
                         f"{repr(float(r.bin_edges[b + 1]))},{int(r.predicted_counts[b])},"
                         f"{int(r.observed_counts[b])}\n")


def effect_on_time(base_time: float, coefficient: float, delta: float) -> float:
    """Seconds added to a base finish time by moving a covariate by delta.

    The model is linear in log time, so a coefficient c and a covariate
    change d multiply time by exp(c*d); the difference is returned in
    seconds and is exactly linear in base_time.
    """
    if base_time <= 0.0:
        raise ValueError(f"base_time must be positive, got {base_time}")
    return 60.0 * base_time * (math.exp(coefficient * delta) - 1.0)
