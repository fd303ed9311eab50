"""CSV ingestion and design-matrix construction.

Three input files feed a fit (UTF-8, comma separated, header row required):

    results.csv    athlete_id,course,season,sex,finish_time_min,race_month
    races.csv      course,season,distance_miles,windspeed,race_month
    rainfall.csv   month,rainfall_mm

``race_month`` and ``month`` are calendar months written YYYY-MM.  Every
(course, season) pair appearing in the results must have exactly one row
in races.csv, and rainfall.csv must cover each race month and the month
before it.  Men's and women's races are fitted separately, so results
parsing requires an explicit sex filter.

Grouping factors are indexed densely with the baseline level at index 0:
course "Alnwick" and season "17/18" when present (otherwise the first
level in sorted order), and the lowest athlete id.  Windspeed units are
passed through exactly as supplied.
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelConfig,
    RESPONSE_LOG_PACE,
    RESPONSE_LOG_TIME,
)

RESULTS_HEADER = ("athlete_id", "course", "season", "sex", "finish_time_min", "race_month")
RACES_HEADER = ("course", "season", "distance_miles", "windspeed", "race_month")
RAINFALL_HEADER = ("month", "rainfall_mm")

BASELINE_COURSE = "Alnwick"
BASELINE_SEASON = "17/18"

SEXES = ("M", "F")

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


class DataError(Exception):
    """Raised for missing, malformed or inconsistent input data."""


@dataclass(frozen=True)
class RaceObservation:
    """One athlete's finish in one race; time in minutes."""

    athlete_id: str
    course: str
    season: str
    finish_time: float
    race_month: str
    line: int | None = None  # source CSV line, for error reporting


@dataclass(frozen=True)
class RaceContext:
    """Per-(course, season) covariates."""

    course: str
    season: str
    distance: float
    windspeed: float
    race_month: str


def parse_month(text: str) -> tuple[int, int]:
    """Parse 'YYYY-MM' into (year, month) or raise DataError."""
    m = _MONTH_RE.match(text.strip())
    if not m:
        raise DataError(f"invalid year-month {text!r}, expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise DataError(f"invalid year-month {text!r}, month out of range")
    return year, month


def format_month(year: int, month: int) -> str:
    return f"{year:04d}-{month:02d}"


def previous_month(month: str) -> str:
    """The calendar month immediately before `month` ('YYYY-MM')."""
    year, m = parse_month(month)
    if m == 1:
        return format_month(year - 1, 12)
    return format_month(year, m - 1)


def _open_rows(path, expected_header):
    """Yield (line_number, row) for a validated CSV file; skips blank lines."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise DataError(f"missing file: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected header "
                            f"{','.join(expected_header)}") from None
        header = [h.strip() for h in header]
        if header != list(expected_header):
            raise DataError(f"{path}: bad header {','.join(header)!r}, "
                            f"expected {','.join(expected_header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected_header):
                raise DataError(f"{path}: line {lineno}: expected "
                                f"{len(expected_header)} fields, got {len(row)}")
            yield lineno, [cell.strip() for cell in row]


def _parse_float(value, what, path, lineno):
    try:
        out = float(value)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: unparseable {what} {value!r}") from None
    if not np.isfinite(out):
        raise DataError(f"{path}: line {lineno}: non-finite {what} {value!r}")
    return out


def parse_results(path, sex_filter: str) -> list[RaceObservation]:
    """Read results.csv, keeping only rows whose sex matches the filter.

    Any malformed row is a hard error naming its line number.
    """
    if sex_filter not in SEXES:
        raise DataError(f"sex filter must be one of {SEXES}, got {sex_filter!r}")
    observations = []
    for lineno, row in _open_rows(path, RESULTS_HEADER):
        athlete_id, course, season, sex, time_text, month_text = row
        if not athlete_id or not course or not season:
            raise DataError(f"{path}: line {lineno}: empty key field")
        if sex != sex_filter:
            continue
        finish_time = _parse_float(time_text, "finish time", path, lineno)
        if finish_time <= 0.0:
            raise DataError(f"{path}: nonpositive finish time, line {lineno}")
        try:
            parse_month(month_text)
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        observations.append(RaceObservation(
            athlete_id=athlete_id, course=course, season=season,
            finish_time=finish_time, race_month=month_text, line=lineno))
    return observations


def parse_races(path) -> list[RaceContext]:
    """Read races.csv; (course, season) pairs must be unique."""
    contexts = []
    seen = {}
    for lineno, row in _open_rows(path, RACES_HEADER):
        course, season, dist_text, wind_text, month_text = row
        if not course or not season:
            raise DataError(f"{path}: line {lineno}: empty key field")
        distance = _parse_float(dist_text, "distance", path, lineno)
        if distance <= 0.0:
            raise DataError(f"{path}: line {lineno}: nonpositive distance {distance}")
        windspeed = _parse_float(wind_text, "windspeed", path, lineno)
        if windspeed < 0.0:
            raise DataError(f"{path}: line {lineno}: negative windspeed {windspeed}")
        try:
            parse_month(month_text)
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        key = (course, season)
        if key in seen:
            raise DataError(f"{path}: line {lineno}: duplicate race {course} {season} "
                            f"(first seen on line {seen[key]})")
        seen[key] = lineno
        contexts.append(RaceContext(course=course, season=season, distance=distance,
                                    windspeed=windspeed, race_month=month_text))
    return contexts


def parse_rainfall(path) -> dict[str, float]:
    """Read rainfall.csv into a month -> millimetres map."""
    table = {}
    for lineno, row in _open_rows(path, RAINFALL_HEADER):
        month_text, rain_text = row
        try:
            parse_month(month_text)
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        rain = _parse_float(rain_text, "rainfall", path, lineno)
        if rain < 0.0:
            raise DataError(f"{path}: line {lineno}: negative rainfall {rain}")
        if month_text in table:
            raise DataError(f"{path}: line {lineno}: duplicate month {month_text}")
        table[month_text] = rain
    return table


def _level_order(values, baseline):
    """Dense levels with the designated baseline first, the rest sorted."""
    levels = sorted(set(values))
    if baseline in levels:
        levels.remove(baseline)
        levels.insert(0, baseline)
    return levels


@dataclass(frozen=True)
class DesignMatrixView:
    """Per-observation dense indices, centred covariates and responses.

    Index 0 of each grouping factor is the corner-constrained baseline
    level.  `y` holds the active response (log time, or log pace).
    """

    athlete_idx: np.ndarray
    course_idx: np.ndarray
    season_idx: np.ndarray
    x_dist: np.ndarray
    x_wind: np.ndarray
    rain_cur: np.ndarray
    rain_prev: np.ndarray
    y: np.ndarray
    dist: np.ndarray
    athletes: tuple[str, ...]
    courses: tuple[str, ...]
    seasons: tuple[str, ...]
    d_bar: float
    w_bar: float
    response: str

    @property
    def n_obs(self) -> int:
        return self.y.size

    def races(self) -> list[tuple[str, str]]:
        """Distinct (course, season) pairs present, in index order."""
        pairs = sorted({(int(c), int(s))
                        for c, s in zip(self.course_idx, self.season_idx)})
        return [(self.courses[c], self.seasons[s]) for c, s in pairs]

    def race_mask(self, course: str, season: str) -> np.ndarray:
        """Boolean mask of the observations in one race, or DataError."""
        try:
            c = self.courses.index(course)
            s = self.seasons.index(season)
        except ValueError:
            c = s = -1
        mask = (self.course_idx == c) & (self.season_idx == s)
        if c < 0 or s < 0 or not mask.any():
            available = ", ".join(f"{cc}:{ss}" for cc, ss in self.races())
            raise DataError(f"unknown race {course!r} {season!r}; "
                            f"available races: {available}")
        return mask


def build_design(observations, contexts, rainfall, config: ModelConfig) -> DesignMatrixView:
    """Join observations to race covariates and rainfall and index levels.

    Centering constants default to the unweighted means of distance and
    windspeed over the fitted observations; config.d_bar / config.w_bar
    override them.
    """
    config.validate()
    if not observations:
        raise DataError("no observations to fit")
    ctx_by_race = {(c.course, c.season): c for c in contexts}

    for obs in observations:
        key = (obs.course, obs.season)
        where = f"line {obs.line}" if obs.line is not None else "row"
        if key not in ctx_by_race:
            raise DataError(f"observation ({where}) has no covariate row for "
                            f"race {obs.course!r} season {obs.season!r}")
        ctx = ctx_by_race[key]
        if obs.race_month != ctx.race_month:
            raise DataError(f"observation ({where}) month {obs.race_month} does not "
                            f"match race month {ctx.race_month} for "
                            f"{obs.course!r} {obs.season!r}")

    athletes = sorted({obs.athlete_id for obs in observations})
    courses = _level_order((obs.course for obs in observations), BASELINE_COURSE)
    seasons = _level_order((obs.season for obs in observations), BASELINE_SEASON)
    a_index = {name: i for i, name in enumerate(athletes)}
    c_index = {name: i for i, name in enumerate(courses)}
    s_index = {name: i for i, name in enumerate(seasons)}

    n = len(observations)
    athlete_idx = np.empty(n, dtype=np.int64)
    course_idx = np.empty(n, dtype=np.int64)
    season_idx = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
    wind = np.empty(n)
    rain_cur = np.empty(n)
    rain_prev = np.empty(n)
    time_min = np.empty(n)

    for i, obs in enumerate(observations):
        ctx = ctx_by_race[(obs.course, obs.season)]
        month = ctx.race_month
        prev = previous_month(month)
        for m in (month, prev):
            if m not in rainfall:
                raise DataError(f"missing rainfall for month {m} "
                                f"(race {obs.course!r} {obs.season!r})")
        athlete_idx[i] = a_index[obs.athlete_id]
        course_idx[i] = c_index[obs.course]
        season_idx[i] = s_index[obs.season]
        dist[i] = ctx.distance
        wind[i] = ctx.windspeed
        rain_cur[i] = rainfall[month]
        rain_prev[i] = rainfall[prev]
        time_min[i] = obs.finish_time

    d_bar = float(np.mean(dist)) if config.d_bar is None else float(config.d_bar)
    w_bar = float(np.mean(wind)) if config.w_bar is None else float(config.w_bar)

    y = np.log(time_min)
    if config.response == RESPONSE_LOG_PACE:
        y = y - np.log(dist)
    elif config.response != RESPONSE_LOG_TIME:
        raise DataError(f"unknown response variant {config.response!r}")
    if not np.all(np.isfinite(y)):
        raise DataError("non-finite response after transformation")

    return DesignMatrixView(
        athlete_idx=athlete_idx, course_idx=course_idx, season_idx=season_idx,
        x_dist=dist - d_bar, x_wind=wind - w_bar,
        rain_cur=rain_cur, rain_prev=rain_prev,
        y=y, dist=dist,
        athletes=tuple(athletes), courses=tuple(courses), seasons=tuple(seasons),
        d_bar=d_bar, w_bar=w_bar, response=config.response)
