"""CSV ingestion and design-matrix construction.

Three input files feed a fit (UTF-8, comma separated, header row required):

    results.csv    athlete_id,course,season,sex,finish_time_min,race_month
    races.csv      course,season,distance_miles,windspeed,race_month
    rainfall.csv   month,rainfall_mm

``race_month`` and ``month`` are calendar months written YYYY-MM.  Every
(course, season) pair appearing in the results must have exactly one row
in races.csv, an athlete at most one row per race in results.csv, and
rainfall.csv must cover each race month and the month before it.
Numeric cells are ASCII decimals (parse_number).  Men's and women's races
are fitted separately, so results parsing requires an explicit sex filter;
a result's sex must be one of SEXES.

Grouping factors are indexed densely with the baseline level at index 0:
course "Alnwick" and season "17/18" when present (otherwise the first
level in sorted order), and the lowest athlete id.  Windspeed units are
passed through exactly as supplied.
"""
from __future__ import annotations

import csv
import json
import math
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

# the three input files, as build_design names them when not told their paths
INPUT_FILES = ("results.csv", "races.csv", "rainfall.csv")

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
    line: int | None = None  # source CSV line, for error reporting


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


def not_utf8_error(path) -> DataError:
    """The error for a file that is not UTF-8 text, naming the line of its
    first bad byte.

    A UnicodeDecodeError raised while a text stream is read places the byte
    only within the chunk being decoded, so the file is read again here.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return DataError(f"{path}: line {line}: not UTF-8 text "
                         f"(byte {data[exc.start]:#04x} at offset {exc.start})")
    return DataError(f"{path}: not UTF-8 text")


def read_json(path):
    """The JSON document in a file, or DataError naming the file and the line
    for one that is not UTF-8 or not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError:
        raise not_utf8_error(path) from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                        f"not JSON: {exc.msg}") from None


def _open_rows(path, expected_header):
    """Yield (line_number, stripped cells) for a validated CSV file; skips
    blank lines and rows whose every cell is blank."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise DataError(f"missing file: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: line 1: empty file, expected header "
                                f"{','.join(expected_header)}")
            header = [h.strip() for h in header]
            if header != list(expected_header):
                raise DataError(f"{path}: line 1: bad header {','.join(header)!r}, "
                                f"expected {','.join(expected_header)!r}")
            width = len(expected_header)
            # a row is named by the line it starts on: a quoted cell can
            # hold a line break, so rows and lines are counted apart
            start = reader.line_num + 1
            for row in reader:
                lineno, start = start, reader.line_num + 1
                cells = [cell.strip() for cell in row]
                if not any(cells):
                    continue
                if len(cells) != width:
                    raise DataError(f"{path}: line {lineno}: expected "
                                    f"{width} fields, got {len(cells)}")
                yield lineno, cells
        except UnicodeDecodeError:
            raise not_utf8_error(path) from None


def parse_number(text: str) -> float:
    """A numeric cell's value: float() of ASCII text without underscores.

    float() also reads digit separators ("4_0" is 40) and non-ASCII digits
    ("\u0664\u0660", Arabic-Indic 40), which np.loadtxt, the chain CSVs'
    reader, refuses; this rule refuses both, with ValueError, in every CSV
    racemix reads.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def _parse_float(value, what, path, lineno):
    try:
        out = parse_number(value)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: unparseable {what} {value!r}") from None
    if not math.isfinite(out):
        raise DataError(f"{path}: line {lineno}: non-finite {what} {value!r}")
    return out


def _check_month(text, path, lineno, valid: set) -> None:
    """Validate a month cell, once per text: `valid` holds the texts already
    checked by this parser call, so a bad month is named by its first line."""
    if text in valid:
        return
    try:
        parse_month(text)
    except DataError as exc:
        raise DataError(f"{path}: line {lineno}: {exc}") from None
    valid.add(text)


def parse_results(path, sex_filter: str) -> list[RaceObservation]:
    """Read results.csv, keeping only rows whose sex matches the filter.

    A malformed row is a hard error naming its line number.  Every row,
    whatever its sex, needs its key fields, a sex that is one of SEXES and
    no earlier result for the same athlete in the same race; a kept row
    also needs a positive finish time and a valid month.
    """
    if sex_filter not in SEXES:
        raise DataError(f"sex filter must be one of {SEXES}, got {sex_filter!r}")
    observations = []
    seen = {}
    months = set()
    for lineno, row in _open_rows(path, RESULTS_HEADER):
        athlete_id, course, season, sex, time_text, month_text = row
        if not athlete_id or not course or not season:
            raise DataError(f"{path}: line {lineno}: empty key field")
        if sex not in SEXES:
            raise DataError(f"{path}: line {lineno}: unknown sex {sex!r}, "
                            f"expected one of {', '.join(SEXES)}")
        first = seen.setdefault((athlete_id, course, season), lineno)
        if first != lineno:
            raise DataError(f"{path}: line {lineno}: duplicate result for athlete "
                            f"{athlete_id} in race {course} {season} "
                            f"(first seen on line {first})")
        if sex != sex_filter:
            continue
        finish_time = _parse_float(time_text, "finish time", path, lineno)
        if finish_time <= 0.0:
            raise DataError(f"{path}: nonpositive finish time, line {lineno}")
        _check_month(month_text, path, lineno, months)
        observations.append(RaceObservation(
            athlete_id=athlete_id, course=course, season=season,
            finish_time=finish_time, race_month=month_text, line=lineno))
    return observations


def parse_races(path) -> list[RaceContext]:
    """Read races.csv; (course, season) pairs must be unique."""
    contexts = []
    seen = {}
    months = set()
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
        _check_month(month_text, path, lineno, months)
        key = (course, season)
        if key in seen:
            raise DataError(f"{path}: line {lineno}: duplicate race {course} {season} "
                            f"(first seen on line {seen[key]})")
        seen[key] = lineno
        contexts.append(RaceContext(course=course, season=season, distance=distance,
                                    windspeed=windspeed, race_month=month_text,
                                    line=lineno))
    return contexts


def parse_rainfall(path) -> dict[str, float]:
    """Read rainfall.csv into a month -> millimetres map."""
    table = {}
    months = set()
    for lineno, row in _open_rows(path, RAINFALL_HEADER):
        month_text, rain_text = row
        _check_month(month_text, path, lineno, months)
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
    """Per-observation indices and responses; per-race covariates.

    Observation i ran race `race_idx[i]`.  Distance, windspeed and
    rainfall describe a race, not a finisher, so they are stored once per
    race, in the `race_*` rows: one row per (course, season) pair
    present, in (course index, season index) order.  Index 0 of each
    grouping factor is the corner-constrained baseline level.  `y` holds
    the active response (log time, or log pace).
    """

    athlete_idx: np.ndarray
    race_idx: np.ndarray
    y: np.ndarray
    race_course: np.ndarray
    race_season: np.ndarray
    race_dist: np.ndarray
    race_x_dist: np.ndarray
    race_x_wind: np.ndarray
    race_rain_cur: np.ndarray
    race_rain_prev: np.ndarray
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
        """The (course, season) names of the race rows, in row order."""
        return [(self.courses[c], self.seasons[s])
                for c, s in zip(self.race_course, self.race_season)]

    def race_index(self, course: str, season: str) -> int:
        """The row of one race, or DataError listing the races present."""
        races = self.races()
        try:
            return races.index((course, season))
        except ValueError:
            available = ", ".join(f"{c}:{s}" for c, s in races)
            raise DataError(f"unknown race {course!r} {season!r}; "
                            f"available races: {available}") from None


def _at(path, line) -> str:
    return path if line is None else f"{path}: line {line}"


def build_design(observations, contexts, rainfall, config: ModelConfig,
                 sources=INPUT_FILES) -> DesignMatrixView:
    """Join observations to race covariates and rainfall and index levels.

    Centering constants default to the unweighted means of distance and
    windspeed over the fitted observations; config.d_bar / config.w_bar
    override them.  An inconsistency between the inputs is a DataError
    naming the files, as `sources` (results, races, rainfall) names them,
    and the lines at fault.
    """
    config.validate()
    results, races, rain = sources
    if not observations:
        raise DataError(f"{results}: no observations to fit")
    ctx_by_race = {(c.course, c.season): c for c in contexts}

    for obs in observations:
        key = (obs.course, obs.season)
        if key not in ctx_by_race:
            raise DataError(f"{_at(results, obs.line)}: race {obs.course!r} "
                            f"{obs.season!r} has no covariate row in {races}")
        ctx = ctx_by_race[key]
        if obs.race_month != ctx.race_month:
            raise DataError(f"{_at(results, obs.line)}: month {obs.race_month} does not "
                            f"match race month {ctx.race_month} of {obs.course!r} "
                            f"{obs.season!r} ({_at(races, ctx.line)})")

    athletes = sorted({obs.athlete_id for obs in observations})
    courses = _level_order((obs.course for obs in observations), BASELINE_COURSE)
    seasons = _level_order((obs.season for obs in observations), BASELINE_SEASON)
    a_index = {name: i for i, name in enumerate(athletes)}
    c_index = {name: i for i, name in enumerate(courses)}
    s_index = {name: i for i, name in enumerate(seasons)}
    obs_race = [(c_index[obs.course], s_index[obs.season]) for obs in observations]
    race_keys = sorted(set(obs_race))
    r_index = {key: r for r, key in enumerate(race_keys)}

    n_races = len(race_keys)
    race_dist = np.empty(n_races)
    race_wind = np.empty(n_races)
    race_rain_cur = np.empty(n_races)
    race_rain_prev = np.empty(n_races)
    for r, (c, s) in enumerate(race_keys):
        ctx = ctx_by_race[(courses[c], seasons[s])]
        month = ctx.race_month
        prev = previous_month(month)
        for m in (month, prev):
            if m not in rainfall:
                raise DataError(f"{_at(races, ctx.line)}: missing rainfall for month {m} "
                                f"in {rain} (race {ctx.course!r} {ctx.season!r})")
        race_dist[r] = ctx.distance
        race_wind[r] = ctx.windspeed
        race_rain_cur[r] = rainfall[month]
        race_rain_prev[r] = rainfall[prev]

    athlete_idx = np.array([a_index[obs.athlete_id] for obs in observations], dtype=np.int64)
    race_idx = np.array([r_index[key] for key in obs_race], dtype=np.int64)
    dist = race_dist[race_idx]
    d_bar = float(np.mean(dist)) if config.d_bar is None else float(config.d_bar)
    w_bar = (float(np.mean(race_wind[race_idx])) if config.w_bar is None
             else float(config.w_bar))

    y = np.log(np.array([obs.finish_time for obs in observations]))
    if config.response == RESPONSE_LOG_PACE:
        y = y - np.log(dist)
    elif config.response != RESPONSE_LOG_TIME:
        raise DataError(f"unknown response variant {config.response!r}")
    if not np.all(np.isfinite(y)):
        raise DataError("non-finite response after transformation")

    return DesignMatrixView(
        athlete_idx=athlete_idx, race_idx=race_idx, y=y,
        race_course=np.array([c for c, _ in race_keys], dtype=np.int64),
        race_season=np.array([s for _, s in race_keys], dtype=np.int64),
        race_dist=race_dist,
        race_x_dist=race_dist - d_bar, race_x_wind=race_wind - w_bar,
        race_rain_cur=race_rain_cur, race_rain_prev=race_rain_prev,
        athletes=tuple(athletes), courses=tuple(courses), seasons=tuple(seasons),
        d_bar=d_bar, w_bar=w_bar, response=config.response)
