"""Parser and design-matrix construction tests."""
import numpy as np
import pytest

from conftest import TOY_CONTEXTS, TOY_OBSERVATIONS, TOY_RAINFALL, make_toy_design

from racemix.ingest import (
    DataError,
    RaceContext,
    RaceObservation,
    build_design,
    format_month,
    parse_month,
    parse_races,
    parse_rainfall,
    parse_results,
    previous_month,
)
from racemix.model import ModelConfig


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


### month arithmetic


def test_parse_month_roundtrip():
    assert parse_month("2017-10") == (2017, 10)
    assert format_month(2017, 3) == "2017-03"


@pytest.mark.parametrize("bad", ["2017/10", "17-10", "2017-13", "2017-00", "oct-17", ""])
def test_parse_month_rejects(bad):
    with pytest.raises(DataError):
        parse_month(bad)


def test_previous_month_year_boundary():
    assert previous_month("2018-01") == "2017-12"
    assert previous_month("2018-07") == "2018-06"


### results.csv


RESULTS_TEXT = (
    "athlete_id,course,season,sex,finish_time_min,race_month\n"
    "A1,Alnwick,17/18,M,47.5,2017-10\n"
    "A2,Alnwick,17/18,F,51.0,2017-10\n"
    "\n"
    "A3,Birtley,18/19,M,44.25,2018-11\n"
)


def test_parse_results_filters_sex(tmp_path):
    path = write(tmp_path / "results.csv", RESULTS_TEXT)
    men = parse_results(path, "M")
    assert [o.athlete_id for o in men] == ["A1", "A3"]
    assert men[0].finish_time == 47.5
    assert men[0].line == 2
    women = parse_results(path, "F")
    assert [o.athlete_id for o in women] == ["A2"]


def test_parse_results_bad_sex_filter(tmp_path):
    path = write(tmp_path / "results.csv", RESULTS_TEXT)
    with pytest.raises(DataError, match="sex filter"):
        parse_results(path, "X")


def test_parse_results_nonpositive_time_names_line(tmp_path):
    text = ("athlete_id,course,season,sex,finish_time_min,race_month\n"
            "A1,Alnwick,17/18,M,47.5,2017-10\n"
            "A2,Alnwick,17/18,M,-3.0,2017-10\n")
    path = write(tmp_path / "results.csv", text)
    with pytest.raises(DataError, match="line 3"):
        parse_results(path, "M")


def test_parse_results_bad_month_names_line(tmp_path):
    text = ("athlete_id,course,season,sex,finish_time_min,race_month\n"
            "A1,Alnwick,17/18,M,47.5,October\n")
    path = write(tmp_path / "results.csv", text)
    with pytest.raises(DataError, match="line 2"):
        parse_results(path, "M")


def test_parse_results_header_and_field_count(tmp_path):
    with pytest.raises(DataError, match="bad header"):
        parse_results(write(tmp_path / "a.csv", "x,y\n1,2\n"), "M")
    text = ("athlete_id,course,season,sex,finish_time_min,race_month\n"
            "A1,Alnwick,17/18,M,47.5\n")
    with pytest.raises(DataError, match="expected 6 fields"):
        parse_results(write(tmp_path / "b.csv", text), "M")
    with pytest.raises(DataError, match="missing file"):
        parse_results(str(tmp_path / "nope.csv"), "M")


### races.csv and rainfall.csv


def test_parse_races_duplicate_race(tmp_path):
    text = ("course,season,distance_miles,windspeed,race_month\n"
            "Alnwick,17/18,6.2,5,2017-10\n"
            "Alnwick,17/18,6.3,7,2017-11\n")
    with pytest.raises(DataError, match="duplicate race"):
        parse_races(write(tmp_path / "races.csv", text))


def test_parse_races_validates_numbers(tmp_path):
    text = ("course,season,distance_miles,windspeed,race_month\n"
            "Alnwick,17/18,0,5,2017-10\n")
    with pytest.raises(DataError, match="nonpositive distance"):
        parse_races(write(tmp_path / "races.csv", text))
    text = ("course,season,distance_miles,windspeed,race_month\n"
            "Alnwick,17/18,6.2,-1,2017-10\n")
    with pytest.raises(DataError, match="negative windspeed"):
        parse_races(write(tmp_path / "races2.csv", text))


def test_parse_rainfall(tmp_path):
    text = "month,rainfall_mm\n2017-09,80.5\n2017-10,55\n"
    table = parse_rainfall(write(tmp_path / "rain.csv", text))
    assert table == {"2017-09": 80.5, "2017-10": 55.0}
    dup = "month,rainfall_mm\n2017-09,80\n2017-09,81\n"
    with pytest.raises(DataError, match="duplicate month"):
        parse_rainfall(write(tmp_path / "rain2.csv", dup))
    neg = "month,rainfall_mm\n2017-09,-2\n"
    with pytest.raises(DataError, match="negative rainfall"):
        parse_rainfall(write(tmp_path / "rain3.csv", neg))


### one pass per row, in each of the three files


# per file: its parser, its header, and its i-th valid row with a given month
# text (the valid months repeat, except in rainfall.csv, which holds each once)
CSV_FILES = {
    "results": (lambda path: parse_results(path, "M"),
                "athlete_id,course,season,sex,finish_time_min,race_month",
                lambda i, month: f"A{i},Alnwick,17/18,M,47.5,{month}",
                lambda i: "2017-10"),
    "races": (parse_races, "course,season,distance_miles,windspeed,race_month",
              lambda i, month: f"C{i},17/18,6.2,5.0,{month}",
              lambda i: "2017-10"),
    "rainfall": (parse_rainfall, "month,rainfall_mm",
                 lambda i, month: f"{month},55.0",
                 lambda i: f"{1900 + i}-10"),
}
EACH_FILE = pytest.mark.parametrize("kind", sorted(CSV_FILES))


def _csv_text(kind, rows):
    """The file's header and `rows`: an int i is the i-th valid row, a str
    is a month text put into the next valid row, a tuple is a raw line."""
    _, header, row, month = CSV_FILES[kind]
    lines = [header]
    for i, item in enumerate(rows):
        if isinstance(item, tuple):
            lines.append(item[0])
        else:
            lines.append(row(i, month(i) if isinstance(item, int) else item))
    return "\n".join(lines) + "\n"


def _parse(kind, tmp_path, rows):
    return CSV_FILES[kind][0](write(tmp_path / f"{kind}.csv", _csv_text(kind, rows)))


@EACH_FILE
def test_blank_and_whitespace_rows_are_skipped(tmp_path, kind):
    # whitespace only, a short row of blank cells, and a full-width one
    width = CSV_FILES[kind][1].count(",") + 1
    parsed = _parse(kind, tmp_path, [0, (" \t ",), (",",), (" ," * (width - 1),), 4])
    assert len(parsed) == 2
    if kind == "results":
        assert [o.line for o in parsed] == [2, 6]


@EACH_FILE
@pytest.mark.parametrize("change", [1, -1])
def test_row_of_the_wrong_width_is_named_by_its_line(tmp_path, kind, change):
    width = CSV_FILES[kind][1].count(",") + 1
    row = CSV_FILES[kind][2](3, CSV_FILES[kind][3](3))
    row = row + ",x" if change > 0 else row.rsplit(",", 1)[0]
    with pytest.raises(DataError, match=f"line 5: expected {width} fields, "
                                        f"got {width + change}$"):
        _parse(kind, tmp_path, [0, 1, (" ",), (row,), 4])


@EACH_FILE
def test_rows_after_a_quoted_line_break_are_named_by_their_line(tmp_path, kind):
    # line 3 holds a cell whose quotes span lines 3 and 4
    _, _, row, month = CSV_FILES[kind]
    quoted = row(1, month(1)).rsplit(",", 1)
    quoted = f'{quoted[0]},"{quoted[1]}\n"'
    with pytest.raises(DataError, match="line 6: invalid year-month '2017-13'"):
        _parse(kind, tmp_path, [0, (quoted,), 2, "2017-13"])


@EACH_FILE
def test_invalid_month_first_seen_late_is_named_by_its_line(tmp_path, kind):
    with pytest.raises(DataError, match="line 42: invalid year-month '2017-13'"):
        _parse(kind, tmp_path, [*range(40), "2017-13", 41])


@EACH_FILE
def test_repeated_invalid_month_is_named_by_its_first_line(tmp_path, kind):
    with pytest.raises(DataError, match="line 5: invalid year-month '17-10'"):
        _parse(kind, tmp_path, [0, 1, 2, "17-10", 4, "17-10", 6])


### build_design


def test_level_ordering_baselines_first():
    design = make_toy_design()
    assert design.courses[0] == "Alnwick"
    assert design.seasons[0] == "17/18"
    assert design.athletes == ("A1", "A2", "A3")  # lowest id first


def test_level_ordering_without_named_baselines():
    obs = [RaceObservation("A9", "Wrekenton", "19/20", 40.0, "2019-10"),
           RaceObservation("A2", "Birtley", "19/20", 42.0, "2019-10")]
    ctx = [RaceContext("Wrekenton", "19/20", 6.0, 3.0, "2019-10"),
           RaceContext("Birtley", "19/20", 6.0, 3.0, "2019-10")]
    rain = {"2019-09": 50.0, "2019-10": 60.0}
    design = build_design(obs, ctx, rain, ModelConfig())
    # no Alnwick / 17-18 present: plain sorted order decides the corner
    assert design.courses == ("Birtley", "Wrekenton")
    assert design.seasons == ("19/20",)
    assert design.athletes == ("A2", "A9")


def test_centering_defaults_and_overrides():
    design = make_toy_design()
    assert design.d_bar == pytest.approx(np.mean([6.2, 6.2, 6.2, 5.9, 5.9]))
    assert design.race_x_dist == pytest.approx(design.race_dist - design.d_bar)
    cfg = ModelConfig(d_bar=6.0, w_bar=10.0)
    design2 = build_design(TOY_OBSERVATIONS, TOY_CONTEXTS, TOY_RAINFALL, cfg)
    assert design2.d_bar == 6.0 and design2.w_bar == 10.0
    assert design2.race_x_dist == pytest.approx(design2.race_dist - 6.0)
    assert design2.race_x_wind == pytest.approx(np.array([5.0, 12.0]) - 10.0)


def test_rainfall_join_uses_race_and_previous_month():
    design = make_toy_design()
    first, fourth = design.race_idx[[0, 3]]
    assert design.race_rain_cur[first] == 55.0 and design.race_rain_prev[first] == 80.0
    assert design.race_rain_cur[fourth] == 62.0 and design.race_rain_prev[fourth] == 95.0


def test_race_rows_carry_their_context_in_course_then_season_order():
    contexts = [RaceContext("Wrekenton", "17/18", 5.1, 7.0, "2017-12"),
                RaceContext("Alnwick", "18/19", 6.4, 2.0, "2018-10"),
                RaceContext("Birtley", "17/18", 5.9, 12.0, "2017-11"),
                RaceContext("Alnwick", "17/18", 6.2, 5.0, "2017-10"),
                RaceContext("Gosforth", "17/18", 4.0, 1.0, "2017-10")]  # no finishers
    rain = {"2017-09": 80.0, "2017-10": 55.0, "2017-11": 71.0, "2017-12": 33.0,
            "2018-09": 44.0, "2018-10": 95.0}
    month = {(c.course, c.season): c.race_month for c in contexts}
    keys = [("Birtley", "17/18"), ("Alnwick", "18/19"), ("Wrekenton", "17/18"),
            ("Alnwick", "17/18"), ("Birtley", "17/18"), ("Alnwick", "18/19")]
    obs = [RaceObservation(f"A{i}", c, s, 40.0 + i, month[(c, s)])
           for i, (c, s) in enumerate(keys)]
    design = build_design(obs, contexts, rain, ModelConfig())

    assert design.races() == [("Alnwick", "17/18"), ("Alnwick", "18/19"),
                              ("Birtley", "17/18"), ("Wrekenton", "17/18")]
    pairs = list(zip(design.race_course.tolist(), design.race_season.tolist()))
    assert pairs == sorted(pairs)
    assert [design.races()[r] for r in design.race_idx] == keys
    ctx = {(c.course, c.season): c for c in contexts}
    for r, key in enumerate(design.races()):
        c = ctx[key]
        assert design.race_dist[r] == c.distance
        assert design.race_x_dist[r] == c.distance - design.d_bar
        assert design.race_x_wind[r] == c.windspeed - design.w_bar
        assert design.race_rain_cur[r] == rain[c.race_month]
        assert design.race_rain_prev[r] == rain[previous_month(c.race_month)]
    # the centering means weight each race by its finishers
    assert design.d_bar == np.mean([ctx[k].distance for k in keys])


def test_missing_rainfall_month_is_an_error():
    rain = dict(TOY_RAINFALL)
    del rain["2017-09"]  # previous month of the first race
    with pytest.raises(DataError, match="missing rainfall for month 2017-09"):
        build_design(TOY_OBSERVATIONS, TOY_CONTEXTS, rain, ModelConfig())


def test_observation_without_covariates_is_an_error():
    obs = TOY_OBSERVATIONS + [RaceObservation("A1", "Gosforth", "17/18", 41.0,
                                              "2017-12", line=9)]
    with pytest.raises(DataError, match="line 9"):
        build_design(obs, TOY_CONTEXTS, TOY_RAINFALL, ModelConfig())


def test_month_mismatch_is_an_error():
    obs = TOY_OBSERVATIONS[:-1] + [
        RaceObservation("A2", "Birtley", "18/19", 49.7, "2018-10")]
    with pytest.raises(DataError, match="does not match race month"):
        build_design(obs, TOY_CONTEXTS, TOY_RAINFALL, ModelConfig())


def test_inconsistent_inputs_name_their_files_and_lines():
    # the CLI passes the three paths; each error names the lines at fault
    sources = ("data/r.csv", "data/c.csv", "data/m.csv")
    contexts = [RaceContext(c.course, c.season, c.distance, c.windspeed, c.race_month,
                            line=k + 2) for k, c in enumerate(TOY_CONTEXTS)]
    observations = [RaceObservation(o.athlete_id, o.course, o.season, o.finish_time,
                                    o.race_month, line=k + 2)
                    for k, o in enumerate(TOY_OBSERVATIONS)]
    config = ModelConfig()
    unknown = observations + [RaceObservation("A1", "Gosforth", "17/18", 41.0,
                                              "2017-12", line=9)]
    with pytest.raises(DataError, match="^data/r.csv: line 9: race 'Gosforth' '17/18' "
                                        "has no covariate row in data/c.csv$"):
        build_design(unknown, contexts, TOY_RAINFALL, config, sources=sources)
    moved = observations[:-1] + [RaceObservation("A2", "Birtley", "18/19", 49.7,
                                                 "2018-10", line=6)]
    with pytest.raises(DataError, match=r"^data/r.csv: line 6: month 2018-10 does not "
                                        r"match race month 2018-11 of 'Birtley' '18/19' "
                                        r"\(data/c.csv: line 3\)$"):
        build_design(moved, contexts, TOY_RAINFALL, config, sources=sources)
    rain = {m: v for m, v in TOY_RAINFALL.items() if m != "2018-10"}
    with pytest.raises(DataError, match=r"^data/c.csv: line 3: missing rainfall for month "
                                        r"2018-10 in data/m.csv \(race 'Birtley' '18/19'\)$"):
        build_design(observations, contexts, rain, config, sources=sources)
    with pytest.raises(DataError, match="^data/r.csv: no observations to fit$"):
        build_design([], contexts, TOY_RAINFALL, config, sources=sources)


def test_parse_races_records_each_race_line(tmp_path):
    text = ("course,season,distance_miles,windspeed,race_month\n"
            "Alnwick,17/18,6.2,5,2017-10\n"
            "\n"
            "Birtley,18/19,5.9,12,2018-11\n")
    assert [c.line for c in parse_races(write(tmp_path / "races.csv", text))] == [2, 4]


def test_empty_observations_is_an_error():
    with pytest.raises(DataError, match="no observations"):
        build_design([], TOY_CONTEXTS, TOY_RAINFALL, ModelConfig())


def test_response_variants_differ_by_log_distance():
    lt = make_toy_design("log_time")
    lp = make_toy_design("log_pace")
    assert lt.y == pytest.approx(np.log([o.finish_time for o in TOY_OBSERVATIONS]))
    np.testing.assert_allclose(lt.y - lp.y, np.log(lt.race_dist[lt.race_idx]),
                               rtol=0, atol=1e-15)
    # the response value itself, checked against direct evaluation
    assert lp.y[0] == pytest.approx(np.log(47.5 / 6.2), abs=1e-12)


def test_races_and_race_index():
    design = make_toy_design()
    assert design.races() == [("Alnwick", "17/18"), ("Birtley", "18/19")]
    assert design.race_index("Birtley", "18/19") == 1
    assert np.count_nonzero(design.race_idx == 1) == 2
    with pytest.raises(DataError, match="available races: Alnwick:17/18, Birtley:18/19"):
        design.race_index("Gosforth", "20/21")
