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
    assert design.x_dist == pytest.approx(design.dist - design.d_bar)
    cfg = ModelConfig(d_bar=6.0, w_bar=10.0)
    design2 = build_design(TOY_OBSERVATIONS, TOY_CONTEXTS, TOY_RAINFALL, cfg)
    assert design2.d_bar == 6.0 and design2.w_bar == 10.0
    assert design2.x_dist == pytest.approx(design2.dist - 6.0)


def test_rainfall_join_uses_race_and_previous_month():
    design = make_toy_design()
    assert design.rain_cur[0] == 55.0 and design.rain_prev[0] == 80.0
    assert design.rain_cur[3] == 62.0 and design.rain_prev[3] == 95.0


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


def test_empty_observations_is_an_error():
    with pytest.raises(DataError, match="no observations"):
        build_design([], TOY_CONTEXTS, TOY_RAINFALL, ModelConfig())


def test_response_variants_differ_by_log_distance():
    lt = make_toy_design("log_time")
    lp = make_toy_design("log_pace")
    assert lt.y == pytest.approx(np.log([o.finish_time for o in TOY_OBSERVATIONS]))
    np.testing.assert_allclose(lt.y - lp.y, np.log(lt.dist), rtol=0, atol=1e-15)
    # the response value itself, checked against direct evaluation
    assert lp.y[0] == pytest.approx(np.log(47.5 / 6.2), abs=1e-12)


def test_races_and_race_mask():
    design = make_toy_design()
    assert design.races() == [("Alnwick", "17/18"), ("Birtley", "18/19")]
    mask = design.race_mask("Birtley", "18/19")
    assert mask.sum() == 2
    with pytest.raises(DataError, match="available races"):
        design.race_mask("Gosforth", "20/21")
