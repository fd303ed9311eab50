"""End-to-end CLI tests through click's in-process runner.

A small synthetic dataset is written once per session; fits use short
schedules so the whole module stays fast.  Byte-level idempotency is
asserted on the data artifacts, with SOURCE_DATE_EPOCH pinning the
manifest timestamp.
"""
import concurrent.futures
import csv
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import racemix
import racemix.cli
import racemix.predictive
from racemix.cli import main
from racemix.ingest import DataError, build_design, parse_races, parse_rainfall, parse_results
from racemix.model import ModelConfig
from racemix.predictive import SyntheticSpec, simulate_dataset
from racemix.diagnostics import (
    autocorrelation,
    chain_moments,
    constant_columns,
    ess_and_rho1,
    split_rhat,
    summarize,
    write_summary_csv,
)
from racemix.sampler import ChainOutput, SamplerError, load_chain, run_chain, save_chain

from conftest import fail_location_factorisations, make_toy_design, set_usable_cpus
from _oracles import split_rhat_reference

FIT_ARGS = ["--burn-in", "200", "--iterations", "1200", "--thin", "5"]


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-data")
    spec = SyntheticSpec(n_athletes=20, n_courses=3, n_seasons=2, n_races=5,
                         mean_finishers=14, seed=33)
    simulate_dataset(spec).write_csv(base)
    return base


def _data_args(directory):
    return ["--data", str(directory / "results.csv"),
            "--covariates", str(directory / "races.csv"),
            "--rainfall", str(directory / "rainfall.csv"),
            "--sex", "M"]


def _run(args, env=None):
    return CliRunner().invoke(main, args, env=env, catch_exceptions=False)


@pytest.fixture(scope="session")
def fit_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-fit") / "fit"
    result = _run(["fit", *_data_args(dataset_dir), *FIT_ARGS,
                   "--seed", "11", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def test_version_flag():
    result = _run(["--version"])
    assert result.exit_code == 0
    assert "racemix" in result.output


def test_importing_the_cli_loads_no_process_pool():
    # a fresh interpreter: summarize, ppc, diagnose and one-chain fits start no
    # pool, and each command imports multiprocessing only when it needs it
    src = os.path.dirname(os.path.dirname(racemix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, racemix.cli; print([name for name in "
            "('concurrent.futures.process', 'multiprocessing') if name in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is gone breaks `import *`
    assert len(set(racemix.__all__)) == len(racemix.__all__)
    for name in racemix.__all__:
        assert hasattr(racemix, name), name
    namespace = {}
    exec("from racemix import *", namespace)
    assert set(racemix.__all__) <= set(namespace)


# numpy.ma, barred: a command that imports it fails.  Two usable CPUs, so
# that fit's chain pool and diagnose's worker, both forked, run too
NO_NUMPY_MA = """
import json, os, sys
sys.modules["numpy.ma"] = None
os.sched_getaffinity = lambda pid: {0, 1}
os.cpu_count = lambda: 2
from racemix.cli import main
codes = []
for args in json.loads(sys.argv[1]):
    try:
        main(args, standalone_mode=False)
        codes.append(0)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps(codes))
"""


def test_no_command_imports_numpy_ma(dataset_dir, tmp_path):
    # np.quantile imports all of numpy.ma (through np.unique), tens of
    # milliseconds per process; racemix's quantiles never call it
    src = os.path.dirname(os.path.dirname(racemix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    one, two = str(tmp_path / "one"), str(tmp_path / "two")
    commands = [["fit", *_data_args(dataset_dir), *FIT_ARGS, "--out", one],
                ["fit", *_data_args(dataset_dir), *FIT_ARGS, "--chains", "2", "--out", two],
                ["summarize", "--fit", one],
                ["summarize", "--fit", two, "--index", "2"],
                ["ppc", "--fit", two],
                ["diagnose", "--fit", two, "--index", "2"]]
    done = subprocess.run([sys.executable, "-c", NO_NUMPY_MA, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(commands), done.stderr
    for name in ("crosschain.csv", "summary_02.csv", "ppc/ppc.csv", "trace_02.csv"):
        assert (tmp_path / "two" / name).exists(), name


# ---------------------------------------------------------------- fit

def test_fit_writes_expected_artifacts(fit_dir):
    for name in ("chain.csv", "metadata.json", "summary.csv", "manifest.json"):
        assert (fit_dir / name).exists(), name
    manifest = json.loads((fit_dir / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["seed"] == 11
    assert manifest["config"]["model"]["response"] == "log_time"
    assert manifest["config"]["sex"] == "M"
    for role in ("data", "covariates", "rainfall"):
        assert len(manifest["inputs"][role]["sha256"]) == 64
    assert manifest["artifacts"] == sorted(manifest["artifacts"])
    meta = json.loads((fit_dir / "metadata.json").read_text())
    assert meta["seed"] == 11
    assert meta["burn_in"] == 200 and meta["thin"] == 5
    # iterations count post-burn-in sweeps: 1200 / 5 stored draws
    n_rows = len((fit_dir / "chain.csv").read_text().splitlines())
    assert n_rows == 1 + 240


def test_fit_is_byte_idempotent(dataset_dir, tmp_path):
    env = {"SOURCE_DATE_EPOCH": "1700000000"}
    args = _data_args(dataset_dir) + FIT_ARGS + ["--seed", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["fit", *args, "--out", str(a)], env=env).exit_code == 0
    assert _run(["fit", *args, "--out", str(b)], env=env).exit_code == 0
    for name in ("chain.csv", "summary.csv", "metadata.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_fit_seed_changes_draws(dataset_dir, tmp_path):
    args = _data_args(dataset_dir) + FIT_ARGS
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["fit", *args, "--seed", "1", "--out", str(a)]).exit_code == 0
    assert _run(["fit", *args, "--seed", "2", "--out", str(b)]).exit_code == 0
    assert (a / "chain.csv").read_bytes() != (b / "chain.csv").read_bytes()


def test_fit_multichain_artifacts(dataset_dir, tmp_path, monkeypatch):
    set_usable_cpus(monkeypatch, 1)
    out = tmp_path / "fit2"
    result = _run(["fit", *_data_args(dataset_dir), *FIT_ARGS,
                   "--chains", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    for name in ("chain_01.csv", "chain_02.csv", "metadata_01.json",
                 "metadata_02.json", "summary_01.csv", "summary_02.csv",
                 "crosschain.csv"):
        assert (out / name).exists(), name
    assert (out / "chain_01.csv").read_bytes() != (out / "chain_02.csv").read_bytes()
    # each chain's sampling time and speed: burn-in 200 + 1200 iterations
    for i in (1, 2):
        assert re.search(rf"^chain {i}: 1400 sweeps in \d+\.\d\d s \(\d+ sweeps/s\)$",
                         result.output, re.MULTILINE), result.output
    lines = (out / "crosschain.csv").read_text().splitlines()
    assert lines[0] == "parameter,split_rhat,ess_total"
    n_params = len((out / "chain_01.csv").read_text().splitlines()[0].split(","))
    assert len(lines) == 1 + n_params
    for line in lines[1:]:
        _, rhat, ess = line.split(",")
        assert float(ess) > 0.0
        assert float(rhat) >= 1.0 or np.isfinite(float(rhat))


def test_fit_artifacts_do_not_depend_on_worker_count(dataset_dir, tmp_path, monkeypatch,
                                                     forks):
    # SeedSequence(seed).spawn(n)[i] does not depend on n, so chain i's files
    # are the same in a fit of any chain count, whether its chains ran in this
    # process one after another (one usable CPU) or on a pool (two)
    args = ["fit", *_data_args(dataset_dir), *FIT_ARGS, "--seed", "8"]
    files, crosschain = {}, {}
    for n_cpus in (1, 2):
        set_usable_cpus(monkeypatch, n_cpus)
        for chains in (1, 2, 3):
            out = tmp_path / f"cpus{n_cpus}-chains{chains}"
            assert _run([*args, "--chains", str(chains), "--out", str(out)]).exit_code == 0
            for i in range(1, chains + 1):
                for stem, ext in (("chain", "csv"), ("metadata", "json"), ("summary", "csv")):
                    name = f"{stem}.{ext}" if chains == 1 else f"{stem}_{i:02d}.{ext}"
                    files.setdefault((i, stem), []).append((out / name).read_bytes())
            if chains > 1:
                crosschain.setdefault(chains, []).append((out / "crosschain.csv").read_bytes())
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["artifacts"] == sorted(p.name for p in out.iterdir())
        # a pool of two for two chains and for three
        assert [pool["max_workers"] for pool in forks] == ([] if n_cpus == 1 else [2, 2])
    assert {key: len(texts) for key, texts in files.items()} == {
        (i, stem): 2 * (4 - i) for i in (1, 2, 3) for stem in ("chain", "metadata", "summary")}
    for key, texts in files.items():
        assert len(set(texts)) == 1, key
    for chains, texts in crosschain.items():
        assert len(texts) == 2 and texts[0] == texts[1], chains
    assert files[1, "chain"][0] != files[2, "chain"][0]


def test_crosschain_equals_the_reference_on_the_saved_chains(dataset_dir, tmp_path):
    # the workers send back per-chain moments, not draws; what fit combines
    # from them must be what the saved chains give
    out = tmp_path / "fit"
    assert _run(["fit", *_data_args(dataset_dir), *FIT_ARGS, "--chains", "2",
                 "--seed", "6", "--out", str(out)]).exit_code == 0
    chains = [load_chain(out / f"chain_{i:02d}.csv", out / f"metadata_{i:02d}.json")
              for i in (1, 2)]
    rows = [line.split(",") for line in (out / "crosschain.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == list(chains[0].columns)
    chain_ess = [ess_and_rho1(c.draws, constant_columns(c.draws))[0] for c in chains]
    rhat = split_rhat([chain_moments(c.draws, e) for c, e in zip(chains, chain_ess)])
    ess = sum(chain_ess)
    for j, row in enumerate(rows):
        assert float(row[1]) == rhat[j]
        # the 1-d reference sums each piece in another order
        reference = split_rhat_reference([c.draws[:, j] for c in chains])
        assert float(row[1]) == pytest.approx(reference, rel=1e-12)
        assert float(row[2]) == ess[j]


def test_fit_worker_failures_keep_their_exit_codes(dataset_dir, tmp_path, monkeypatch):
    args = ["fit", *_data_args(dataset_dir), *FIT_ARGS, "--chains", "2"]
    # a chain file that cannot be written is an OSError in chain 2's worker
    blocked = tmp_path / "blocked"
    (blocked / "chain_02.csv").mkdir(parents=True)
    result = _run([*args, "--out", str(blocked)])
    assert result.exit_code == 2
    assert "chain_02.csv" in result.output
    assert not (blocked / "manifest.json").exists()
    # forked workers inherit the patched factorisation and fail in sweep 1
    fail_location_factorisations(monkeypatch)
    result = _run([*args, "--out", str(tmp_path / "failed")])
    assert result.exit_code == 3
    assert "sampler error: sweep 1: location block" in result.output


def test_fit_log_pace_with_windspeed(dataset_dir, tmp_path):
    out = tmp_path / "fit"
    result = _run(["fit", *_data_args(dataset_dir), *FIT_ARGS,
                   "--response", "log-pace", "--windspeed", "--out", str(out)])
    assert result.exit_code == 0, result.output
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["response"] == "log_pace"
    assert meta["include_windspeed"] is True
    header = (out / "chain.csv").read_text().splitlines()[0]
    assert "lambda_wind" in header.split(",")
    result = _run(["ppc", "--fit", str(out)])
    assert result.exit_code == 0, result.output
    _assert_histograms_conserve_mass(out, out / "ppc")


def test_fit_bad_header_exits_2(dataset_dir, tmp_path):
    bad = tmp_path / "results.csv"
    lines = (dataset_dir / "results.csv").read_text().splitlines()
    bad.write_text("\n".join(["athlete,course"] + lines[1:]) + "\n")
    result = _run(["fit", "--data", str(bad),
                   "--covariates", str(dataset_dir / "races.csv"),
                   "--rainfall", str(dataset_dir / "rainfall.csv"),
                   "--sex", "M", *FIT_ARGS, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "error" in result.output
    assert not (tmp_path / "out").exists()


def test_fit_missing_input_exits_2(dataset_dir, tmp_path):
    result = _run(["fit", "--data", str(tmp_path / "nope.csv"),
                   "--covariates", str(dataset_dir / "races.csv"),
                   "--rainfall", str(dataset_dir / "rainfall.csv"),
                   "--sex", "M", "--out", str(tmp_path / "out")])
    assert result.exit_code == 2


def _put_bad_byte(path, line):
    """Start the 1-based `line` of a file with a byte that is not UTF-8."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("name", ["results.csv", "races.csv", "rainfall.csv", "config.json"])
def test_fit_input_that_is_not_utf8_exits_2_naming_its_line(dataset_dir, tmp_path, name):
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    config = data / "config.json"
    config.write_text(json.dumps({"include_windspeed": False, "mcmc": {"thin": 5}}, indent=2))
    _put_bad_byte(data / name, 3)
    result = _run(["fit", *_data_args(data), *FIT_ARGS, "--config", str(config),
                   "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error: {data / name}: line 3: not UTF-8 text (byte 0xff" in result.output
    assert not (tmp_path / "out").exists()


def test_fit_config_that_is_not_json_exits_2_naming_its_line(dataset_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{\n  "include_windspeed": false,\n  "d_bar" 6.0\n}\n')
    result = _run(["fit", *_data_args(dataset_dir), *FIT_ARGS, "--config", str(config),
                   "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert (f"error: {config}: line 3, column 11: not JSON: Expecting ':' delimiter"
            in result.output)


def _copy_with_cell(dataset_dir, tmp_path, name, line, column, value):
    """A copy of the data set whose file `name` holds `value` in `column` of
    its 1-based `line`; returns the copy's directory."""
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    lines = (data / name).read_text(encoding="utf-8").splitlines()
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[line - 1] = ",".join(cells)
    (data / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data


NUMERIC_COLUMNS = pytest.mark.parametrize("name, column", [
    ("results.csv", "finish_time_min"), ("races.csv", "distance_miles"),
    ("rainfall.csv", "rainfall_mm")])


@NUMERIC_COLUMNS
def test_fit_underscored_number_exits_2_naming_its_line(dataset_dir, tmp_path, name, column):
    # float() reads "4_0" as 40, a valid value in each of these columns
    data = _copy_with_cell(dataset_dir, tmp_path, name, 3, column, "4_0")
    result = _run(["fit", *_data_args(data), *FIT_ARGS, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error: {data / name}: line 3: unparseable" in result.output
    assert "'4_0'" in result.output


@NUMERIC_COLUMNS
def test_fit_non_ascii_digits_exit_2_naming_their_line(dataset_dir, tmp_path, name, column):
    # float() reads the Arabic-Indic digits "\u0664\u0660" as 40
    cell = "\u0664\u0660"
    assert float(cell) == 40.0
    data = _copy_with_cell(dataset_dir, tmp_path, name, 3, column, cell)
    result = _run(["fit", *_data_args(data), *FIT_ARGS, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error: {data / name}: line 3: unparseable" in result.output
    assert repr(cell) in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sex", ["X", "m", ""])
def test_fit_result_of_unknown_sex_exits_2_naming_its_line(dataset_dir, tmp_path, sex):
    # a sex that is neither M nor F is refused, not dropped by the sex filter
    data = _copy_with_cell(dataset_dir, tmp_path, "results.csv", 3, "sex", sex)
    result = _run(["fit", *_data_args(data), *FIT_ARGS, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert (f"error: {data / 'results.csv'}: line 3: unknown sex {sex!r}, "
            f"expected one of M, F" in result.output)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("course", ["Herrington Park, Durham", 'Herrington "Park"',
                                    "Herrington\nPark", "Herrington\r\nPark"])
def test_fit_level_name_that_an_artifact_cannot_hold_exits_2_naming_its_line(
        dataset_dir, tmp_path, course):
    # legal as a quoted input cell, but the artifacts write level names in
    # unquoted cells: summary.csv would get a row of the wrong width, and
    # every post-fit command would then refuse the fit's own chain.csv
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    for name in ("results.csv", "races.csv"):
        with open(data / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        column = rows[0].index("course")
        for row in rows:
            row[column] = course if row[column] == "Course001" else row[column]
        with open(data / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        if name == "results.csv":
            # no earlier row holds a line break, so row k starts on line k + 1
            line = 1 + next(k for k, row in enumerate(rows) if row[column] == course)
    result = _run(["fit", *_data_args(data), *FIT_ARGS, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert (f"error: {data / 'results.csv'}: line {line}: level name {course!r} holds "
            f"a comma, a double quote or a line break" in result.output)
    assert not (tmp_path / "out").exists()


def test_fit_duplicate_result_exits_2_naming_both_lines(dataset_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    lines = (data / "results.csv").read_text().splitlines()
    # line 3's athlete again in line 3's race, with another time
    lines.append(lines[2].replace(lines[2].split(",")[4], "47.5"))
    (data / "results.csv").write_text("\n".join(lines) + "\n")
    athlete, course, season = lines[2].split(",")[:3]
    result = _run(["fit", *_data_args(data), *FIT_ARGS, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert (f"error: {data / 'results.csv'}: line {len(lines)}: duplicate result for "
            f"athlete {athlete} in race {course} {season} (first seen on line 3)"
            in result.output)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, line, column", [("races.csv", 2, "distance_miles"),
                                                ("rainfall.csv", 3, "rainfall_mm")])
def test_fit_covariate_of_1e300_exits_3_from_the_location_block(dataset_dir, tmp_path,
                                                                 name, line, column):
    # a finite covariate so large that the location block's column norms
    # overflow is not refused as input: no bound on the covariates is
    # imposed, the overflow raises no numpy warning, and the first block
    # draw fails (races.csv line 2 and rainfall.csv line 3 are the first
    # race's distance and month)
    data = _copy_with_cell(dataset_dir, tmp_path, name, line, column, "1e300")
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        result = _run(["fit", *_data_args(data), *FIT_ARGS, "--out", str(tmp_path / "out")])
    assert [str(w.message) for w in warned] == []
    assert result.exit_code == 3, result.output
    assert ("sampler error: sweep 1: location block precision is not positive definite"
            in result.output)


@pytest.mark.parametrize("column, name", [("distance_miles", "distance"),
                                          ("windspeed", "windspeed")])
def test_fit_covariate_whose_mean_overflows_exits_2_naming_its_line(dataset_dir, tmp_path,
                                                                    column, name):
    # 1e308 in the first race's row: the mean over its finishers overflows,
    # whether or not the column is fitted
    data = _copy_with_cell(dataset_dir, tmp_path, "races.csv", 2, column, "1e308")
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        result = _run(["fit", *_data_args(data), *FIT_ARGS, "--out", str(tmp_path / "out")])
    assert [str(w.message) for w in warned] == []
    assert result.exit_code == 2, result.output
    assert (f"error: {data / 'races.csv'}: line 2: {name} 1e+308 makes the mean {name} "
            f"over the fitted results overflow" in result.output)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("iterations,chains", [(3, 2), (1, 1)])
def test_fit_too_few_stored_draws_exits_2_before_sampling(dataset_dir, tmp_path,
                                                          iterations, chains):
    out = tmp_path / "out"
    result = _run(["fit", *_data_args(dataset_dir), "--burn-in", "0",
                   "--iterations", str(iterations), "--thin", "1",
                   "--chains", str(chains), "--out", str(out)])
    assert result.exit_code == 2
    assert "--iterations" in result.output and "--thin" in result.output
    assert not list(tmp_path.rglob("chain*.csv"))


def test_fit_sampler_failure_exits_3(dataset_dir, tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise SamplerError("sweep 3: slice bracket failure")
    monkeypatch.setattr("racemix.cli.run_chains", explode)
    result = _run(["fit", *_data_args(dataset_dir), *FIT_ARGS,
                   "--out", str(tmp_path / "out")])
    assert result.exit_code == 3
    assert "sampler error" in result.output


def test_fit_location_block_failure_exits_3(dataset_dir, tmp_path, monkeypatch):
    fail_location_factorisations(monkeypatch)
    result = _run(["fit", *_data_args(dataset_dir), *FIT_ARGS,
                   "--out", str(tmp_path / "out")])
    assert result.exit_code == 3
    assert "sampler error: sweep 1: location block" in result.output
    assert "tau_obs=" in result.output


def test_fit_internal_value_error_is_not_an_input_error(dataset_dir, tmp_path,
                                                        monkeypatch):
    def bug(*args, **kwargs):
        raise ValueError("an internal bug")
    monkeypatch.setattr("racemix.cli.run_chains", bug)
    result = CliRunner().invoke(main, ["fit", *_data_args(dataset_dir), *FIT_ARGS,
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code != 2
    assert isinstance(result.exception, ValueError)


def test_fit_chain_replays_alone_from_its_metadata(dataset_dir, tmp_path):
    out = tmp_path / "fit"
    assert _run(["fit", *_data_args(dataset_dir), *FIT_ARGS, "--chains", "2",
                 "--seed", "6", "--out", str(out)]).exit_code == 0
    meta = json.loads((out / "metadata_02.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    config = ModelConfig.from_dict(manifest["config"]["model"])
    design = build_design(
        parse_results(dataset_dir / "results.csv", manifest["config"]["sex"]),
        parse_races(dataset_dir / "races.csv"),
        parse_rainfall(dataset_dir / "rainfall.csv"), config)
    seed = np.random.SeedSequence(meta["seed_entropy"], spawn_key=meta["seed_spawn_key"])
    save_chain(run_chain(design, config, rng_seed=seed),
               tmp_path / "chain.csv", tmp_path / "metadata.json")
    assert (tmp_path / "chain.csv").read_bytes() == (out / "chain_02.csv").read_bytes()
    assert (tmp_path / "metadata.json").read_bytes() == (out / "metadata_02.json").read_bytes()


def test_fit_config_file_precedence(dataset_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "response": "log-pace",
        "mcmc": {"burn_in": 100, "iterations": 600, "thin": 4, "seed": 9},
    }))
    out = tmp_path / "a"
    result = _run(["fit", *_data_args(dataset_dir), "--config", str(config),
                   "--out", str(out)])
    assert result.exit_code == 0, result.output
    meta = json.loads((out / "metadata.json").read_text())
    # config file beats package defaults
    assert meta["response"] == "log_pace"
    assert meta["burn_in"] == 100 and meta["iterations"] == 600
    assert meta["thin"] == 4 and meta["seed"] == 9
    # explicit flags beat the config file, untouched keys keep config values
    out2 = tmp_path / "b"
    result = _run(["fit", *_data_args(dataset_dir), "--config", str(config),
                   "--response", "log-time", "--iterations", "800",
                   "--out", str(out2)])
    assert result.exit_code == 0, result.output
    meta2 = json.loads((out2 / "metadata.json").read_text())
    assert meta2["response"] == "log_time"
    assert meta2["iterations"] == 800
    assert meta2["thin"] == 4
    # a flag given at the package default still beats the config file
    out3 = tmp_path / "c"
    result = _run(["fit", *_data_args(dataset_dir), "--config", str(config),
                   "--seed", "0", "--out", str(out3)])
    assert result.exit_code == 0, result.output
    meta3 = json.loads((out3 / "metadata.json").read_text())
    assert meta3["seed"] == 0 and meta3["thin"] == 4


@pytest.mark.parametrize("doc", [{"mcmc": {"seed": "x"}}, {"priors": {"v_rho_cur": "x"}},
                                 {"d_bar": "x"}, {"priors": {"v_intercept": math.nan}},
                                 {"priors": {"b_tau_obs": math.inf}}, {"d_bar": math.nan},
                                 {"w_bar": -math.inf}])
def test_fit_non_numeric_config_value_exits_2(dataset_dir, tmp_path, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))  # NaN and Infinity are JSON that json.load reads
    result = _run(["fit", *_data_args(dataset_dir), "--config", str(config),
                   "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "error" in result.output
    name, value = next(iter(doc.items()))
    if isinstance(value, dict):
        name, value = next(iter(value.items()))
    if isinstance(value, float):
        assert f"{name} must be a finite number" in result.output


@pytest.mark.parametrize("doc,args,field", [
    ({"include_windspeed": "false"}, FIT_ARGS, "include_windspeed"),
    ({"mcmc": {"burn_in": 200, "iterations": 1200, "thin": 2.9}}, [], "mcmc thin"),
    ({"mcmc": {"seed": True}}, FIT_ARGS, "mcmc seed"),
    ({"priors": {"v_intercept": True}}, FIT_ARGS, "prior v_intercept"),
    ({"d_bar": False}, FIT_ARGS, "d_bar"),
    ({"mcmc": {"seed": -5}}, FIT_ARGS, "seed"),
    ({}, [*FIT_ARGS, "--seed", "-3"], "seed"),
])
def test_fit_config_value_of_the_wrong_json_type_exits_2(dataset_dir, tmp_path, doc, args,
                                                         field):
    # a bool is not a number, a fraction not an integer and a string not a bool
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    result = _run(["fit", *_data_args(dataset_dir), *args, "--config", str(config),
                   "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error: {field} must be" in result.output
    assert not (tmp_path / "out").exists()


def test_fit_default_out_uses_env_root(dataset_dir, tmp_path):
    result = _run(["fit", *_data_args(dataset_dir), *FIT_ARGS],
                  env={"RACEMIX_OUT_ROOT": str(tmp_path)})
    assert result.exit_code == 0, result.output
    assert (tmp_path / "fit" / "chain.csv").exists()


# ---------------------------------------------------------------- summarize

def test_summarize_prints_scalar_table(fit_dir):
    result = _run(["summarize", "--fit", str(fit_dir)])
    assert result.exit_code == 0, result.output
    assert "tau_obs" in result.output
    assert "intercept" in result.output
    assert "effect rows" in result.output
    assert (fit_dir / "summary.csv").exists()


def test_summarize_out_override(fit_dir, tmp_path):
    out = tmp_path / "s.csv"
    result = _run(["summarize", "--fit", str(fit_dir), "--out", str(out)])
    assert result.exit_code == 0
    assert out.read_text().splitlines()[0].startswith("parameter,")


def test_summarize_bad_index_exits_2(fit_dir):
    result = _run(["summarize", "--fit", str(fit_dir), "--index", "3"])
    assert result.exit_code == 2
    assert "out of range" in result.output


def test_summarize_non_fit_directory_exits_2(tmp_path):
    result = _run(["summarize", "--fit", str(tmp_path)])
    assert result.exit_code == 2


def test_commands_read_only_the_chains_of_the_latest_fit(dataset_dir, tmp_path, monkeypatch):
    # a one-chain fit leaves chain.csv behind; a two-chain fit into the
    # same directory must not have it read back
    out = tmp_path / "fit"
    data = _data_args(dataset_dir)
    assert _run(["fit", *data, "--burn-in", "100", "--iterations", "600", "--thin", "5",
                 "--out", str(out)]).exit_code == 0
    set_usable_cpus(monkeypatch, 1)
    assert _run(["fit", *data, *FIT_ARGS, "--chains", "2", "--out", str(out)]).exit_code == 0
    assert (out / "chain.csv").exists()
    for index in (1, 2):
        summary = tmp_path / f"summary_{index}.csv"
        result = _run(["summarize", "--fit", str(out), "--index", str(index),
                       "--out", str(summary)])
        assert result.exit_code == 0, result.output
        assert summary.read_bytes() == (out / f"summary_{index:02d}.csv").read_bytes()
    result = _run(["diagnose", "--fit", str(out), "--index", "2"])
    assert result.exit_code == 0, result.output
    assert "(240 draws" in result.output and (out / "trace_02.csv").exists()
    result = _run(["ppc", "--fit", str(out), "--out", str(tmp_path / "ppc")])
    assert result.exit_code == 0, result.output
    predicted = observed = 0
    for row in (tmp_path / "ppc" / "histograms.csv").read_text().splitlines()[1:]:
        cells = row.split(",")
        predicted += int(cells[4])
        observed += int(cells[5])
    assert predicted == 240 * observed


def _short_fit_args(dataset_dir, out):
    return ["fit", *_data_args(dataset_dir), "--burn-in", "50", "--iterations", "200",
            "--thin", "10", "--out", str(out)]


def test_fit_names_the_files_an_earlier_fit_left(dataset_dir, tmp_path, monkeypatch):
    set_usable_cpus(monkeypatch, 1)
    out = tmp_path / "fit"
    args = _short_fit_args(dataset_dir, out)
    assert _run(args).exit_code == 0
    result = _run([*args, "--chains", "2"])
    assert result.exit_code == 0, result.output
    assert result.stderr.startswith(f"warning: {out} keeps files of an earlier fit")
    assert result.stderr.rstrip().endswith(": chain.csv, metadata.json, summary.csv")
    result = _run(args)
    assert result.exit_code == 0, result.output
    assert result.stderr.rstrip().endswith(
        ": chain_01.csv, chain_02.csv, crosschain.csv, metadata_01.json, "
        "metadata_02.json, summary_01.csv, summary_02.csv")
    # nothing is deleted
    assert (out / "crosschain.csv").exists() and (out / "chain_02.csv").exists()
    # a manifest that cannot be read names nothing, and fit replaces it
    for damaged in ("{", "[]", '{"artifacts": 3}'):
        (out / "manifest.json").write_text(damaged)
        result = _run(args)
        assert result.exit_code == 0 and result.stderr == "", result.output


@pytest.mark.parametrize("chains", ["1", "2"])
def test_fit_refitted_with_the_same_chain_count_warns_of_nothing(dataset_dir, tmp_path,
                                                                 monkeypatch, chains):
    set_usable_cpus(monkeypatch, 1)
    args = [*_short_fit_args(dataset_dir, tmp_path / "fit"), "--chains", chains]
    for _ in range(2):
        result = _run(args)
        assert result.exit_code == 0 and result.stderr == "", result.output


def test_commands_find_chain_11_of_100_and_name_a_missing_file(tmp_path):
    # chain files are named by index; a text sort would put chain_100 at 11
    chain = run_chain(make_toy_design(),
                      ModelConfig.from_dict({"mcmc": {"burn_in": 0, "iterations": 4, "thin": 1}}))
    fit = tmp_path / "fit"
    fit.mkdir()
    for i in range(1, 101):
        save_chain(ChainOutput(draws=chain.draws + i, columns=chain.columns, meta=chain.meta),
                   fit / f"chain_{i:02d}.csv", fit / f"metadata_{i:02d}.json")
    (fit / "manifest.json").write_text(json.dumps({"command": "fit", "config": {"chains": 100}}))
    expected = tmp_path / "expected.csv"
    write_summary_csv(summarize(load_chain(fit / "chain_11.csv", fit / "metadata_11.json")),
                      expected)
    result = _run(["summarize", "--fit", str(fit), "--index", "11"])
    assert result.exit_code == 0, result.output
    assert (fit / "summary_11.csv").read_bytes() == expected.read_bytes()
    assert _run(["summarize", "--fit", str(fit), "--index", "101"]).exit_code == 2
    (fit / "chain_07.csv").unlink()
    result = _run(["summarize", "--fit", str(fit), "--index", "7"])
    assert result.exit_code == 2
    assert "chain_07.csv is missing" in result.output


# metadata values that were once coerced or let through (thin 2.9 read as 2,
# "false" as True, a string of level names as one level per character)
META_DAMAGE = {
    "meta_thin_fraction": ({"thin": 2.9}, "thin must be an integer, got 2.9"),
    "meta_thin_zero": ({"thin": 0}, "thin must be >= 1, got 0"),
    "meta_burn_in_negative": ({"burn_in": -1}, "burn_in must be >= 0, got -1"),
    "meta_seed_bool": ({"seed": True}, "seed must be an integer, got True"),
    "meta_seed_negative": ({"seed": -1}, "seed must be >= 0, got -1"),
    "meta_windspeed_string": ({"include_windspeed": "false"},
                              "include_windspeed must be true or false, got 'false'"),
    "meta_d_bar_string": ({"d_bar": "6.2"}, "d_bar must be a number, got '6.2'"),
    "meta_response_unknown": ({"response": "log_speed"},
                              "response must be one of ('log_time', 'log_pace'), "
                              "got 'log_speed'"),
    "meta_courses_string": ({"courses": "C00C01C02"}, "courses must be an array of strings"),
}


@pytest.mark.parametrize("damage", ["one_draw", "bad_cell", "ragged_row", "missing_meta_key",
                                    "meta_not_object", *META_DAMAGE])
def test_summarize_damaged_chain_exits_2(fit_dir, tmp_path, damage):
    # with only input errors mapped to exit 2, damaged chain files must
    # still surface as input errors, not as tracebacks
    import shutil

    copy = tmp_path / "fit"
    shutil.copytree(fit_dir, copy)
    chain, meta = copy / "chain.csv", copy / "metadata.json"
    lines = chain.read_text().splitlines()
    n_columns = len(lines[0].split(","))
    # the message names the file and the 1-based line; the header is line 1
    where = {"bad_cell": "chain.csv, line 4, column 1 (intercept)",
             # the blank line 4 counts, although parsing skips it
             "ragged_row": f"chain.csv, line 5: {n_columns - 1} cell(s), expected {n_columns}",
             "meta_not_object": "metadata.json is not a JSON object",
             **{name: f"metadata.json: bad metadata value: {message}"
                for name, (_, message) in META_DAMAGE.items()}}
    if damage == "one_draw":
        chain.write_text("\n".join(lines[:2]) + "\n")
    elif damage == "bad_cell":
        chain.write_text("\n".join(lines[:3] + ["abc" + lines[3][1:]] + lines[4:]) + "\n")
    elif damage == "ragged_row":
        ragged = lines[3].rsplit(",", 1)[0]
        chain.write_text("\n".join(lines[:3] + ["", ragged] + lines[4:]) + "\n")
    elif damage == "missing_meta_key":
        doc = json.loads(meta.read_text())
        del doc["thin"]
        meta.write_text(json.dumps(doc))
    elif damage == "meta_not_object":
        meta.write_text("[]")
    else:
        meta.write_text(json.dumps({**json.loads(meta.read_text()), **META_DAMAGE[damage][0]}))
    result = _run(["summarize", "--fit", str(copy)])
    assert result.exit_code == 2
    assert "error" in result.output
    if damage in where:
        assert where[damage] in result.output


# ---------------------------------------------------------------- ppc

def test_ppc_writes_reports_and_histograms(fit_dir):
    result = _run(["ppc", "--fit", str(fit_dir), "--seed", "3"])
    assert result.exit_code == 0, result.output
    out = fit_dir / "ppc"
    reports = (out / "ppc.csv").read_text().splitlines()
    assert len(reports) == 1 + 5  # one row per simulated race
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ppc"
    assert manifest["seed"] == 3

    _assert_histograms_conserve_mass(fit_dir, out)


def _assert_histograms_conserve_mass(fit_dir, out):
    """Each race's predicted counts sum to draws x finishers, observed to finishers."""
    n_draws = len((fit_dir / "chain.csv").read_text().splitlines()) - 1
    finishers = {}
    for row in (out / "ppc.csv").read_text().splitlines()[1:]:
        cells = row.split(",")
        finishers[(cells[0], cells[1])] = int(cells[2])
    pred_sum: dict = {}
    obs_sum: dict = {}
    hist_rows = (out / "histograms.csv").read_text().splitlines()
    assert hist_rows[0] == ("course,season,bin_left,bin_right,"
                           "predicted_count,observed_count")
    for row in hist_rows[1:]:
        cells = row.split(",")
        key = (cells[0], cells[1])
        pred_sum[key] = pred_sum.get(key, 0) + int(cells[4])
        obs_sum[key] = obs_sum.get(key, 0) + int(cells[5])
    assert set(pred_sum) == set(finishers)
    for key, n in finishers.items():
        assert pred_sum[key] == n_draws * n
        assert obs_sum[key] == n


def test_ppc_race_filter(fit_dir, tmp_path):
    out = tmp_path / "ppc"
    result = _run(["ppc", "--fit", str(fit_dir), "--races", "Alnwick:17/18",
                   "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = (out / "ppc.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("Alnwick,17/18,")


def test_ppc_unknown_race_exits_2(fit_dir, tmp_path):
    result = _run(["ppc", "--fit", str(fit_dir), "--races", "Atlantis:17/18",
                   "--out", str(tmp_path / "ppc")])
    assert result.exit_code == 2
    assert "Atlantis" in result.output


def test_ppc_negative_seed_exits_2(fit_dir, tmp_path):
    result = _run(["ppc", "--fit", str(fit_dir), "--seed", "-2",
                   "--out", str(tmp_path / "ppc")])
    assert result.exit_code == 2
    assert "--seed" in result.output
    assert not (tmp_path / "ppc").exists()


def test_ppc_error_raised_for_one_race_exits_2(fit_dir, tmp_path, monkeypatch):
    # the race is simulated on a pool thread; its DataError must still reach
    # the command's error handler as a DataError
    simulate = racemix.predictive.posterior_predictive_race

    def failing(chain, design, course, season, rng):
        if (course, season) == design.races()[1]:
            raise DataError("bad race")
        return simulate(chain, design, course, season, rng)

    monkeypatch.setattr(racemix.predictive, "posterior_predictive_race", failing)
    result = _run(["ppc", "--fit", str(fit_dir), "--out", str(tmp_path / "ppc")])
    assert result.exit_code == 2
    assert "bad race" in result.output
    assert not (tmp_path / "ppc").exists()


@pytest.mark.parametrize("damage", ["tau_obs", "d_bar"])
def test_ppc_chain_that_predicts_no_finite_times_exits_2_naming_it(fit_dir, tmp_path,
                                                                   damage):
    # a tau_obs of 0 in draw 3 makes its noise infinite; a distance centre of
    # 1e6 makes the times of a draw whose gamma_dist is positive overflow exp
    fit = tmp_path / "fit"
    shutil.copytree(fit_dir, fit, ignore=shutil.ignore_patterns("ppc", "trace.csv",
                                                                "diagnostics.csv"))
    if damage == "tau_obs":
        lines = (fit / "chain.csv").read_text().splitlines()
        column = lines[0].split(",").index("tau_obs")
        cells = lines[3].split(",")
        cells[column] = "0.0"
        lines[3] = ",".join(cells)
        (fit / "chain.csv").write_text("\n".join(lines) + "\n")
        draw = "3"
    else:
        meta = json.loads((fit / "metadata.json").read_text())
        meta["d_bar"] = 1e6
        (fit / "metadata.json").write_text(json.dumps(meta))
        draw = r"\d+"
    result = _run(["ppc", "--fit", str(fit), "--out", str(tmp_path / "ppc")])
    assert result.exit_code == 2, result.output
    assert re.search(re.escape(f"error: {fit / 'chain.csv'} ({fit / 'metadata.json'}): ")
                     + f"draw {draw} predicts finish times that are not finite",
                     result.output), result.output
    assert not (tmp_path / "ppc").exists()


def test_ppc_is_deterministic(fit_dir, tmp_path):
    env = {"SOURCE_DATE_EPOCH": "1700000000"}
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["ppc", "--fit", str(fit_dir), "--seed", "8",
                 "--out", str(a)], env=env).exit_code == 0
    assert _run(["ppc", "--fit", str(fit_dir), "--seed", "8",
                 "--out", str(b)], env=env).exit_code == 0
    for name in ("ppc.csv", "histograms.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_ppc_detects_changed_inputs(tmp_path):
    # fresh dataset + fit so mutating the input cannot affect other tests
    spec = SyntheticSpec(n_athletes=10, n_courses=2, n_seasons=1, n_races=2,
                         mean_finishers=10, seed=44)
    data_dir = tmp_path / "data"
    simulate_dataset(spec).write_csv(data_dir)
    out = tmp_path / "fit"
    assert _run(["fit", *_data_args(data_dir), *FIT_ARGS,
                 "--out", str(out)]).exit_code == 0

    results = data_dir / "results.csv"
    lines = results.read_text().splitlines()
    cells = lines[1].split(",")
    cells[4] = "43.21"
    lines[1] = ",".join(cells)
    results.write_text("\n".join(lines) + "\n")

    result = _run(["ppc", "--fit", str(out)])
    assert result.exit_code == 2
    assert "sha256 mismatch" in result.output
    # an explicit override accepts the new file
    result = _run(["ppc", "--fit", str(out), "--data", str(results)])
    assert result.exit_code == 0, result.output


def test_ppc_reads_no_model_config_from_the_manifest(fit_dir, tmp_path):
    # the design comes from the chain metadata: a manifest model config that
    # would not parse does not matter
    env = {"SOURCE_DATE_EPOCH": "0"}
    fit = tmp_path / "fit"
    shutil.copytree(fit_dir, fit, ignore=shutil.ignore_patterns("ppc"))
    assert _run(["ppc", "--fit", str(fit), "--seed", "4", "--out", str(tmp_path / "a")],
                env=env).exit_code == 0
    manifest = json.loads((fit / "manifest.json").read_text())
    manifest["config"]["model"]["priors"]["v_nonsense"] = 1.0
    (fit / "manifest.json").write_text(json.dumps(manifest))
    result = _run(["ppc", "--fit", str(fit), "--seed", "4", "--out", str(tmp_path / "b")],
                  env=env)
    assert result.exit_code == 0, result.output
    for name in ("ppc.csv", "histograms.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("command", ["summarize", "ppc", "diagnose"])
@pytest.mark.parametrize("field, value", [
    pytest.param(field, value, id=field) for field, value in (
        ("config", []),
        ("inputs", []),
        ("inputs.data", "results.csv"),
        ("inputs.data.path", 5),
        ("inputs.rainfall.sha256", None))])
def test_post_fit_commands_refuse_a_malformed_manifest(fit_dir, tmp_path, command, field,
                                                       value):
    # each is an input error naming the field, not a traceback; a path of 5
    # would otherwise be taken for file descriptor 5
    fit = tmp_path / "fit"
    shutil.copytree(fit_dir, fit, ignore=shutil.ignore_patterns("ppc"))
    manifest = json.loads((fit / "manifest.json").read_text())
    *parents, key = field.split(".")
    doc = manifest
    for parent in parents:
        doc = doc[parent]
    doc[key] = value
    (fit / "manifest.json").write_text(json.dumps(manifest))
    result = _run([command, "--fit", str(fit), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    kind = "a string" if field.endswith(("path", "sha256")) else "a JSON object"
    assert f"manifest.json: {field} is not {kind}" in result.output


# ---------------------------------------------------------------- simulate

def test_simulate_default_spec(tmp_path):
    out = tmp_path / "synthetic"
    result = _run(["simulate", "--seed", "5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    for name in ("results.csv", "races.csv", "rainfall.csv", "truth.json",
                 "manifest.json"):
        assert (out / name).exists(), name
    truth = json.loads((out / "truth.json").read_text())
    assert truth["seed"] == 5
    assert truth["sex"] == "M"
    assert len(truth["truth"]["athlete_effects"]) == 200


def test_simulate_spec_file_and_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_athletes": 8, "n_courses": 2,
                                     "n_seasons": 1, "n_races": 2,
                                     "mean_finishers": 8, "seed": 13}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["simulate", "--spec", str(spec_path), "--out", str(a)]).exit_code == 0
    assert _run(["simulate", "--spec", str(spec_path), "--out", str(b)]).exit_code == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    n_rows = len((a / "results.csv").read_text().splitlines())
    assert n_rows == 1 + 2 * 8


def test_simulate_invalid_spec_exits_2(tmp_path):
    spec_path = tmp_path / "spec.json"
    for doc, args, message in (({"n_athletes": 0}, [], "n_athletes"),
                               ({}, ["--seed", "-1"], "seed must be >= 0, got -1")):
        spec_path.write_text(json.dumps(doc))
        result = _run(["simulate", "--spec", str(spec_path), *args,
                       "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert message in result.output
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc,message", [
    ({"n_athletes": 20.9}, "n_athletes must be an integer, got 20.9"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"rainfall_range": [10.0, "120"]}, "rainfall_range must be a number, got '120'"),
    ({"n_athlete": 20}, "unknown spec fields: ['n_athlete']"),
    ({"truth": dict(SyntheticSpec().to_dict()["truth"], tau_obs=True)},
     "tau_obs must be a number, got True"),
    ({"rainfall_range": 5}, "rainfall_range must be an array of numbers, got 5"),
    ({"distance_range": "ab"}, "distance_range must be an array of numbers, got 'ab'"),
    ({"truth": [1]}, "truth must be a JSON object, got [1]"),
    ({"truth": {"athlete_effects": 3}},
     "truth.athlete_effects must be an array of numbers, got 3"),
    ({"truth": dict(SyntheticSpec().to_dict()["truth"], tau_obss=300.0)},
     "unknown truth fields: ['tau_obss']"),
    ({"truth": {"intercept": 3.85}}, "truth is missing fields ['gamma_dist', "),
    ({"truth": dict(SyntheticSpec().to_dict()["truth"], tau_obs=-1.0)},
     "truth: tau_obs must be positive, got -1.0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    # json.load reads NaN and Infinity; such a truth would simulate
    # non-finite finish times, which fit refuses
    ({"truth": dict(SyntheticSpec().to_dict()["truth"], intercept=math.nan)},
     "truth: intercept must be finite, got nan"),
    ({"truth": dict(SyntheticSpec().to_dict()["truth"], tau_obs=math.inf)},
     "truth: tau_obs must be finite, got inf"),
    ({"truth": dict(SyntheticSpec().to_dict()["truth"],
                    course_effects=[0.0, -math.inf] + [0.0] * 6)},
     "truth: course_effects[1] must be finite, got -inf"),
    # finite truths whose finish times overflow to inf or underflow to 0
    ({"truth": dict(SyntheticSpec().to_dict()["truth"], intercept=800.0)},
     "truth: simulated finish time inf of athlete A00000 in race Alnwick 17/18 "
     "is not finite and positive"),
    ({"truth": dict(SyntheticSpec().to_dict()["truth"], intercept=-800.0)},
     "truth: simulated finish time 0.0 of athlete A00000 in race Alnwick 17/18 "
     "is not finite and positive"),
    # finite ranges whose centring means overflow are the spec's fault
    ({"distance_range": [1.0, 1.7e308]},
     "distance_range [1.0, 1.7e+308] makes the mean distance over the simulated "
     "results overflow"),
    ({"windspeed_range": [0.0, 1.7e308],
      "truth": dict(SyntheticSpec().to_dict()["truth"], lambda_wind=0.01)},
     "windspeed_range [0.0, 1.7e+308] makes the mean windspeed over the simulated "
     "results overflow"),
])
def test_simulate_spec_value_of_the_wrong_json_type_or_name_exits_2(tmp_path, doc, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        result = _run(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
    assert [str(w.message) for w in warned] == []
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()


def _non_default_spec():
    doc = SyntheticSpec(n_athletes=30, n_courses=4, n_seasons=3, n_races=9,
                        mean_finishers=12, seed=5, response="log_pace").to_dict()
    doc["truth"]["lambda_wind"] = 0.01
    return doc


@pytest.mark.parametrize("doc, digests", [
    (None, {"results.csv": "645d966a04fd7207f7611a3aa8a69843c779cfabce80fa91bfb84768572bd47e",
            "races.csv": "a33b9612b517e1b3c95a1ad5b603db6b1880ff85a1345a2f60b4cabd056bfaf3",
            "rainfall.csv": "7b2c001a3cd1c38d25c9c34d855e0ba55ca4e2cbbf46f516373964613e9e071c",
            "truth.json": "0ce64d458bf55fc38de8719de729566a1f1ff7611cc32b8deb179ccc110271c1"}),
    (_non_default_spec(),
     {"results.csv": "d46a1a4d6368c379c8ecefde4b1e4eb1a876198888f76641c8e0e462993f4c23",
      "races.csv": "59ea8a0824d1c57ad522fa6adb96883b9bb288383d55f33fa5285893fac1a30a",
      "rainfall.csv": "442cf1ba653f37838c65a5b8dc77c559524d2bc4feff801698eb3a6cbb4759e1",
      "truth.json": "9492ee426e18ba08ce851f2697665cacab253a01a5b06cb393e9e7a972bd0553"}),
], ids=["default", "non_default"])
def test_simulate_writes_the_pinned_bytes(tmp_path, doc, digests):
    # every benchmark input and recovery dataset comes from simulate_dataset:
    # a rewrite of it must keep its generator calls, and so these bytes
    args = []
    if doc is not None:
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        args = ["--spec", str(tmp_path / "spec.json")]
    result = _run(["simulate", *args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_simulated_data_refits(tmp_path):
    # the advertised loop: simulate then fit the synthetic CSVs
    out = tmp_path / "synthetic"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_athletes": 12, "n_courses": 2,
                                     "n_seasons": 2, "n_races": 3,
                                     "mean_finishers": 9, "seed": 2}))
    assert _run(["simulate", "--spec", str(spec_path), "--out", str(out)]).exit_code == 0
    result = _run(["fit", *_data_args(out), *FIT_ARGS,
                   "--out", str(tmp_path / "fit")])
    assert result.exit_code == 0, result.output


# ---------------------------------------------------------------- diagnose

def test_diagnose_writes_trace_and_table(fit_dir, tmp_path):
    out = tmp_path / "diag"
    result = _run(["diagnose", "--fit", str(fit_dir), "--out", str(out)])
    assert result.exit_code == 0, result.output
    header = (fit_dir / "chain.csv").read_text().splitlines()[0]
    n_params = len(header.split(","))
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,parameter,value"
    assert len(trace) == 1 + 240 * n_params
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "parameter,ess,rho1,degenerate"
    assert len(diag) == 1 + n_params
    rows = {line.split(",")[0]: line.split(",") for line in diag[1:]}
    # corner-constrained baseline: flagged, zero autocorrelation slot
    base = rows["athlete[A00000]"]
    assert base[3] == "1" and float(base[2]) == 0.0
    assert float(rows["tau_obs"][1]) > 0.0
    assert rows["tau_obs"][3] == "0"
    # rho1 is lag 1 of the full autocorrelation, whatever the longest lag asked
    # for, from one column-wise call over the free (non-constant) columns
    chain = load_chain(fit_dir / "chain.csv", fit_dir / "metadata.json")
    free = ~constant_columns(chain.draws)
    rho1 = autocorrelation(chain.draws[:, free], 50)[1]
    names = [name for name, keep in zip(chain.columns, free) if keep]
    assert rows["tau_obs"][2] == repr(float(rho1[names.index("tau_obs")]))


def test_diagnose_defaults_into_fit_dir(fit_dir):
    result = _run(["diagnose", "--fit", str(fit_dir)])
    assert result.exit_code == 0
    assert (fit_dir / "trace.csv").exists()
    assert (fit_dir / "diagnostics.csv").exists()


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="diagnose forks its worker only where fork exists")


@pytest.fixture(scope="session")
def two_chain_fit_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-fit-2") / "fit"
    with pytest.MonkeyPatch.context() as monkeypatch:
        set_usable_cpus(monkeypatch, 1)
        result = _run(["fit", *_data_args(dataset_dir), *FIT_ARGS, "--chains", "2",
                       "--seed", "12", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture
def forks(monkeypatch):
    """The keyword arguments of each process pool constructed, such as the
    one diagnose forks its worker in."""
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return pools


@needs_fork
def test_diagnose_files_do_not_depend_on_the_cpu_count(two_chain_fit_dir, tmp_path,
                                                       monkeypatch, forks):
    # the serial order with one usable CPU, the forked worker with two
    runs = []
    for n_cpus in (1, 2):
        set_usable_cpus(monkeypatch, n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        result = _run(["diagnose", "--fit", str(two_chain_fit_dir), "--index", "2",
                       "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(forks) == n_cpus - 1
        runs.append((result.output.replace(str(out), "<out>"),
                     {p.name: p.read_bytes() for p in out.iterdir()}))
    # one worker, forked whatever the platform's default start method
    assert forks[0]["max_workers"] == 1
    assert forks[0]["mp_context"].get_start_method() == "fork"
    assert runs[0] == runs[1]
    assert sorted(runs[0][1]) == ["diagnostics_02.csv", "trace_02.csv"]
    assert "(240 draws" in runs[0][0]
    assert not (two_chain_fit_dir / "trace_02.csv").exists()


def _damage_chain(fit, damage):
    chain = fit / "chain.csv"
    lines = chain.read_text().splitlines()
    if damage == "bad_cell":
        lines[3] = "abc" + lines[3][1:]
    else:
        # write_trace_csv refuses this file too, but the read's error is the one shown
        lines[4] = lines[4].rsplit(",", 1)[0]
    chain.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("damage, where", [
    ("bad_cell", "chain.csv, line 4, column 1 (intercept): cannot parse"),
    ("ragged_row", "chain.csv, line 5: "),
])
def test_diagnose_bad_chain_exits_2_and_keeps_the_earlier_trace(fit_dir, tmp_path,
                                                                monkeypatch, n_cpus,
                                                                damage, where):
    fit = tmp_path / "fit"
    shutil.copytree(fit_dir, fit, ignore=shutil.ignore_patterns(
        "ppc", "trace.csv", "diagnostics.csv"))
    _damage_chain(fit, damage)
    (fit / "trace.csv").write_bytes(b"an earlier trace\n")
    names = sorted(p.name for p in fit.iterdir())
    set_usable_cpus(monkeypatch, n_cpus)
    result = _run(["diagnose", "--fit", str(fit)])
    assert result.exit_code == 2, result.output
    assert where in result.output
    assert sorted(p.name for p in fit.iterdir()) == names
    assert (fit / "trace.csv").read_bytes() == b"an earlier trace\n"


@pytest.mark.parametrize("command, n_cpus", [("summarize", 1), ("diagnose", 1),
                                             ("diagnose", 2)])
@pytest.mark.parametrize("name", ["chain.csv", "metadata.json", "manifest.json"])
def test_fit_file_that_is_not_utf8_exits_2_naming_its_line(fit_dir, tmp_path, monkeypatch,
                                                           command, n_cpus, name):
    fit = tmp_path / "fit"
    shutil.copytree(fit_dir, fit, ignore=shutil.ignore_patterns(
        "ppc", "trace.csv", "diagnostics.csv"))
    _put_bad_byte(fit / name, 3)
    set_usable_cpus(monkeypatch, n_cpus)
    result = _run([command, "--fit", str(fit)])
    assert result.exit_code == 2, result.output
    assert f"error: {fit / name}: line 3: not UTF-8 text (byte 0xff" in result.output
    assert not (fit / "trace.csv").exists()


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_summarize_chain_cell_that_is_not_finite_exits_2_naming_it(fit_dir, tmp_path, cell):
    fit = tmp_path / "fit"
    shutil.copytree(fit_dir, fit, ignore=shutil.ignore_patterns("ppc"))
    lines = (fit / "chain.csv").read_text().splitlines()
    cells = lines[4].split(",")
    cells[1] = cell
    lines[4] = ",".join(cells)
    (fit / "chain.csv").write_text("\n".join(lines) + "\n")
    result = _run(["summarize", "--fit", str(fit)])
    assert result.exit_code == 2, result.output
    assert (f"error: {fit / 'chain.csv'}, line 5, column 2 (gamma_dist): "
            f"non-finite draw {cell!r}" in result.output)


@pytest.mark.parametrize("cell", ["1_0", "\u0661"])
def test_summarize_chain_cell_loadtxt_refuses_exits_2_naming_its_line(fit_dir, tmp_path,
                                                                      cell):
    # float() reads both ("\u0661" is an Arabic-Indic 1); loadtxt refuses
    # both and counts its rows from the first draw, not from the header
    fit = tmp_path / "fit"
    shutil.copytree(fit_dir, fit, ignore=shutil.ignore_patterns("ppc"))
    lines = (fit / "chain.csv").read_text().splitlines()
    lines[2] = cell + lines[2][lines[2].index(","):]
    (fit / "chain.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = _run(["summarize", "--fit", str(fit)])
    assert result.exit_code == 2, result.output
    assert (f"error: {fit / 'chain.csv'}, line 3, column 1 (intercept): "
            f"cannot parse {cell!r} as a number" in result.output)


def test_chain_refused_before_its_bad_byte_exits_2_naming_the_byte(fit_dir, tmp_path):
    # loadtxt stops at the "1_0" of line 3; the scan that looks for the line
    # to name decodes the file to its end, and so meets the bad byte
    fit = tmp_path / "fit"
    shutil.copytree(fit_dir, fit, ignore=shutil.ignore_patterns("ppc"))
    lines = (fit / "chain.csv").read_text().splitlines()
    lines[2] = "1_0" + lines[2][lines[2].index(","):]
    (fit / "chain.csv").write_text("\n".join(lines) + "\n")
    _put_bad_byte(fit / "chain.csv", len(lines))
    result = _run(["summarize", "--fit", str(fit)])
    assert result.exit_code == 2, result.output
    assert f"error: {fit / 'chain.csv'}: line {len(lines)}: not UTF-8 text" in result.output


def test_chain_values_near_the_float_maximum_give_finite_ess(two_chain_fit_dir, tmp_path,
                                                             monkeypatch):
    # squared, either value overflows the ESS's spectrum unless each column's
    # deviations are scaled first; both are finite draws that load_chain reads
    fit = tmp_path / "fit"
    shutil.copytree(two_chain_fit_dir, fit)
    lines = (fit / "chain_01.csv").read_text().splitlines()
    for line, column, cell in ((3, 1, "1e308"), (7, 2, "1e300")):
        cells = lines[line].split(",")
        cells[column] = cell
        lines[line] = ",".join(cells)
    (fit / "chain_01.csv").write_text("\n".join(lines) + "\n")
    set_usable_cpus(monkeypatch, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in ("summarize", "diagnose"):
            result = _run([command, "--fit", str(fit), "--index", "1"])
            assert result.exit_code == 0, result.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    summary = (fit / "summary_01.csv").read_text().splitlines()
    diagnostics = (fit / "diagnostics_01.csv").read_text().splitlines()
    assert summary[0].endswith(",ess") and diagnostics[0] == "parameter,ess,rho1,degenerate"
    ess = [float(row.split(",")[-1]) for row in summary[1:]]
    table = [row.split(",") for row in diagnostics[1:]]
    assert all(math.isfinite(v) and v > 0.0 for v in ess)
    assert all(math.isfinite(float(row[1])) and math.isfinite(float(row[2])) for row in table)
    assert [float(row[1]) for row in table] == ess


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_diagnose_bad_chain_leaves_no_directory_it_made(fit_dir, tmp_path, monkeypatch,
                                                        n_cpus):
    fit = tmp_path / "fit"
    shutil.copytree(fit_dir, fit, ignore=shutil.ignore_patterns(
        "ppc", "trace.csv", "diagnostics.csv"))
    lines = (fit / "chain.csv").read_text().splitlines()
    lines[2] = "1_0" + lines[2][lines[2].index(","):]
    (fit / "chain.csv").write_text("\n".join(lines) + "\n")
    kept = tmp_path / "kept"
    kept.mkdir()
    set_usable_cpus(monkeypatch, n_cpus)
    # a new directory, one under a new parent, and one that was there
    for out in (tmp_path / "new", tmp_path / "parent" / "new", kept):
        result = _run(["diagnose", "--fit", str(fit), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"error: {fit / 'chain.csv'}, line 3, column 1 (intercept)" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fit", "kept"]
    assert list(kept.iterdir()) == []


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_diagnose_export_error_exits_2_and_writes_no_table(fit_dir, tmp_path, monkeypatch,
                                                            n_cpus):
    def failing(chain_csv_path, meta, path):
        with open(path, "wb") as fh:
            fh.write(b"iteration,parameter,value\n")
        raise OSError("no space left on device")

    monkeypatch.setattr(racemix.cli, "write_trace_csv", failing)
    set_usable_cpus(monkeypatch, n_cpus)
    out = tmp_path / "out"
    result = _run(["diagnose", "--fit", str(fit_dir), "--out", str(out)])
    assert result.exit_code == 2
    assert "no space left on device" in result.output
    # no table, no trace, and not the directory diagnose made for them
    assert not out.exists()


@needs_fork
def test_diagnose_worker_bug_is_not_an_input_error(fit_dir, tmp_path, monkeypatch, forks):
    def failing(draws, constant):
        raise RuntimeError("a bug in the worker")

    monkeypatch.setattr(racemix.cli, "ess_and_rho1", failing)
    set_usable_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="a bug in the worker") as info:
        _run(["diagnose", "--fit", str(fit_dir), "--out", str(out)])
    assert len(forks) == 1
    # the worker's own traceback is the cause
    assert "in failing" in str(info.value.__cause__)
    assert not out.exists()


@needs_fork
@pytest.mark.parametrize("command, patched", [("fit", "save_chain"), ("diagnose", "load_chain")])
def test_pool_worker_that_dies_is_an_internal_error(dataset_dir, fit_dir, tmp_path, monkeypatch,
                                                    forks, command, patched):
    # the forked worker looks the patched function up by name in racemix.cli
    parent = os.getpid()

    def dying(*args):
        if os.getpid() == parent:
            raise AssertionError("the worker's call ran in the test process")
        os._exit(7)

    monkeypatch.setattr(racemix.cli, patched, dying)
    set_usable_cpus(monkeypatch, 2)
    if command == "fit":
        args = ["fit", *_data_args(dataset_dir), *FIT_ARGS, "--chains", "2"]
    else:
        args = ["diagnose", "--fit", str(fit_dir)]
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="terminated abruptly"):
        _run([*args, "--out", str(out)])
    assert len(forks) == 1
    # no manifest.json, chain files, trace or table; diagnose also removes
    # the directory it made
    if command == "fit":
        assert list(out.iterdir()) == []
    else:
        assert not out.exists()
