"""Smoke tests for the benchmark: every workload, every check, tiny schedule.

    python3 -m pytest perfbench/tests -q

Kept out of the tier-1 suite (pyproject's testpaths is tests/), so the
suite's runtime is unchanged.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, trace):
    done = _bench(["--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and value == value, name
        if not name.startswith("trace."):  # the overhead is a difference; it may be negative
            assert value > 0, name


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = _bench(["--workload", "league", "--seed", "1", "--seconds", "1", "--trace", "0"],
                      cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_fit_check_catches_a_tampered_chain_header():
    work = ROOT / ".perfbench_work" / "tamper"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = run.make_inputs(str(work / "data"), 1)
        fit_dir = work / "fit"
        workload = WORKLOADS["posthoc"]
        args = run.fit_args(inputs, workload, 1, str(fit_dir))
        args[args.index("--iterations") + 1] = "200"
        done = subprocess.run([sys.executable, "-m", "racemix.cli", *args],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True)
        assert done.returncode == 0, done.stderr
        assert checks.check_fit(str(fit_dir), workload.chains, inputs["truth"]) == []
        chain = Path(checks.artifact(str(fit_dir), "chain", "csv", 2, workload.chains))
        chain.write_text(chain.read_text().replace("rho_cur", "rho_now", 1))
        problems = checks.check_fit(str(fit_dir), workload.chains, inputs["truth"])
        assert problems == ["chain 2 header does not match metadata"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
