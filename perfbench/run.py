"""racemix benchmark: the CLI pipeline end to end, plus a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload league --seed 1 --seconds 20 --trace 0

`--trace 0` generates the workload's inputs from `--seed`, then repeats
the pipeline `racemix fit`, `summarize`, `ppc`, `diagnose` as separate
processes until `--seconds` have passed (at least twice), with two-draw
fits (`setup_s`) in between.  Before every timed command it also times a
reference start-up, `python3 -c "import numpy"`, and reports each timing
as the mean of its samples scaled by the run's reference speed (see
`timed_run`).
`--trace 1` runs the same commands in-process, untraced and then traced,
and reports per-layer numbers (see tracing.py).  `--smoke` swaps in a
tiny schedule: every command and every check in a few seconds.

Every run checks the outputs (checks.py); a command that exits non-zero
or fails a check counts as failed.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the lines
before it print every metric with its unit and the environment.  The
full record goes to .perfbench_work/results/.  The benchmark never sets
BLAS or OpenMP thread variables; it records what it finds.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, fit_args, make_inputs, post_fit_args, setup_args, smoke  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# two-draw fits timed after every post-fit pass, so setup_s samples spread over the run
SETUP_PER_PASS = 1
MIN_FITS = 2
# post-fit commands are short and noisy: two samples of each per fit
POST_PASSES = 2
# every run must exit within 180 s; commands still running at this point are killed
RUN_DEADLINE_S = 170.0
# timed before every command: interpreter start and numpy import, none of racemix
REFERENCE_ARGS = ["-c", "import numpy"]
# timings are scaled to a machine on which the reference takes this long
REFERENCE_S = 0.2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")

# name -> unit, in BENCHMARK.json order: the metrics of the JSON line
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# end-to-end metrics timed per command; pipeline_s is the sum of the last four
COMMAND_TIMES = ("setup_s", "fit_s", "summarize_s", "ppc_s", "diagnose_s")
# printed and recorded every run, but not gated (see README.md)
REPORTED = {"min_ess": "count", "min_ess_per_s": "1/s", "error_rate": "ratio",
            "reference_s": "s",
            **{f"wall.{n}": "s" for n in (*COMMAND_TIMES, "pipeline_s")}}


class Ledger:
    """Commands attempted and the problems of each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, command: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"command": command, "problems": problems})


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except OSError:
        pass


class Runner:
    """Runs racemix CLI commands as child processes against the checkout's src/."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env["TMPDIR"] = str(work)
        self.logs = 0

    def python(self, args: list[str]) -> tuple[float, int, float, str]:
        """Run `python3 <args>`: wall seconds, exit code, peak RSS in MB, output.

        The peak is `wait4`'s ru_maxrss: the largest resident set of the
        process and every child it waited for (the chain workers).  The
        command runs in its own process group, killed at the run deadline.
        """
        self.logs += 1
        log = self.work / f"cmd{self.logs:03d}.log"
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=self.work,
                                    start_new_session=True)
            remaining = RUN_DEADLINE_S - (t0 - self.started)
            timer = threading.Timer(max(remaining, 0.0), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss * 1024 / 1e6, log.read_text(errors="replace")

    def cli(self, args: list[str]) -> tuple[float, list[str], float]:
        """Run `racemix <args>`: wall seconds, problems, peak RSS in MB."""
        elapsed, code, peak_mb, output = self.python(["-m", "racemix.cli", *args])
        problems = [] if code == 0 else [f"exit {code}: {output[-500:]}"]
        return elapsed, problems, peak_mb


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def chain_digests(fit_dir: Path) -> dict[str, str]:
    return {p.name: _sha256(p) for p in sorted(fit_dir.iterdir())
            if p.name.startswith(("chain", "metadata")) and p.is_file()}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 prints its config and takes no mode
        blas = {}
    git_rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_rev = done.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((SRC / "racemix").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_rev": git_rev,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_at_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else float("nan")


def check_post_fit(name: str, fit_dir: Path, workload, inputs: dict,
                   fit_summary: bytes) -> list[str]:
    if name == "summarize":
        return checks.check_summarize(str(fit_dir), workload.chains, fit_summary)
    if name == "ppc":
        return checks.check_ppc(str(fit_dir), inputs["race_counts"])
    return checks.check_diagnose(str(fit_dir), workload.chains,
                                 workload.iterations // workload.thin)


def fit_summary_bytes(fit_dir: Path, workload) -> bytes:
    path = Path(checks.artifact(str(fit_dir), "summary", "csv", 1, workload.chains))
    return path.read_bytes() if path.exists() else b""


def timed_run(workload, seed: int, seconds: float, inputs: dict, work: Path,
              runner: Runner, ledger: Ledger) -> tuple[dict, dict]:
    """fit + POST_PASSES x (summarize, ppc, diagnose, setup fits) for `seconds`.

    The run ends after the first pass that finishes past `seconds`.
    The two-draw setup fits are interleaved with the other commands, so a
    passing slowdown of the machine reaches only some of them.  Each
    command is preceded by a timed reference start-up.

    The machine's speed drifts by up to 1.5x over minutes, and every
    command of a run drifts with it, so a run's raw times mostly measure
    the minute it ran in.  The reference start-up drifts the same way and
    does not depend on racemix.  So each timing metric is the mean of its
    samples times REFERENCE_S / (mean reference time of the run): seconds
    on a machine where the reference takes REFERENCE_S.  The unscaled
    means are reported as wall.<metric>.  pipeline_s is the sum of the
    four command metrics; the size metrics are medians.
    """
    runner.cli(["--version"])  # untimed: bytecode caches and file cache warm
    runner.python(REFERENCE_ARGS)
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END if name != "pipeline_s"}
    reference: list[float] = []

    def cli(args: list[str]) -> tuple[float, list[str], float]:
        elapsed, code, _, output = runner.python(REFERENCE_ARGS)
        if code == 0:
            reference.append(elapsed)
        result = runner.cli(args)
        if code != 0:
            result[1].append(f"reference start-up exited {code}: {output[-300:]}")
        return result

    first_digests = None
    ess = (float("nan"), None)
    coverage = {}
    loop_start = time.perf_counter()
    fits = 0
    while fits < MIN_FITS or time.perf_counter() - loop_start < seconds:
        rep_start = time.perf_counter()
        fit_dir = work / f"fit{fits}"
        elapsed, problems, peak_mb = cli(fit_args(inputs, workload, seed, str(fit_dir)))
        samples["fit_s"].append(elapsed)
        samples["fit_peak_rss_mb"].append(peak_mb)
        if not problems:
            samples["fit_output_mb"].append(_dir_bytes(fit_dir) / 1e6)
            digests = chain_digests(fit_dir)
            if first_digests is None:
                first_digests = digests
                try:
                    ess = checks.min_ess(str(fit_dir), workload.chains)
                    coverage = checks.coverage(str(fit_dir), workload.chains, inputs["truth"])
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems.append(f"cannot read ESS or intervals: {exc!r}")
            elif digests != first_digests:
                problems.append("chain files differ from the first fit with the same seed")
            problems += checks.check_fit(str(fit_dir), workload.chains, inputs["truth"])
        ledger.record("fit", problems)
        fit_summary = fit_summary_bytes(fit_dir, workload)
        for _ in range(POST_PASSES):
            for name, args in post_fit_args(str(fit_dir), seed):
                elapsed, problems, _ = cli(args)
                samples[f"{name}_s"].append(elapsed)
                ledger.record(name, problems + check_post_fit(name, fit_dir, workload,
                                                              inputs, fit_summary))
            for _ in range(SETUP_PER_PASS):
                setup_dir = work / "setup"
                elapsed, problems, _ = cli(setup_args(inputs, str(setup_dir)))
                ledger.record("setup fit", problems)
                samples["setup_s"].append(elapsed)
                shutil.rmtree(setup_dir, ignore_errors=True)
            if fits + 1 >= MIN_FITS and time.perf_counter() - loop_start >= seconds:
                break
        shutil.rmtree(fit_dir, ignore_errors=True)
        fits += 1
        rep_s = time.perf_counter() - rep_start
        if time.perf_counter() - runner.started + rep_s > RUN_DEADLINE_S:
            break

    metrics = {name: _median(values) for name, values in samples.items()}
    scale = REFERENCE_S / _mean(reference)
    for name in COMMAND_TIMES:
        metrics[f"wall.{name}"] = _mean(samples[name])
        metrics[name] = metrics[f"wall.{name}"] * scale
    for prefix in ("", "wall."):
        metrics[f"{prefix}pipeline_s"] = sum(metrics[f"{prefix}{n}"] for n in COMMAND_TIMES[1:])
    metrics["reference_s"] = _mean(reference)
    metrics["min_ess"] = ess[0]
    metrics["min_ess_per_s"] = ess[0] / metrics["fit_s"]
    detail = {"samples": {**samples, "reference_s": reference},
              "min_ess_parameter": ess[1], "coverage": coverage}
    return metrics, detail


def import_seconds(runner: Runner, reps: int = 5) -> tuple[float, list[str]]:
    """Median wall time of `import racemix.cli` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import racemix.cli; "
            "print(repr(time.perf_counter() - t))")
    times, problems = [], []
    for _ in range(reps):
        _, returncode, _, output = runner.python(["-c", code])
        if returncode != 0:
            problems.append(f"import probe exited {returncode}: {output[-300:]}")
            continue
        times.append(float(output.strip().splitlines()[-1]))
    return _median(times), problems


def traced_run(workload, seed: int, inputs: dict, work: Path, runner: Runner,
               ledger: Ledger) -> tuple[dict, dict]:
    """In-process pipeline untraced, then traced, an untraced fit, then chain 1 replays."""
    import numpy as np
    import racemix.cli  # noqa: F401  imported before any command is timed
    from racemix.sampler import load_chain

    import_s, problems = import_seconds(runner)
    ledger.record("import probe", problems)

    wall: dict[str, dict[str, float]] = {}
    digests = {}
    pipe = tracing.Tracer()
    for label in ("untraced", "traced"):
        fit_dir = work / label
        wall[label] = {}
        with (tracing.pipeline_tracing(pipe) if label == "traced" else contextlib.nullcontext()):
            wall[label]["fit"], problems = tracing.run_inprocess(
                fit_args(inputs, workload, seed, str(fit_dir)))
            if not problems:
                digests[label] = chain_digests(fit_dir)
                if label == "traced" and digests[label] != digests.get("untraced"):
                    problems.append("traced chain files differ from the untraced ones")
                problems += checks.check_fit(str(fit_dir), workload.chains, inputs["truth"])
            ledger.record(f"{label} fit", problems)
            fit_summary = fit_summary_bytes(fit_dir, workload)
            for name, args in post_fit_args(str(fit_dir), seed):
                wall[label][name], problems = tracing.run_inprocess(args)
                ledger.record(f"{label} {name}", problems + check_post_fit(
                    name, fit_dir, workload, inputs, fit_summary))

    # a second untraced fit brackets the traced one, so drift cancels in trace.fit_overhead_pct
    again = work / "untraced-again"
    untraced_fit, problems = tracing.run_inprocess(fit_args(inputs, workload, seed, str(again)))
    if not problems and chain_digests(again) != digests.get("untraced"):
        problems.append("second untraced chain files differ from the first")
    ledger.record("untraced fit again", problems)
    wall["untraced"]["fit_again"] = untraced_fit
    untraced_fit = 0.5 * (untraced_fit + wall["untraced"]["fit"])

    fit_dir = work / "traced"
    chain_files = [checks.artifact(str(fit_dir), "chain", "csv", i, workload.chains)
                   for i in range(1, workload.chains + 1)]
    ess, ess_name = checks.min_ess(str(fit_dir), workload.chains)
    stored = load_chain(chain_files[0],
                        checks.artifact(str(fit_dir), "metadata", "json", 1, workload.chains))
    design, rng_seed = tracing.chain_one_inputs(inputs, workload, seed)
    replay = tracing.Tracer()
    _, replayed = tracing.replay(design, tracing.chain_config(workload, seed), rng_seed, replay)
    ledger.record("replay chain 1", [] if np.array_equal(replayed.draws, stored.draws)
                  else ["in-process replay of chain 1 differs from the fitted chain"])
    overhead = tracing.sweep_overhead(design, workload, seed, rng_seed)

    metrics = tracing.per_layer_metrics(pipe, replay, workload.sweeps, chain_files, import_s)
    metrics["min_ess"] = ess
    metrics["min_ess_per_s"] = ess / untraced_fit
    metrics["trace.overhead_us"] = overhead["us_per_sweep"]
    metrics["trace.overhead_pct"] = overhead["pct"]
    # secondary: whole fits differ by machine noise as well as by the wrappers
    metrics["trace.fit_overhead_pct"] = 100.0 * (wall["traced"]["fit"] - untraced_fit) / untraced_fit
    detail = {"wall_s": wall, "min_ess_parameter": ess_name, "sweep_overhead": overhead,
              "spans": pipe.table(), "replay_spans": replay.table()}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny schedule: every command and check in seconds")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (SRC / "racemix" / "cli.py").is_file():
        print(f"error: no racemix sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import racemix

    if Path(racemix.__file__).resolve().parent != (SRC / "racemix").resolve():
        print(f"error: imported racemix from {racemix.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    inputs = make_inputs(str(work / "data"), args.seed)
    runner = Runner(work, started)
    ledger = Ledger()

    if args.trace:
        metrics, detail = traced_run(workload, args.seed, inputs, work, runner, ledger)
        units = PER_LAYER
        reported = PER_LAYER
    else:
        metrics, detail = timed_run(workload, args.seed, args.seconds, inputs, work,
                                    runner, ledger)
        metrics["error_rate"] = len(ledger.failures) / ledger.attempted
        units = END_TO_END
        reported = {**END_TO_END, **REPORTED}

    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "n_obs": inputs["n_obs"],
        "schedule": workload.schedule_args(), "environment": env,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported.items()},
        "failures": ledger.failures, "detail": detail,
        "run_wall_s": time.perf_counter() - started,
    }
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=2)
    shutil.rmtree(work, ignore_errors=True)

    print(f"racemix benchmark: workload {args.workload}, seed {args.seed}, "
          f"{inputs['n_obs']} observations, {' '.join(workload.schedule_args())}")
    for name, unit in reported.items():
        print(f"  {name:<32} {metrics[name]:>14.6g} {unit}")
    for failure in ledger.failures:
        print(f"  FAILED {failure['command']}: {'; '.join(failure['problems'])[:400]}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
