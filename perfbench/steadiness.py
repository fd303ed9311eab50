"""Steadiness report: repeated sets of benchmark runs, spread per metric.

    python3 perfbench/steadiness.py --seeds 1-10

Runs `run.py --trace 0` at BENCHMARK.json's `run_seconds` once per
(set, seed, workload), for two sets, seed-major so that drift on the
machine spreads over every workload, and prints for each end-to-end
metric in BENCHMARK.json:

- each set's median and its spread, the distance between the first and
  third quartile (`statistics.quantiles(values, n=4)`) as a share of the
  median, against the metric's bound and a third of it;
- how far the second set's median moved from the first one's, against the bound.

A metric is "steady" when both spreads are below a third of its bound
and the move is within the bound; "within bound" when the spreads and the
move are within the bound but a spread is not below a third of it.

It also prints the spreads of the unscaled timings (`wall.*`) and of the
reference time, and the seed-to-seed spread of `min_ess`, which repeats exactly
for a fixed seed and moves only with the seed, and the mean wall time of
a run, projected to a full round of 4 + 22 x (number of workloads) runs
against its 3420 s budget.
Raw results go to .perfbench_work/steadiness.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench_work" / "results"
SETS = 2


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_one(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"workload": workload, "seed": seed, "result": result,
            "metrics": {k: v["value"] for k, v in record["metrics"].items()},
            "run_wall_s": record["run_wall_s"]}


def report(runs: list[dict], bench: dict) -> list[str]:
    lines = []
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        failed = sum(r["result"]["failed"] for r in mine)
        lines.append(f"## {w}: {len(mine)} runs, {failed} failed commands, "
                     f"mean run {statistics.mean(r['run_wall_s'] for r in mine):.1f} s")
        lines.append("")
        lines.append("| metric | bound | " + " | ".join(
            f"set {s + 1} median | set {s + 1} spread" for s in range(SETS))
            + " | set 2 vs set 1 | verdict |")
        lines.append("|---|---|" + "---|---|" * SETS + "---|---|")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians, spreads = [], []
            for s in range(SETS):
                values = [r["metrics"][name] for r in mine if r["set"] == s]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            sign = 1.0 if m["better"] == "lower" else -1.0
            moved = sign * (medians[-1] - medians[0]) / medians[0]
            if moved > bound or max(spreads) > bound:
                verdict = "NO"
            elif max(spreads) < bound / 3:
                verdict = "steady"
            else:
                verdict = "within bound"
            lines.append(f"| {name} | {bound} | " + " | ".join(
                f"{md:.4g} {m['unit']} | {sp:.3f}" for md, sp in zip(medians, spreads))
                + f" | {moved:+.3f} | {verdict} |")
        walls = [name for name in mine[0]["metrics"] if name.startswith("wall.")]
        lines.append("")
        lines.append("Unscaled timings (not gated), spread in set 1 / set 2: " + ", ".join(
            f"{name} " + "/".join(f"{spread([r['metrics'][name] for r in mine if r['set'] == s]):.3f}"
                                  for s in range(SETS)) for name in walls + ["reference_s"]))
        ess = [r["metrics"]["min_ess"] for r in mine if r["set"] == 0]
        lines.append("")
        lines.append(f"min_ess over {len(ess)} seeds: median {statistics.median(ess):.1f}, "
                     f"range {min(ess):.1f}-{max(ess):.1f}, seed-to-seed spread "
                     f"{spread(ess):.3f} (identical across sets: "
                     f"{len({(r['seed'], r['metrics']['min_ess']) for r in mine}) == len(ess)})")
        lines.append("")
    walls = [r["run_wall_s"] for r in runs]
    total = (4 + 22 * len(workloads)) * statistics.mean(walls)
    lines.append(f"Projected time of a full round: (4 + 22 x {len(workloads)}) runs x "
                 f"{statistics.mean(walls):.1f} s = {total:.0f} s (limit 3420 s); "
                 f"longest run {max(walls):.1f} s.")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Repeated benchmark sets and their spread.")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for s in range(SETS):
        for seed in args.seeds:
            for w in bench["workloads"]:
                run = run_one(w["name"], seed, bench["run_seconds"])
                run["set"] = s
                runs.append(run)
                print(f"set {s + 1} {w['name']} seed {seed}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in run["metrics"].items()), flush=True)
    (ROOT / ".perfbench_work" / "steadiness.json").write_text(json.dumps(runs, indent=1))
    print("\n".join(report(runs, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
