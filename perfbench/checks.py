"""Correctness checks on the artifacts of one pipeline pass.

Each check returns a list of problems; an empty list is a pass.  The
caller charges a failed check to the command that wrote the artifact, so
it counts into `error_rate` like a non-zero exit.  No check is skipped:
a missing file is itself a problem.

Expected headers are the documented artifact schemas (README.md), kept
here rather than imported so that a change to the program's constants
cannot silently change what is checked.
"""
from __future__ import annotations

import csv
import functools
import json
import math
import os

from workloads import COVERAGE_PARAMETERS

SUMMARY_HEADER = ["parameter", "mean", "lq", "median", "uq", "ci95_low", "ci95_high", "ess"]
CROSSCHAIN_HEADER = ["parameter", "split_rhat", "ess_total"]
TRACE_HEADER = b"iteration,parameter,value\n"
DIAGNOSTICS_HEADER = ["parameter", "ess", "rho1", "degenerate"]
PPC_HEADER = ["course", "season", "n_finishers",
              "obs_min", "obs_lq", "obs_median", "obs_uq", "obs_max",
              "pred_min", "pred_lq", "pred_median", "pred_uq", "pred_max", "low_power"]
HISTOGRAM_HEADER = ["course", "season", "bin_left", "bin_right",
                    "predicted_count", "observed_count"]

# a posterior predictive median this far from the observed one is a broken fit
PPC_MEDIAN_TOLERANCE = 0.10


def artifact(fit_dir: str, stem: str, ext: str, index: int, chains: int) -> str:
    name = f"{stem}.{ext}" if chains == 1 else f"{stem}_{index:02d}.{ext}"
    return os.path.join(fit_dir, name)


def _rows(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _columns(fit_dir: str, index: int, chains: int) -> list[str]:
    with open(artifact(fit_dir, "metadata", "json", index, chains), encoding="utf-8") as fh:
        return json.load(fh)["columns"]


def _guard(fn):
    """Turn a missing or malformed artifact into a reported problem."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{fn.__name__}: {type(exc).__name__}: {exc}"]
    return wrapper


def summary_table(fit_dir: str, index: int, chains: int) -> dict[str, dict[str, float]]:
    rows = _rows(artifact(fit_dir, "summary", "csv", index, chains))
    return {r[0]: dict(zip(SUMMARY_HEADER[1:], map(float, r[1:]))) for r in rows[1:]}


def free_parameters(table: dict[str, dict[str, float]]) -> list[str]:
    """Columns that are not corner-constrained (exact zeros in every draw)."""
    return [name for name, s in table.items()
            if not (s["ci95_low"] == 0.0 and s["ci95_high"] == 0.0 and s["mean"] == 0.0)]


def min_ess(fit_dir: str, chains: int) -> tuple[float, str]:
    """Minimum ESS over free parameters and the parameter it belongs to.

    One chain: summary.csv `ess`; several: crosschain.csv `ess_total`.
    """
    free = set(free_parameters(summary_table(fit_dir, 1, chains)))
    if chains == 1:
        ess = {n: s["ess"] for n, s in summary_table(fit_dir, 1, chains).items()}
    else:
        rows = _rows(os.path.join(fit_dir, "crosschain.csv"))[1:]
        ess = {r[0]: float(r[2]) for r in rows}
    name = min((n for n in ess if n in free), key=lambda n: ess[n])
    return ess[name], name


def coverage(fit_dir: str, chains: int, truth: dict) -> dict:
    """Truth against the fit's 95% intervals, for COVERAGE_PARAMETERS.

    `covered95` lists, per chain, whether its 95% interval covers the
    truth.  The gate, `covered`, takes the envelope of the chains'
    intervals (the fit's posterior, as several chains report it) and
    doubles its width about its centre, about +-3.9 posterior sd.  At
    plain 95% a correct sampler misses one of three parameters on about
    one dataset in seven; on the posthoc schedule one chain in 200
    missed even the doubled interval (gamma_dist, whose slow mixing a
    2,500-draw chain does not always span), while its partner covered.
    """
    tables = [summary_table(fit_dir, i, chains) for i in range(1, chains + 1)]
    out = {}
    for name in COVERAGE_PARAMETERS:
        t = truth[name]
        lo = min(tab[name]["ci95_low"] for tab in tables)
        hi = max(tab[name]["ci95_high"] for tab in tables)
        half = 0.5 * (hi - lo)
        out[name] = {
            "truth": t, "envelope95": [lo, hi],
            "covered95": [tab[name]["ci95_low"] <= t <= tab[name]["ci95_high"]
                          for tab in tables],
            "covered": lo - half <= t <= hi + half}
    return out


@_guard
def check_fit(fit_dir: str, chains: int, truth: dict) -> list[str]:
    problems = []
    columns = _columns(fit_dir, 1, chains)
    for i in range(1, chains + 1):
        if _columns(fit_dir, i, chains) != columns:
            problems.append(f"metadata {i} columns differ from chain 1")
        with open(artifact(fit_dir, "chain", "csv", i, chains), encoding="utf-8") as fh:
            if fh.readline().rstrip("\n").split(",") != columns:
                problems.append(f"chain {i} header does not match metadata")
        rows = _rows(artifact(fit_dir, "summary", "csv", i, chains))
        if rows[0] != SUMMARY_HEADER or [r[0] for r in rows[1:]] != columns:
            problems.append(f"summary {i} header or parameters do not match metadata")
    if chains > 1:
        rows = _rows(os.path.join(fit_dir, "crosschain.csv"))
        if rows[0] != CROSSCHAIN_HEADER or [r[0] for r in rows[1:]] != columns:
            problems.append("crosschain header or parameters do not match metadata")
        if not all(math.isfinite(float(r[1])) and float(r[2]) > 0 for r in rows[1:]):
            problems.append("crosschain has a non-finite R-hat or non-positive ESS")
    with open(os.path.join(fit_dir, "manifest.json"), encoding="utf-8") as fh:
        for name in json.load(fh)["artifacts"]:
            if not os.path.isfile(os.path.join(fit_dir, name)):
                problems.append(f"manifest lists missing artifact {name}")
    for name, c in coverage(fit_dir, chains, truth).items():
        if not c["covered"]:
            problems.append(f"{name}: truth {c['truth']} outside the doubled envelope "
                            f"of the chains' 95% intervals {c['envelope95']}")
    return problems


@_guard
def check_summarize(fit_dir: str, chains: int, fit_summary: bytes) -> list[str]:
    with open(artifact(fit_dir, "summary", "csv", 1, chains), "rb") as fh:
        if fh.read() != fit_summary:
            return ["summarize output differs from the summary fit wrote for the same chain"]
    return []


@_guard
def check_ppc(fit_dir: str, race_counts: dict) -> list[str]:
    problems = []
    rows = _rows(os.path.join(fit_dir, "ppc", "ppc.csv"))
    if rows[0] != PPC_HEADER:
        problems.append("ppc.csv header does not match the schema")
    got = {(r[0], r[1]): int(r[2]) for r in rows[1:]}
    if got != race_counts:
        problems.append("ppc.csv races or finisher counts do not match the input data")
    for r in rows[1:]:
        obs, pred = float(r[5]), float(r[10])
        if not abs(pred / obs - 1.0) <= PPC_MEDIAN_TOLERANCE:
            problems.append(f"race {r[0]}:{r[1]} predicted median {pred} vs observed {obs}")
    rows = _rows(os.path.join(fit_dir, "ppc", "histograms.csv"))
    if rows[0] != HISTOGRAM_HEADER:
        problems.append("histograms.csv header does not match the schema")
    observed: dict[tuple[str, str], int] = {}
    for r in rows[1:]:
        observed[(r[0], r[1])] = observed.get((r[0], r[1]), 0) + int(r[5])
    if observed != race_counts:
        problems.append("histograms.csv observed counts do not sum to the field sizes")
    return problems


@_guard
def check_diagnose(fit_dir: str, chains: int, n_stored: int) -> list[str]:
    problems = []
    columns = _columns(fit_dir, 1, chains)
    lines = 0
    with open(artifact(fit_dir, "trace", "csv", 1, chains), "rb") as fh:
        if fh.readline() != TRACE_HEADER:
            problems.append("trace header does not match the schema")
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    if lines != n_stored * len(columns):
        problems.append(f"trace has {lines} rows, expected {n_stored * len(columns)}")
    rows = _rows(artifact(fit_dir, "diagnostics", "csv", 1, chains))
    if rows[0] != DIAGNOSTICS_HEADER or [r[0] for r in rows[1:]] != columns:
        problems.append("diagnostics header or parameters do not match metadata")
    return problems
