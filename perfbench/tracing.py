"""The traced run: per-layer numbers from wrappers around racemix's functions.

Spans are recorded from the benchmark's own files; no racemix source is
touched.  A wrapper is installed in every namespace where a name is
looked up at call time: `racemix.cli` imports `load_chain`, `summarize`
and the rest by name, so patching their home modules alone would miss the
CLI's calls.  Spans are aggregated per (name, parent) into a count, a
total and a self time, so a 51,000-sweep chain costs a few dict updates
per call instead of millions of stored spans.

The pipeline runs in-process through `racemix.cli.main(...,
standalone_mode=False)`, once untraced and once traced.  Chains fitted
by the worker pool run in forked processes whose spans are lost, so
`run_chains` is one span and the per-sweep split comes from replaying
chain 1's spawned seed in-process.  The tracing overhead is measured on
that replay, where the wrappers are the only difference between a traced
and an untraced run.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import os
import statistics
from time import perf_counter

# (module, attribute, span name) for every call the pipeline makes across a layer
PIPELINE_SPANS = (
    ("racemix.cli", "parse_results", "ingest.parse_results"),
    ("racemix.cli", "parse_races", "ingest.parse_races"),
    ("racemix.cli", "parse_rainfall", "ingest.parse_rainfall"),
    ("racemix.cli", "build_design", "ingest.build_design"),
    ("racemix.cli", "run_chains", "sampler.run_chains"),
    ("racemix.cli", "save_chain", "sampler.save_chain"),
    ("racemix.cli", "load_chain", "sampler.load_chain"),
    ("racemix.cli", "summarize", "diagnostics.summarize"),
    ("racemix.cli", "write_summary_csv", "diagnostics.write_summary_csv"),
    ("racemix.cli", "write_trace_csv", "diagnostics.write_trace_csv"),
    ("racemix.cli", "autocorrelation", "diagnostics.autocorrelation"),
    ("racemix.cli", "split_rhat", "diagnostics.split_rhat"),
    ("racemix.cli", "multichain_ess", "diagnostics.multichain_ess"),
    ("racemix.cli", "ppc_report", "predictive.ppc_report"),
    ("racemix.cli", "posterior_predictive_race", "predictive.posterior_predictive_race"),
    ("racemix.predictive", "posterior_predictive_race", "predictive.posterior_predictive_race"),
    ("racemix.cli", "write_ppc_csv", "predictive.write_ppc_csv"),
)
SWEEP_SPANS = (
    ("racemix.sampler", "run_chain", "sampler.run_chain"),
    ("racemix.sampler", "linear_predictor_all", "model.linear_predictor_all"),
    ("racemix.sampler", "gibbs_scalar_normal", "sampler.gibbs_scalar_normal"),
    ("racemix.sampler", "gibbs_random_effect", "sampler.gibbs_random_effect"),
    ("racemix.sampler", "gibbs_precision", "sampler.gibbs_precision"),
    ("racemix.sampler", "gibbs_hypermean", "sampler.gibbs_hypermean"),
    ("racemix.sampler", "slice_update_phi", "sampler.slice_update_phi"),
)
# called ~6 times per sweep inside slice_update_phi: counted, not timed
COUNTED_SPANS = (("racemix.sampler", "phi_log_target", "sampler.phi_log_target"),)
# alternating untraced/traced replays of chain 1 that measure the wrappers' cost
OVERHEAD_PAIRS = 6
OVERHEAD_SWEEPS = 10_000
COMMANDS = ("fit", "summarize", "ppc", "diagnose")
# the normal variates behind each predicted field: one per draw and finisher
SIZED_SPANS = {"predictive.posterior_predictive_race": lambda result: result.size}


class Tracer:
    """Installs wrappers and aggregates their spans per (name, parent).

    `spans[(name, parent)]` is [count, total seconds, self seconds, items];
    self time is the total minus the time covered by child spans.
    """

    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, timed=True):
        """A wrapper around `fn` recording spans named `name`.

        Kept lean: it sits on calls made tens of thousands of times per
        second, and its cost is the tracing overhead the run reports.
        """
        stack, spans = self._stack, self.spans
        aggs: dict = {}  # parent name -> this span's aggregate under it

        def agg_for(parent):
            agg = spans.setdefault((name, parent), [0, 0.0, 0.0, 0])
            aggs[parent] = agg
            return agg

        if not timed:
            def counted(*args, **kwargs):
                parent = stack[-1][0] if stack else None
                (aggs.get(parent) or agg_for(parent))[0] += 1
                return fn(*args, **kwargs)
            return counted

        size = SIZED_SPANS.get(name)
        clock = perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                key = parent[0] if parent else None
                agg = aggs.get(key) or agg_for(key)
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if parent:
                    parent[1] += elapsed
            if size is not None:
                agg[3] += size(result)
            return result
        return traced

    def install(self, target, attr, name, timed=True):
        original = getattr(target, attr)
        setattr(target, attr, self.wrap(name, original, timed))
        self._installed.append((target, attr, original))

    def install_all(self, table, timed=True):
        for module, attr, name in table:
            self.install(importlib.import_module(module), attr, name, timed)

    def restore(self):
        while self._installed:
            target, attr, original = self._installed.pop()
            setattr(target, attr, original)

    def total(self, name, parent=...):
        return sum(a[1] for (n, p), a in self.spans.items()
                   if n == name and (parent is ... or p == parent))

    def self_time(self, name):
        return sum(a[2] for (n, _), a in self.spans.items() if n == name)

    def count(self, name, parent=...):
        return sum(a[0] for (n, p), a in self.spans.items()
                   if n == name and (parent is ... or p == parent))

    def items(self, name):
        return sum(a[3] for (n, _), a in self.spans.items() if n == name)

    def table(self) -> list[dict]:
        return [{"name": n, "parent": p, "count": a[0], "total_s": a[1], "self_s": a[2],
                 **({"items": a[3]} if a[3] else {})}
                for (n, p), a in sorted(self.spans.items(), key=lambda kv: -kv[1][1])]


@contextlib.contextmanager
def pipeline_tracing(tracer: Tracer):
    """Trace every layer boundary the CLI pipeline crosses."""
    import racemix.cli

    try:
        tracer.install_all(PIPELINE_SPANS)
        tracer.install_all(SWEEP_SPANS)
        tracer.install_all(COUNTED_SPANS, timed=False)
        for command in COMMANDS:
            tracer.install(racemix.cli.main.commands[command], "callback", f"cli.{command}")
        yield tracer
    finally:
        tracer.restore()


def run_inprocess(args: list[str]) -> tuple[float, list[str]]:
    """Run one CLI command in this process; wall seconds and problems."""
    from racemix.cli import main

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args, standalone_mode=False)
        problems = []
    except SystemExit as exc:
        problems = [] if exc.code in (0, None) else [f"exit {exc.code}: {err.getvalue()[-500:]}"]
    except Exception as exc:  # a crash in the command is a failed command, not a crashed benchmark
        problems = [f"{type(exc).__name__}: {exc}"]
    return perf_counter() - t0, problems


def chain_config(workload, seed: int, burn_in=None, iterations=None):
    """The ModelConfig `racemix fit` builds for this schedule and seed."""
    from racemix.model import ModelConfig

    doc = ModelConfig().to_dict()
    doc["mcmc"].update(
        burn_in=workload.burn_in if burn_in is None else burn_in,
        iterations=workload.iterations if iterations is None else iterations,
        thin=workload.thin, seed=seed)
    return ModelConfig.from_dict(doc)


def chain_one_inputs(inputs: dict, workload, seed: int):
    """The design `racemix fit` builds from the inputs, and chain 1's spawned seed."""
    import racemix.sampler as sampler
    from racemix.ingest import build_design, parse_races, parse_rainfall, parse_results

    design = build_design(parse_results(inputs["data"], inputs["sex"]),
                          parse_races(inputs["covariates"]),
                          parse_rainfall(inputs["rainfall"]), chain_config(workload, seed))
    return design, sampler.spawn_chain_seeds(seed, workload.chains)[0]


def replay(design, config, rng_seed, tracer: Tracer | None = None):
    """Run one chain in-process, under SWEEP_SPANS if a tracer is given: (seconds, chain)."""
    import racemix.sampler as sampler

    try:
        if tracer is not None:
            tracer.install_all(SWEEP_SPANS)
            tracer.install_all(COUNTED_SPANS, timed=False)
        t0 = perf_counter()
        chain = sampler.run_chain(design, config, rng_seed=rng_seed)
        return perf_counter() - t0, chain
    finally:
        if tracer is not None:
            tracer.restore()


def sweep_overhead(design, workload, seed: int, rng_seed) -> dict:
    """Wrapper cost per sweep: chain 1 replayed untraced and traced, alternating.

    The two runs of a pair differ only in the wrappers, and the order
    swaps from pair to pair so a drifting machine speed cancels.  Reports
    the median over pairs.
    """
    iterations = max(OVERHEAD_SWEEPS // workload.thin, 1) * workload.thin
    config = chain_config(workload, seed, burn_in=0, iterations=iterations)
    diffs, pcts = [], []
    for pair in range(OVERHEAD_PAIRS):
        seconds = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            seconds[traced], _ = replay(design, config, rng_seed, Tracer() if traced else None)
        diffs.append(seconds[True] - seconds[False])
        pcts.append(100.0 * diffs[-1] / seconds[False])
    return {"sweeps": iterations, "pairs_s": diffs,
            "us_per_sweep": statistics.median(diffs) * 1e6 / iterations,
            "pct": statistics.median(pcts)}


def per_layer_metrics(pipe: Tracer, replay: Tracer, sweeps: int, fit_dir_files: list[str],
                      import_s: float) -> dict[str, float]:
    """Per-layer numbers by module, from the traced pipeline and the replay."""
    us = 1e6 / sweeps
    sweep = "sampler.run_chain"
    predict = "predictive.posterior_predictive_race"
    calls = pipe.count(predict)
    metrics = {
        "ingest.parse_s": sum(pipe.total(f"ingest.parse_{k}", "cli.fit")
                              for k in ("results", "races", "rainfall")),
        "ingest.design_s": pipe.total("ingest.build_design", "cli.fit"),
        "model.refresh_calls": replay.count("model.linear_predictor_all", sweep),
        "model.refresh_s": replay.total("model.linear_predictor_all", sweep),
        "sampler.sweep_us": replay.total(sweep) * us,
        "sampler.scalar_us": replay.total("sampler.gibbs_scalar_normal", sweep) * us,
        "sampler.effects_us": replay.total("sampler.gibbs_random_effect", sweep) * us,
        "sampler.precision_us": replay.total("sampler.gibbs_precision", sweep) * us,
        "sampler.hypermean_us": replay.total("sampler.gibbs_hypermean", sweep) * us,
        "sampler.phi_us": replay.total("sampler.slice_update_phi", sweep) * us,
        "sampler.self_us": replay.self_time(sweep) * us,
        "sampler.phi_logf_per_update": (replay.count("sampler.phi_log_target")
                                        / replay.count("sampler.slice_update_phi")),
        "sampler.run_chains_s": pipe.total("sampler.run_chains", "cli.fit"),
        "sampler.save_chain_s": pipe.total("sampler.save_chain"),
        "sampler.load_chain_s": pipe.total("sampler.load_chain"),
        "sampler.chain_csv_mb": sum(os.path.getsize(p) for p in fit_dir_files) / 1e6,
        "diagnostics.summarize_s": pipe.total("diagnostics.summarize"),
        "diagnostics.write_summary_s": pipe.total("diagnostics.write_summary_csv"),
        "diagnostics.write_trace_s": pipe.total("diagnostics.write_trace_csv"),
        "diagnostics.autocorrelation_s": pipe.total("diagnostics.autocorrelation"),
        "diagnostics.crosschain_s": (pipe.total("diagnostics.split_rhat")
                                     + pipe.total("diagnostics.multichain_ess")),
        "predictive.ppc_report_s": pipe.total("predictive.ppc_report"),
        "predictive.race_predict_calls": calls,
        "predictive.race_predict_ms": pipe.total(predict) * 1e3 / calls,
        "predictive.variates_drawn": pipe.items(predict),
        "predictive.write_ppc_s": pipe.total("predictive.write_ppc_csv"),
        "cli.import_s": import_s,
    }
    for command in COMMANDS:
        metrics[f"cli.{command}.self_s"] = pipe.self_time(f"cli.{command}")
    return metrics
