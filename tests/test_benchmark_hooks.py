"""The benchmark's traced run wraps racemix functions by (module, name).

A rename or deletion of a wrapped name would otherwise surface only in
the slow benchmark smoke test; this checks every entry of its span
tables against the imported modules in well under a second, that a
sweep calls each wrapped update as often as the traced per-block split
assumes, and that the whole traced pipeline runs on a small data set and
gives a finite value for every per-layer metric.
"""
import importlib
import importlib.util
import math
import pathlib
import types

import numpy as np
import pytest

from conftest import make_toy_design

from racemix.model import McmcSchedule, ModelConfig
from racemix.predictive import SyntheticSpec, simulate_dataset
from racemix.sampler import load_chain

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# calls per sweep of each span in the tracing tables, under the sweep's own span;
# perfbench's per-layer metrics divide by slice_update_phi's count
CALLS_PER_SWEEP = {
    "sampler.gibbs_random_effect": 1,
    "sampler.gibbs_hypermean": 1,
    "sampler.slice_update_phi": 1,
    "sampler.gibbs_precision": 4,
    "model.linear_predictor_all": 0,
    "sampler.gibbs_scalar_normal": 0,
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracing):
    tables = (tracing.PIPELINE_SPANS, tracing.SWEEP_SPANS, tracing.COUNTED_SPANS)
    names = [(module, attribute) for table in tables for module, attribute, _ in table]
    assert names
    missing = [f"{module}.{attribute}" for module, attribute in names
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert not missing


def test_sweep_calls_each_traced_update_as_often_as_the_split_assumes(tracing):
    sweeps = 30
    config = ModelConfig(mcmc=McmcSchedule(burn_in=10, iterations=sweeps - 10, thin=10))
    tracer = tracing.Tracer()
    tracing.replay(make_toy_design(), config, 1, tracer)
    sweep = "sampler.run_chain"
    assert tracer.count(sweep) == 1
    assert {name for _, _, name in tracing.SWEEP_SPANS} == {sweep, *CALLS_PER_SWEEP}
    counts = {name: tracer.count(name) for name in CALLS_PER_SWEEP}
    assert counts == {name: calls * sweeps for name, calls in CALLS_PER_SWEEP.items()}
    assert all(tracer.count(name, sweep) == count for name, count in counts.items())


def test_traced_pipeline_runs_and_gives_finite_metrics(tracing, tmp_path):
    # what the benchmark's traced run does, on a small data set: an exception
    # here would end that run outside its per-command checks
    data = simulate_dataset(SyntheticSpec(n_athletes=60, n_courses=4, n_seasons=2,
                                          n_races=6, mean_finishers=30, seed=3))
    data.write_csv(tmp_path / "data")
    inputs = {role: str(tmp_path / "data" / f"{stem}.csv") for role, stem in
              (("data", "results"), ("covariates", "races"), ("rainfall", "rainfall"))}
    inputs["sex"] = data.sex
    workload = types.SimpleNamespace(burn_in=100, iterations=300, thin=3, chains=2)
    seed, fit_dir = 8, tmp_path / "fit"
    commands = [
        ["fit", "--data", inputs["data"], "--covariates", inputs["covariates"],
         "--rainfall", inputs["rainfall"], "--sex", data.sex, "--burn-in", "100",
         "--iterations", "300", "--thin", "3", "--chains", "2", "--seed", str(seed),
         "--out", str(fit_dir)],
        ["summarize", "--fit", str(fit_dir)],
        ["ppc", "--fit", str(fit_dir), "--seed", str(seed)],
        ["diagnose", "--fit", str(fit_dir)],
    ]
    pipe = tracing.Tracer()
    with tracing.pipeline_tracing(pipe):
        problems = {args[0]: tracing.run_inprocess(args)[1] for args in commands}
    assert problems == {command: [] for command in tracing.COMMANDS}

    stored = load_chain(fit_dir / "chain_01.csv", fit_dir / "metadata_01.json")
    design, rng_seed = tracing.chain_one_inputs(inputs, workload, seed)
    replay = tracing.Tracer()
    _, replayed = tracing.replay(design, tracing.chain_config(workload, seed), rng_seed, replay)
    assert np.array_equal(replayed.draws, stored.draws)

    chain_files = [str(fit_dir / f"chain_{i:02d}.csv") for i in (1, 2)]
    metrics = tracing.per_layer_metrics(pipe, replay, workload.burn_in + workload.iterations,
                                        chain_files, 0.0)
    assert not [name for name, value in metrics.items() if not math.isfinite(value)]
