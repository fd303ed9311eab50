"""The benchmark's traced run wraps racemix functions by (module, name).

A rename or deletion of a wrapped name would otherwise surface only in
the slow benchmark smoke test; this checks every entry of its span
tables against the imported modules in well under a second, and that a
sweep calls each wrapped update as often as the traced per-block split
assumes.
"""
import importlib
import importlib.util
import pathlib

import pytest

from conftest import make_toy_design

from racemix.model import McmcSchedule, ModelConfig

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# calls per sweep of each span in the tracing tables, under the sweep's own span
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
