"""The benchmark's traced run wraps racemix functions by (module, name).

A rename or deletion of a wrapped name would otherwise surface only in
the slow benchmark smoke test; this checks every entry of its span
tables against the imported modules in well under a second.
"""
import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tables = (tracing.PIPELINE_SPANS, tracing.SWEEP_SPANS, tracing.COUNTED_SPANS)
    names = [(module, attribute) for table in tables for module, attribute, _ in table]
    assert names
    missing = [f"{module}.{attribute}" for module, attribute in names
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert not missing
