"""The benchmark tracer (perfbench/tracing.py) wraps package functions by
name. A renamed or deleted function would only break a traced benchmark
run, which tier-1 does not start, so the names are checked here."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, name) for table in (tracing.SPANNED, tracing.COUNTED)
            for layer, names in table.items() for name in names]


@pytest.mark.parametrize("layer,name", traced_names())
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"tonaltension.{layer}")
    assert callable(getattr(module, name, None)), f"tonaltension.{layer}.{name}"
