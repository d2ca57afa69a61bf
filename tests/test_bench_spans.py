"""The per-layer benchmark wraps the functions named in ``bench/tracing.py``
by attribute name; a renamed or deleted one would break it at install time."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_entries():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, owner, attr) for layer, owner, attr, _ in module.TRACED]


@pytest.mark.parametrize("layer, owner, attr", traced_entries())
def test_traced_name_exists(layer, owner, attr):
    module = importlib.import_module(f"dworkgm.{layer}")
    if owner is None:
        assert callable(getattr(module, attr, None)), f"dworkgm.{layer}.{attr}"
    else:
        # the tracer replaces the method in the class's own __dict__
        assert attr in vars(getattr(module, owner)), f"{owner}.{attr}"
