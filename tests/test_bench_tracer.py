"""The benchmark tracer wraps names that the package still defines."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, name", [(module, name) for module, name, _ in tracer.TIMED],
                         ids=[f"{module}.{name}" for module, name, _ in tracer.TIMED])
def test_every_timed_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), name))


def test_every_counted_predicate_exists():
    geometry = importlib.import_module(f"{tracer.PACKAGE}.geometry")
    for name in tracer.COUNTED:
        assert callable(getattr(geometry, name))


def test_arrangement_keeps_the_patched_members():
    """``Tracer`` patches these three entries of ``Arrangement``'s class dict."""
    cls = importlib.import_module(f"{tracer.PACKAGE}.arrangement").Arrangement
    assert {"__init__", "_build_index", "incidences"} <= set(vars(cls))
    assert isinstance(vars(cls)["incidences"], property)
