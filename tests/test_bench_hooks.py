"""Every target the benchmark's tracer hooks exists in the library, so a
rename shows up here instead of as a missing hook in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPAN_HOOKS + spans.COUNT_HOOKS


@pytest.mark.parametrize("module, cls, attr, name", _hooks())
def test_hook_target_exists(module, cls, attr, name):
    owner = importlib.import_module(module)
    if cls is None:
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
    else:
        # the tracer reads the class's own dict, so inherited names miss
        assert attr in getattr(owner, cls).__dict__, f"{module}.{cls}.{attr}"
