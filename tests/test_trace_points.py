"""The benchmark's tracer wraps library functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACE_POINTS
    for module_name, attr, span_name, _ in spans.TRACE_POINTS:
        module = importlib.import_module(f"aedl.{module_name}")
        assert callable(getattr(module, attr, None)), f"{span_name}: aedl.{module_name}.{attr}"
