"""The traced benchmark run finds every poselink function it wraps.

perfbench/spans.py wraps functions by (module, name) and records a function
it cannot find as absent, so a rename would silently turn that function's
per-layer metrics into 0. The file is loaded here, not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [
        f"{module}.{name}"
        for module, name in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
