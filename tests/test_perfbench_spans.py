"""The traced benchmark run finds every poselink function it wraps.

perfbench/spans.py wraps functions by (module, name) and records a function
it cannot find as absent, so a rename would silently turn that function's
per-layer metrics into 0; it also reads some arguments by name, so a renamed
parameter would break only a traced run. The file is loaded here, not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import poselink.cli as cli
import poselink.tube as tube
from poselink.model import Box

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(spans):
    assert spans.WRAPPED
    missing = [
        f"{module}.{name}"
        for module, name in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_a_traced_run_counts_every_layer(spans, tmp_path):
    gt, pred, tracked = (str(tmp_path / name) for name in ("gt.json", "pred.json", "tracked.json"))
    assert cli.main(["synth", "--out-gt", gt, "--out-pred", pred, "--frames", "6", "--actors", "3",
                     "--tp-score", "0.95,1", "--kp-jitter", "1", "--fp-rate", "0.5"]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in (
            ["track", "--pred", pred, "--out", tracked],
            ["eval", "--gt", gt, "--pred", tracked, "--report", str(tmp_path / "report.json")],
            ["oracle", "--mode", "assoc", "--gt", gt, "--pred", tracked, "--out", str(tmp_path / "oracle.json")],
            ["sweep", "--gt", gt, "--pred", pred, "--out", str(tmp_path / "sweep.csv"), "--costs", "iou,pckh"],
        )]
        anchors = tube.generate_anchors(tube.AnchorGrid(scales=(8.0,), aspects=(1.0,)), 32, 32, 2)
        gt_tube = tube.Tube((Box(0.0, 0.0, 8.0, 8.0), Box(1.0, 0.0, 9.0, 8.0)))
        tube.assign_anchors(anchors, [gt_tube])
    finally:
        tracer.uninstall()
    # an extractor that raises fails its command or escapes from it
    assert codes == [0, 0, 0, 0]
    assert tracer.absent == []
    metrics = spans.layer_metrics(tracer.take())
    for name in ("similarity.cells", "metrics.pose_pairs", "metrics.mot_s", "metrics.map_s",
                 "metrics.map_calls", "linking.link_ratio", "tube.anchor_count", "tube.overlaps"):
        assert metrics[name] > 0, name
