#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and tracer; runs in seconds.

    python3 perfbench/selftest.py      # from the repository root

Each workload runs one pass on a small scene; its real outputs must pass
every check, and each deliberately corrupted copy must fail the check meant
to catch it. The tracer must compute self time over parallel children,
report a missing function as absent, and restore every binding it replaced.
BENCHMARK.json must list the metrics the code reports. Exits 1 on any
failure. Files go to .perfbench/selftest/ and are removed at the end.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(name: str, fails: list[str], should_fail: bool) -> None:
    ok = bool(fails) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {fails[0]}" if fails and ok else ""))
    if not ok:
        failures.append(name + (f": {fails}" if fails else ": check accepted a corrupted output"))


def small_pass(wl):
    with contextlib.redirect_stdout(io.StringIO()):
        wl.make_inputs()
        wl.prepare()
        exp = json.loads(json.dumps(wl.expect()))
        ok, out = wl.run_pass()
    if not all(ok):
        failures.append(f"{wl.name}: an operation failed on the small scene")
    return ok, out, exp


def crowd(work: str) -> None:
    wl = workloads.Crowd(work, seed=3, actors=6, frames=4)
    ok, out, exp = small_pass(wl)
    expect("crowd: real sweep passes", wl.check(ok, out, exp)[0], False)
    with open(wl.path("sweep.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    configs = [(str(workloads.DET_THRESH), a, c) for a in wl.ALGOS for c in wl.COSTS]

    def corrupted(edit):
        bad = copy.deepcopy(rows)
        edit(bad)
        return checks.check_sweep(bad, configs, exp["iou_cost"])

    def row(bad, algo, cost):
        return next(r for r in bad if r["algo"] == algo and r["cost"] == cost)

    expect("crowd: row count off by one", corrupted(lambda b: b.pop()), True)
    expect("crowd: iou/hungarian cost off the optimum", corrupted(
        lambda b: row(b, "hungarian", "iou").update(
            total_assignment_cost=f"{float(row(b, 'hungarian', 'iou')['total_assignment_cost']) + 0.01:.4f}")), True)
    expect("crowd: hungarian costlier than greedy", corrupted(
        lambda b: row(b, "hungarian", "pckh").update(
            total_assignment_cost=f"{float(row(b, 'greedy', 'pckh')['total_assignment_cost']) + 1:.4f}")), True)
    expect("crowd: mAP differs within a threshold", corrupted(
        lambda b: b[1].update(map_total=f"{float(b[1]['map_total']) + 1:.4f}")), True)
    expect("crowd: MOTA above 100", corrupted(lambda b: b[0].update(mota_total="100.5000")), True)
    expect("crowd: recall above 100", corrupted(lambda b: b[0].update(recall_total="100.0100")), True)


def longvideo(work: str) -> None:
    wl = workloads.LongVideo(work, seed=3, actors=3, frames=30)
    ok, out, exp = small_pass(wl)
    expect("longvideo: real outputs pass", [m for f in wl.check(ok, out, exp) for m in f], False)
    docs = {}
    for name in wl.outputs:
        with open(wl.path(name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    tracked, report = docs["tracked.json"], docs["report.json"]
    oracle_report = docs["oracle_report.json"]

    bad = copy.deepcopy(tracked)
    frame = next(f for f in bad["frames"] if len(f["detections"]) >= 2)
    a, b = frame["detections"][:2]
    a["track_id"], b["track_id"] = b["track_id"], a["track_id"]
    expect("longvideo: ids swapped within one frame", checks.check_tracked(bad, exp), True)

    dup = copy.deepcopy(tracked)
    f = next(f for f in dup["frames"] if len(f["detections"]) >= 2)
    f["detections"][0]["track_id"] = f["detections"][1]["track_id"]
    expect("longvideo: duplicate id within one frame", checks.check_tracked(dup, exp, check_ids=False), True)

    bad = copy.deepcopy(tracked)
    next(f for f in bad["frames"] if f["detections"])["detections"].pop()
    expect("longvideo: dropped detection", checks.check_tracked(bad, exp), True)

    bad = copy.deepcopy(tracked)
    next(f for f in bad["frames"] if f["detections"])["detections"][0]["bbox"][0] += 0.5
    expect("longvideo: moved box", checks.check_tracked(bad, exp, check_ids=False), True)

    bad = copy.deepcopy(report)
    bad["counts"]["tp"][0] += 1
    expect("longvideo: tp count off by one", checks.check_report(bad, tracked, exp), True)
    bad = copy.deepcopy(report)
    bad["counts"]["gt"][2] -= 1
    bad["counts"]["fn"][2] -= 1
    expect("longvideo: gt count off by one", checks.check_report(bad, tracked, exp), True)
    bad = copy.deepcopy(report)
    bad["counts"]["idsw"][1] += 1
    expect("longvideo: MOTA not following the counts", checks.check_report(bad, tracked, exp), True)
    bad = copy.deepcopy(oracle_report)
    bad["counts"]["idsw"][0] += 1
    expect("longvideo: oracle with an IDSW", checks.check_oracle_report(bad, report), True)
    bad = copy.deepcopy(oracle_report)
    bad["counts"]["fp"][0] += 1
    expect("longvideo: oracle fp off by one", checks.check_oracle_report(bad, report), True)


def tube(work: str) -> None:
    wl = workloads.Tube(work, seed=3, width=160, height=96, actors=2)
    ok, out, exp = small_pass(wl)
    expect("tube: real outputs pass", [m for f in wl.check(ok, out, exp) for m in f], False)
    labels = np.asarray(out["labels"])
    corners = wl.corners([a.base for a in out["anchors"]])
    bg, ignore = workloads.tube.LABEL_BG, workloads.tube.LABEL_IGNORE
    expected = checks.anchor_labels(corners, wl.gt_corners, wl.FG, wl.BG, bg, ignore)

    bad = labels.copy()
    bad[out["fg"][0]] = bg
    expect("tube: flipped anchor label", checks.check_labels(bad, expected), True)
    expect("tube: anchor missing", checks.check_anchors(corners[:-1], wl.expected_anchors), True)

    decoded = wl.corners(out["decoded"][0].boxes)
    target = wl.gt_corners[labels[out["fg"][0]]]
    bad = decoded.copy()
    bad[1, 2] += 1e-4
    expect("tube: perturbed decoded box", checks.check_round_trip(bad, target), True)

    roi = out["rois"][0].copy()
    roi[0, 0, 3, 3] += 1e-6
    fails, _ = checks.check_roi(roi, wl.corners(wl.gt_tubes[0].boxes), wl.coef, 8, wl.feat_h, wl.feat_w, wl.RESOLUTION)
    expect("tube: perturbed RoIAlign bin", fails, True)

    cls_loss, _ = out["losses"]
    expect("tube: non-zero regression loss", checks.check_loss(cls_loss, 1e-3, wl.logits, labels, ignore), True)
    expect("tube: negative classification loss", checks.check_loss(-0.1, 0.0, wl.logits, labels, ignore), True)


def tracer() -> None:
    s = [
        spans.Span(1, "parent", 0.0, 10.0, None, 1),
        spans.Span(2, "a", 1.0, 4.0, 1, 2),
        spans.Span(3, "b", 2.0, 6.0, 1, 3),  # overlaps a in another thread
        spans.Span(4, "c", 8.0, 12.0, 1, 1),  # runs past the parent's end
    ]
    got = spans.self_times(s)[1]
    expect("tracer: self time over parallel children", [] if got == 3.0 else [f"self time {got} != 3"], False)

    import poselink.cli as cli

    original = cli.cmd_sweep
    t = spans.Tracer({**spans.WRAPPED, ("poselink.linking", "no_such_function"): {}})
    t.install()
    installed = cli.cmd_sweep is not original
    t.uninstall()
    expect("tracer: missing function reported as absent",
           [] if t.absent == ["poselink.linking.no_such_function"] else [f"absent {t.absent}"], False)
    expect("tracer: wraps and restores cli.cmd_sweep",
           [] if installed and cli.cmd_sweep is original else ["binding not wrapped or not restored"], False)


def benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    fails = []
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    if e2e != run.END_TO_END:
        fails.append(f"end_to_end {e2e} != reported {run.END_TO_END}")
    layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    if layer != spans.PER_LAYER:
        fails.append(f"per_layer differs from spans.PER_LAYER: {set(layer) ^ set(spans.PER_LAYER)}")
    if sorted(w["name"] for w in doc["workloads"]) != sorted(run.WORKLOADS):
        fails.append("workload names differ")
    expect("BENCHMARK.json lists the reported metrics", fails, False)


def main() -> int:
    work = os.path.join(ROOT, ".perfbench", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, step in (("crowd", crowd), ("longvideo", longvideo), ("tube", tube)):
            os.makedirs(os.path.join(work, name))
            step(os.path.join(work, name))
        tracer()
        benchmark_json()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
