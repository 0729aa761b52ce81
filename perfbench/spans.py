"""Span recording around poselink's public functions, and the per-layer metrics.

A traced run replaces every binding of each function in WRAPPED, in every
loaded ``poselink`` module, with a wrapper that records one span per call:
name, start, end, parent span, thread, and a few counts taken from the
arguments or the result. Wrapping every binding matters because modules
import each other's functions by name (``cli`` calls its own
``load_sequence`` binding, ``oracles`` its own ``match_poses_frame``).

A span's parent is the innermost open span of its own thread. A span opened
in a thread with no open span (the sweep's pool workers) takes the innermost
open span of the thread that installed the tracer, which is the CLI command
waiting on that pool. Self time is a span's duration minus the union of the
intervals its children cover, so children running in parallel threads are
not subtracted twice.

An untraced run creates no Tracer, so it wraps nothing.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass, field


def _file_size(name):
    return lambda bound, result: os.path.getsize(bound[name])


def _detections(bound, result):
    return sum(len(frame.detections) for frame in result[0].frames)


# (module, function) -> {count name: extractor(bound arguments, result)}
WRAPPED = {
    ("poselink.cli", "cmd_sweep"): {},
    ("poselink.cli", "cmd_track"): {},
    ("poselink.cli", "cmd_eval"): {},
    ("poselink.cli", "cmd_oracle"): {},
    ("poselink.model", "load_sequence"): {"bytes": _file_size("path")},
    ("poselink.model", "save_sequence"): {"bytes": _file_size("path")},
    ("poselink.model", "filter_detections"): {},
    ("poselink.similarity", "build_cost_matrix"): {
        "kind": lambda b, r: b["criterion"].kind,
        "cells": lambda b, r: len(b["prev"]) * len(b["curr"]),
    },
    ("poselink.linking", "track_video_with_stats"): {
        "links": lambda b, r: r[1].links,
        "detections": _detections,
    },
    ("poselink.linking", "hungarian_assign"): {},
    ("poselink.linking", "greedy_assign"): {},
    ("poselink.metrics", "evaluate_mot"): {},
    ("poselink.metrics", "evaluate_map"): {},
    ("poselink.metrics", "match_poses_frame"): {
        "pairs": lambda b, r: len(b["gt_persons"]) * len(b["pred_persons"]),
    },
    ("poselink.oracles", "perfect_association"): {},
    ("poselink.tube", "generate_anchors"): {"anchors": lambda b, r: len(r)},
    ("poselink.tube", "assign_anchors"): {
        "overlaps": lambda b, r: len(b["anchors"]) * len(b["gt_tubes"]),
    },
    ("poselink.tube", "encode_tube_deltas"): {},
    ("poselink.tube", "decode_tube_deltas"): {},
    ("poselink.tube", "spatiotemporal_roi_align"): {},
    ("poselink.tube", "tracking_loss"): {},
    ("poselink.synth", "generate_scenario"): {},
}

# criterion kind -> metric suffix, as the CLI's --cost names them
COST_NAMES = {"bbox_iou": "iou", "pose_pckh": "pckh", "feature_cosine": "feat", "combined": "combined"}

# per-layer metric -> (unit, better); BENCHMARK.json lists the same names
PER_LAYER = {
    "cli.sweep_s": ("s", "lower"),
    "cli.sweep_self_s": ("s", "lower"),
    "cli.track_s": ("s", "lower"),
    "cli.eval_s": ("s", "lower"),
    "cli.oracle_s": ("s", "lower"),
    "model.load_s": ("s", "lower"),
    "model.load_calls": ("count", "lower"),
    "model.bytes_read": ("B", "lower"),
    "model.save_s": ("s", "lower"),
    "model.bytes_written": ("B", "lower"),
    "model.filter_s": ("s", "lower"),
    **{f"similarity.build_s.{name}": ("s", "lower") for name in COST_NAMES.values()},
    "similarity.build_calls": ("count", "lower"),
    "similarity.cells": ("count", "lower"),
    "linking.track_s": ("s", "lower"),
    "linking.assign_s": ("s", "lower"),
    "linking.self_s": ("s", "lower"),
    "linking.links": ("count", "higher"),
    "linking.link_ratio": ("ratio", "higher"),
    "metrics.mot_s": ("s", "lower"),
    "metrics.map_s": ("s", "lower"),
    "metrics.match_s": ("s", "lower"),
    "metrics.match_calls": ("count", "lower"),
    "metrics.pose_pairs": ("count", "lower"),
    "metrics.map_calls": ("count", "lower"),
    "oracles.assoc_s": ("s", "lower"),
    "tube.anchors_s": ("s", "lower"),
    "tube.anchor_count": ("count", "lower"),
    "tube.assign_s": ("s", "lower"),
    "tube.overlaps": ("count", "lower"),
    "tube.codec_s": ("s", "lower"),
    "tube.roi_align_s": ("s", "lower"),
    "tube.loss_s": ("s", "lower"),
    "synth.generate_s": ("s", "lower"),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start



class Tracer:
    """Records spans in memory; install() wraps the functions in `wrapped`,
    uninstall() restores them."""

    def __init__(self, wrapped: dict = WRAPPED):
        self.wrapped = wrapped
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        for (module_name, func_name), extractors in self.wrapped.items():
            try:
                original = getattr(importlib.import_module(module_name), func_name)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{func_name}", original, extractors)
            for module in [m for n, m in sys.modules.items() if n == "poselink" or n.startswith("poselink.")]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, extractors):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = {}
            if extractors:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = {key: get(bound.arguments, result) for key, get in extractors.items()}
            self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(), counts))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (all PER_LAYER names; 0 where no span ran)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(*names):
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def self_total(name):
        return sum(own[s.id] for s in by_name.get(name, ()))

    def count(name, key=None):
        found = by_name.get(name, ())
        return len(found) if key is None else sum(s.counts.get(key, 0) for s in found)

    builds = by_name.get("similarity.build_cost_matrix", ())
    links = count("linking.track_video_with_stats", "links")
    detections = count("linking.track_video_with_stats", "detections")
    m = {
        "cli.sweep_s": total("cli.cmd_sweep"),
        "cli.sweep_self_s": self_total("cli.cmd_sweep"),
        "cli.track_s": total("cli.cmd_track"),
        "cli.eval_s": total("cli.cmd_eval"),
        "cli.oracle_s": total("cli.cmd_oracle"),
        "model.load_s": total("model.load_sequence"),
        "model.load_calls": count("model.load_sequence"),
        "model.bytes_read": count("model.load_sequence", "bytes"),
        "model.save_s": total("model.save_sequence"),
        "model.bytes_written": count("model.save_sequence", "bytes"),
        "model.filter_s": total("model.filter_detections"),
    }
    for kind, suffix in COST_NAMES.items():
        m[f"similarity.build_s.{suffix}"] = sum(s.duration for s in builds if s.counts.get("kind") == kind)
    m.update({
        "similarity.build_calls": len(builds),
        "similarity.cells": count("similarity.build_cost_matrix", "cells"),
        "linking.track_s": total("linking.track_video_with_stats"),
        "linking.assign_s": total("linking.hungarian_assign", "linking.greedy_assign"),
        "linking.self_s": self_total("linking.track_video_with_stats"),
        "linking.links": links,
        "linking.link_ratio": links / detections if detections else 0.0,
        "metrics.mot_s": total("metrics.evaluate_mot"),
        "metrics.map_s": total("metrics.evaluate_map"),
        "metrics.match_s": total("metrics.match_poses_frame"),
        "metrics.match_calls": count("metrics.match_poses_frame"),
        "metrics.pose_pairs": count("metrics.match_poses_frame", "pairs"),
        "metrics.map_calls": count("metrics.evaluate_map"),
        "oracles.assoc_s": total("oracles.perfect_association"),
        "tube.anchors_s": total("tube.generate_anchors"),
        "tube.anchor_count": count("tube.generate_anchors", "anchors"),
        "tube.assign_s": total("tube.assign_anchors"),
        "tube.overlaps": count("tube.assign_anchors", "overlaps"),
        "tube.codec_s": total("tube.encode_tube_deltas", "tube.decode_tube_deltas"),
        "tube.roi_align_s": total("tube.spatiotemporal_roi_align"),
        "tube.loss_s": total("tube.tracking_loss"),
    })
    return m


def generate_seconds(spans: list[Span]) -> float:
    """synth.generate_s of one set-up: time inside poselink.synth.generate_scenario."""
    return sum(s.duration for s in spans if s.name == "synth.generate_scenario")
