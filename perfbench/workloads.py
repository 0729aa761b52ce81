"""The three workloads: inputs from a seed, one pass, and the checks of a pass.

Each workload drives poselink only through its stable public surface:
``poselink.cli.main(argv)`` for the pipeline and the public functions of
``poselink.tube`` for the clip kernels, always looked up on the module at
call time so that a traced run sees its wrappers. Inputs come from
``poselink synth --config`` at the run's seed.

Every CLI command and every kernel call is one operation. A pass always
attempts the same operations, so the share of failed operations does not
depend on how many passes a run makes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import sys
import traceback

import numpy as np

import poselink.cli as cli
import poselink.tube as tube
from poselink.model import Box

import checks

DET_THRESH = 0.95  # the CLI's default detection threshold, which every pass uses


def _cli(argv: list[str]) -> int:
    """Run one CLI command in-process; an exception or usage error is a failure."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return -1


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def scenario(seed: int, frames: int, actors: int, width: int = 1280, height: int = 720,
             occlusion: tuple = (0.0, (1, 3)), noise: dict | None = None) -> dict:
    """A scenario document for ``poselink synth --config``."""
    return {
        "seed": seed, "frames": frames, "actors": actors,
        "image_width": width, "image_height": height,
        "motion": {"kind": "linear", "speed_range": [2.0, 6.0]},
        "occlusion": {"probability": occlusion[0], "duration_range": list(occlusion[1])},
        "noise": noise or {},
        "label_every": 1,
    }


class Workload:
    name = ""
    outputs: tuple[str, ...] = ()
    writes_pred = True

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def scenario(self) -> dict:
        raise NotImplementedError

    def make_inputs(self) -> dict[str, str]:
        """Write the scenario and synthesise its files; returns name -> SHA-256."""
        with open(self.path("scenario.json"), "w", encoding="utf-8") as fh:
            json.dump(self.scenario(), fh, indent=2)
        argv = ["synth", "--config", self.path("scenario.json"), "--out-gt", self.path("gt.json")]
        if self.writes_pred:
            argv += ["--out-pred", self.path("pred.json")]
        if _cli(argv) != 0:
            raise RuntimeError(f"{self.name}: poselink synth failed")
        names = ["scenario.json", "gt.json"] + (["pred.json"] if self.writes_pred else [])
        return {name: sha256(self.path(name)) for name in names}

    def expect(self) -> dict:
        """Expected output properties, computed from the input files alone."""
        return {}

    def prepare(self) -> None:
        """Build in-memory inputs that a pass needs besides the files."""

    def clean(self) -> None:
        """Remove the previous pass's outputs, so a failed command cannot leave stale ones."""
        for name in self.outputs:
            for path in (self.path(name), self.path(name) + ".manifest.json"):
                if os.path.exists(path):
                    os.unlink(path)

    def run_pass(self) -> tuple[list[bool], object]:
        """One pass: (success of each operation, in-memory outputs for check)."""
        raise NotImplementedError

    def check(self, ok: list[bool], outputs, expect: dict) -> list[list[str]]:
        """Failure messages per operation; a failed operation's output goes unchecked."""
        raise NotImplementedError


class Crowd(Workload):
    """Dense scene; one pass is a sweep over four costs x two algorithms."""

    name = "crowd"
    outputs = ("sweep.csv",)
    ALGOS = ("hungarian", "greedy")
    COSTS = ("iou", "pckh", "feat", "combined")

    def __init__(self, work_dir: str, seed: int, actors: int = 30, frames: int = 16):
        super().__init__(work_dir, seed)
        self.actors, self.frames = actors, frames

    def scenario(self) -> dict:
        # false positives score like true detections and survive the threshold;
        # misses, occlusions and false positives are kept few, so that the
        # detection count, and with it the pass's work, varies little by seed
        return scenario(
            self.seed, self.frames, self.actors, occlusion=(0.01, (1, 4)),
            noise={
                "keypoint_jitter": 3.0, "box_jitter": 4.0, "miss_probability": 0.03,
                "false_positive_rate": 2.0, "tp_score_range": [0.95, 1.0],
                "fp_score_range": [0.95, 1.0], "keypoint_score_range": [1.8, 3.0],
                "feature_dim": 32, "feature_noise": 0.3,
            },
        )

    def expect(self) -> dict:
        frames = checks.filter_frames(_load(self.path("pred.json")), DET_THRESH)
        return {"iou_cost": checks.iou_hungarian_cost(frames)}

    def run_pass(self):
        rc = _cli([
            "sweep", "--gt", self.path("gt.json"), "--pred", self.path("pred.json"),
            "--out", self.path("sweep.csv"),
            "--costs", ",".join(self.COSTS), "--algos", ",".join(self.ALGOS),
        ])
        return [rc == 0], None

    def check(self, ok, outputs, expect):
        if not ok[0]:
            return [[]]
        with open(self.path("sweep.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        configs = [(str(DET_THRESH), a, c) for a in self.ALGOS for c in self.COSTS]
        return [checks.check_sweep(rows, configs, expect["iou_cost"])]


class LongVideo(Workload):
    """Sparse long scene; one pass is track, eval, oracle --mode assoc, eval."""

    name = "longvideo"
    outputs = ("tracked.json", "report.json", "oracle.json", "oracle_report.json")

    def __init__(self, work_dir: str, seed: int, actors: int = 4, frames: int = 400):
        super().__init__(work_dir, seed)
        self.actors, self.frames = actors, frames

    def scenario(self) -> dict:
        return scenario(
            self.seed, self.frames, self.actors, occlusion=(0.01, (2, 8)),
            noise={
                "keypoint_jitter": 2.0, "box_jitter": 2.0, "miss_probability": 0.03,
                "false_positive_rate": 0.3, "tp_score_range": [0.95, 1.0],
                "fp_score_range": [0.9, 1.0], "keypoint_score_range": [1.8, 3.0],
            },
        )

    def expect(self) -> dict:
        gt, pred = _load(self.path("gt.json")), _load(self.path("pred.json"))
        return checks.longvideo_expect(gt, pred, DET_THRESH)

    def run_pass(self):
        gt, p = self.path("gt.json"), self.path
        commands = [
            ["track", "--pred", p("pred.json"), "--out", p("tracked.json")],
            ["eval", "--gt", gt, "--pred", p("tracked.json"), "--report", p("report.json")],
            ["oracle", "--mode", "assoc", "--gt", gt, "--pred", p("tracked.json"), "--out", p("oracle.json")],
            ["eval", "--gt", gt, "--pred", p("oracle.json"), "--report", p("oracle_report.json")],
        ]
        return [_cli(argv) == 0 for argv in commands], None

    def check(self, ok, outputs, expect):
        fails: list[list[str]] = [[], [], [], []]
        tracked = _load(self.path("tracked.json")) if ok[0] else None
        oracle = _load(self.path("oracle.json")) if ok[2] else None
        report = _load(self.path("report.json")) if ok[1] else None
        if tracked is not None:
            fails[0] = checks.check_tracked(tracked, expect)
            if report is not None:
                fails[1] = checks.check_report(report, tracked, expect)
        if oracle is not None:
            fails[2] = checks.check_tracked(oracle, expect, check_ids=False)
            if ok[3]:
                oracle_report = _load(self.path("oracle_report.json"))
                fails[3] = checks.check_report(oracle_report, oracle, expect)
                if report is not None:
                    fails[3] += checks.check_oracle_report(oracle_report, report)
        return fails


class Tube(Workload):
    """Clip kernels on 3-frame tubes: anchors, assignment, delta codec, RoIAlign, loss."""

    name = "tube"
    writes_pred = False
    LENGTH = 3  # frames per tube
    FG, BG = 0.5, 0.3
    CHANNELS, RESOLUTION = 8, 7

    def __init__(self, work_dir: str, seed: int, width: int = 640, height: int = 360,
                 actors: int = 4):
        super().__init__(work_dir, seed)
        self.width, self.height, self.actors = width, height, actors

    def scenario(self) -> dict:
        return scenario(self.seed, self.LENGTH, self.actors, self.width, self.height,
                        noise={"tp_score_range": [1.0, 1.0], "keypoint_score_range": [2.0, 2.0]})

    def prepare(self) -> None:
        gt = _load(self.path("gt.json"))
        by_track: dict[int, list] = {}
        for f in gt["frames"]:
            for d in f["detections"]:
                by_track.setdefault(d["track_id"], []).append(d["bbox"])
        self.gt_corners = np.array([by_track[k] for k in sorted(by_track)], dtype=float)
        if self.gt_corners.shape != (self.actors, self.LENGTH, 4):
            raise RuntimeError(f"tube: expected {self.actors} full tubes, got {self.gt_corners.shape}")
        self.gt_tubes = [
            tube.Tube(tuple(Box(*box) for box in corners)) for corners in self.gt_corners.tolist()
        ]
        grid = tube.DEFAULT_GRID
        rng = np.random.default_rng([self.seed, 2])
        self.feat_h = -(-self.height // grid.stride)
        self.feat_w = -(-self.width // grid.stride)
        self.coef = rng.uniform(-1.0, 1.0, size=(self.LENGTH, self.CHANNELS, 3))
        self.volume = tube.FeatureVolume(
            checks.linear_volume(self.coef, self.feat_h, self.feat_w), stride=grid.stride)
        anchors = self.feat_h * self.feat_w * len(grid.scales) * len(grid.aspects)
        self.logits = rng.normal(size=(anchors, 2))

    @functools.cached_property
    def expected_anchors(self) -> np.ndarray:
        """The grid's anchor corners; made on the first check, not in prepare,
        so that they are not resident while the measured passes run."""
        grid = tube.DEFAULT_GRID
        return checks.anchor_corners(self.width, self.height, grid.stride, grid.scales, grid.aspects)

    def run_pass(self):
        ok: list[bool] = []
        out: dict = {"decoded": [], "rois": []}
        try:
            anchors = out["anchors"] = tube.generate_anchors(
                tube.DEFAULT_GRID, self.width, self.height, self.LENGTH)
            ok.append(True)
            labels = out["labels"] = tube.assign_anchors(anchors, self.gt_tubes, self.FG, self.BG)
            ok.append(True)
            fg = out["fg"] = np.flatnonzero(np.asarray(labels) >= 0)
            targets = np.zeros((len(anchors), 4 * self.LENGTH))
            for i in fg:
                deltas = tube.encode_tube_deltas(self.gt_tubes[labels[i]], anchors[i])
                ok.append(True)
                targets[i] = deltas.values
                out["decoded"].append(tube.decode_tube_deltas(deltas, anchors[i]))
                ok.append(True)
            for t in self.gt_tubes + out["decoded"]:
                out["rois"].append(tube.spatiotemporal_roi_align(self.volume, t, self.RESOLUTION))
                ok.append(True)
            out["losses"] = tube.tracking_loss(targets, targets, self.logits, labels, self.LENGTH)
            ok.append(True)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok.append(False)
        return ok, out

    @staticmethod
    def corners(boxes) -> np.ndarray:
        """(N, 4) corners of a sequence of boxes."""
        return np.array([[b.x_min, b.y_min, b.x_max, b.y_max] for b in boxes], dtype=float)

    def check(self, ok, out, expect):
        fails: list[list[str]] = [[] for _ in ok]
        if not all(ok):
            return fails
        anchors, labels, fg = out["anchors"], np.asarray(out["labels"]), out["fg"]
        corners = self.corners([a.base for a in anchors])
        fails[0] = checks.check_anchors(corners, self.expected_anchors)
        if any(a.length != self.LENGTH for a in anchors):
            fails[0].append(f"anchor length differs from {self.LENGTH}")
        fails[1] = checks.check_labels(labels, checks.anchor_labels(
            corners, self.gt_corners, self.FG, self.BG, tube.LABEL_BG, tube.LABEL_IGNORE))
        for k, (i, decoded) in enumerate(zip(fg, out["decoded"])):
            fails[3 + 2 * k] = checks.check_round_trip(self.corners(decoded.boxes), self.gt_corners[labels[i]])
        first_roi = 2 + 2 * len(fg)
        checked = 0
        for m, (t, roi) in enumerate(zip(self.gt_tubes + out["decoded"], out["rois"])):
            msgs, n = checks.check_roi(roi, self.corners(t.boxes), self.coef, tube.DEFAULT_GRID.stride,
                                       self.feat_h, self.feat_w, self.RESOLUTION)
            fails[first_roi + m] = msgs
            checked += n
        if checked == 0:
            raise RuntimeError("tube: no RoIAlign box lies inside the feature grid; nothing was checked")
        cls_loss, reg_loss = out["losses"]
        fails[-1] = checks.check_loss(cls_loss, reg_loss, self.logits, labels, tube.LABEL_IGNORE)
        return fails


WORKLOADS = {w.name: w for w in (Crowd, LongVideo, Tube)}
