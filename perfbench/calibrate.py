"""Machine-speed calibration for the benchmark's times.

The host this benchmark was built on runs many virtual machines, and the
speed of one vCPU switched between two levels about 2x apart over seconds to
minutes while the program was unchanged (this kernel took about 0.045 s in
one and 0.09 s in the other; see README.md). A fixed pure-Python kernel, timed right before and
right after each pass or set-up, measures that speed; each wall time is
scaled by REFERENCE_S over the kernel's time around it. The reported
times are therefore seconds on a machine where the kernel takes REFERENCE_S,
and a change to poselink moves them while a change in the host's load mostly
does not. The kernel is a miniature of the work poselink does: JSON
decoding, one frozen dataclass per joint with validation, pairwise box and
joint arithmetic through attribute access, and JSON encoding. It uses the
standard library only, so that timing it before poselink is imported does
not import numpy early.
"""

from __future__ import annotations

import gc
import json
import math
import random
import time
from dataclasses import dataclass

REFERENCE_S = 0.1


@dataclass(frozen=True)
class _Joint:
    x: float
    y: float
    score: float
    present: bool

    def __post_init__(self):
        if self.present and not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite joint")


def _document() -> str:
    rng = random.Random(0)
    frames = []
    for t in range(90):
        dets = []
        for _ in range(6):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 600)
            dets.append({
                "bbox": [x, y, x + rng.uniform(40, 90), y + rng.uniform(100, 200)],
                "score": rng.random(),
                "keypoints": [[x + rng.random() * 50, y + rng.random() * 150, rng.random() * 3, 1]
                              for _ in range(15)],
            })
        frames.append({"frame_index": t, "labeled": True, "detections": dets})
    return json.dumps({"frames": frames})


_DOCUMENT = _document()


def _kernel() -> float:
    """A miniature pass: decode a sequence document, build per-joint objects,
    score every box pair of adjacent frames, and encode the result."""
    doc = json.loads(_DOCUMENT)
    frames = []
    for f in doc["frames"]:
        frames.append([
            (tuple(d["bbox"]), tuple(_Joint(k[0], k[1], k[2], bool(k[3])) for k in d["keypoints"]))
            for d in f["detections"]
        ])
    acc = 0.0
    for prev, curr in zip(frames, frames[1:]):
        for (a, ja) in prev:
            for (b, jb) in curr:
                iw = min(a[2], b[2]) - max(a[0], b[0])
                ih = min(a[3], b[3]) - max(a[1], b[1])
                acc += max(0.0, iw) * max(0.0, ih)
                acc += sum(1 for p, q in zip(ja, jb) if math.hypot(p.x - q.x, p.y - q.y) <= 20.0)
    json.dumps([[[j.x, j.y, j.score, int(j.present)] for j in joints] for det in frames for _, joints in det])
    return acc


def seconds() -> float:
    """Wall time of one run of the calibration kernel.

    The cyclic garbage collector is off while the kernel runs: a collection
    would traverse whatever the caller keeps alive, and the kernel's time
    would then depend on the program's heap rather than on the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(wall_s: float, kernel_s: float) -> float:
    """wall_s expressed at the reference speed, given the kernel's time around it."""
    return wall_s * REFERENCE_S / kernel_s
