"""Seeded synthetic scenes: ground-truth tracks plus corrupted predictions.

Actors are stick figures built from a fixed 15-joint template, scaled by a
per-actor height and moved by a linear or sinusoidal motion model that bounces
off the image margins. Occlusion spans temporarily remove an actor's
detections while its track id stays stable. Ground truth carries per-person
boxes (pose extent dilated 20 percent), head boxes (the three head joints
dilated 20 percent), track ids, and unit scores.

corrupt_to_predictions degrades the ground truth into detector-like output:
Gaussian jitter on keypoints and box corners, dropped detections, spurious
false-positive figures, and resampled scores. Track ids and head boxes are
stripped. When the noise model's feature_dim is positive, each actor gets a
stable unit embedding and detections carry a jittered copy, so appearance
based linking can run on synthetic data.

Randomness comes from numpy's seeded PCG64 generator, one stream per stage:
ground truth uses seed (cfg.seed, 0) and corruption (cfg.seed, 1). Draws
happen in a fixed documented order (per actor: height, start, heading, speed,
sinusoid parameters, then the occlusion schedule; per detection during
corruption: miss flag, box corner noise, per-present-joint jitter and score,
detection score, feature noise; then per frame the false-positive count and
parameters), so outputs are byte-identical for a given seed and numpy
version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
import numpy as np

from .model import (
    Box,
    Detection,
    Frame,
    Pose,
    VideoSequence,
    derive_box_from_pose,
)

JOINT_NAMES = (
    "head_top",
    "nose",
    "neck",
    "right_shoulder",
    "left_shoulder",
    "right_elbow",
    "left_elbow",
    "right_wrist",
    "left_wrist",
    "right_hip",
    "left_hip",
    "right_knee",
    "left_knee",
    "right_ankle",
    "left_ankle",
)

HEAD_JOINT_COUNT = 3  # head_top, nose, neck form the head box

# (dx, dy) offsets in units of actor height, y grows downward, origin mid-hip
_TEMPLATE = np.array((
    (0.00, -0.50),
    (0.03, -0.43),
    (0.00, -0.36),
    (-0.11, -0.33),
    (0.11, -0.33),
    (-0.15, -0.18),
    (0.15, -0.18),
    (-0.17, -0.04),
    (0.17, -0.04),
    (-0.07, 0.00),
    (0.07, 0.00),
    (-0.08, 0.24),
    (0.08, 0.24),
    (-0.09, 0.50),
    (0.09, 0.50),
))

BOX_DILATION = 0.20
MIN_HEIGHT, MAX_HEIGHT = 0.18, 0.35  # figure height as a fraction of the image height


def _check_range(config, name: str, low: float = -math.inf) -> None:
    """Reject a (low, high) field unless low <= field[0] <= field[1]; NaN fails."""
    lo, hi = getattr(config, name)
    if not low <= lo <= hi:
        bound = "" if low == -math.inf else f"{low} <= "
        raise ValueError(f"{name} must be [low, high] with {bound}low <= high, got {[lo, hi]}")


@dataclass(frozen=True)
class MotionModel:
    kind: str = "linear"  # linear | sinusoidal
    speed_range: tuple[float, float] = (2.0, 6.0)  # px per frame

    def __post_init__(self):
        if self.kind not in ("linear", "sinusoidal"):
            raise ValueError(f"unknown motion kind {self.kind!r}")
        _check_range(self, "speed_range")


@dataclass(frozen=True)
class OcclusionModel:
    probability: float = 0.0  # per actor, per frame, chance a span starts
    duration_range: tuple[int, int] = (1, 3)

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("occlusion probability must be in [0, 1]")
        _check_range(self, "duration_range", low=0)


@dataclass(frozen=True)
class NoiseModel:
    keypoint_jitter: float = 0.0  # sigma, px
    box_jitter: float = 0.0  # sigma, px, per box corner coordinate
    miss_probability: float = 0.0
    false_positive_rate: float = 0.0  # expected spurious detections per frame
    tp_score_range: tuple[float, float] = (0.8, 1.0)
    fp_score_range: tuple[float, float] = (0.3, 0.7)
    keypoint_score_range: tuple[float, float] = (2.0, 3.0)
    feature_dim: int = 0  # 0 disables appearance embeddings
    feature_noise: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.miss_probability <= 1.0:
            raise ValueError("miss probability must be in [0, 1]")
        if not self.false_positive_rate >= 0:
            raise ValueError("false-positive rate must be non-negative")
        for name in ("keypoint_jitter", "box_jitter", "feature_noise", "feature_dim"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        for name in ("tp_score_range", "fp_score_range", "keypoint_score_range"):
            _check_range(self, name)


NO_NOISE = NoiseModel(tp_score_range=(1.0, 1.0), keypoint_score_range=(2.0, 2.0))


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    frames: int = 30
    actors: int = 2
    image_width: int = 1280
    image_height: int = 720
    motion: MotionModel = field(default_factory=MotionModel)
    occlusion: OcclusionModel = field(default_factory=OcclusionModel)
    noise: NoiseModel = field(default_factory=NoiseModel)
    label_every: int = 1

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("a scenario needs at least one frame")
        if self.actors < 0:
            raise ValueError("actor count must be non-negative")
        if self.label_every < 1:
            raise ValueError("label_every must be >= 1")
        for name in ("image_width", "image_height"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # actors and false positives are placed at x in [h/4, width - h/4] for a
        # figure height h below MAX_HEIGHT * image_height
        if self.image_width < 0.5 * MAX_HEIGHT * self.image_height:
            raise ValueError(
                f"image_width must be >= {0.5 * MAX_HEIGHT:g} * image_height, "
                f"got {self.image_width} for image_height {self.image_height}"
            )


def _bounce(value: float, lo: float, hi: float) -> float:
    """Reflect a coordinate into [lo, hi] (triangle-wave fold)."""
    if hi <= lo:
        return lo
    span = hi - lo
    phase = (value - lo) % (2.0 * span)
    return lo + (phase if phase <= span else 2.0 * span - phase)


def _pose_at(cx: float, cy: float, height: float) -> Pose:
    j = len(_TEMPLATE)
    return Pose((cx, cy) + _TEMPLATE * height, np.ones(j), np.ones(j, dtype=bool))


def _head_box(pose: Pose) -> Box:
    k = HEAD_JOINT_COUNT
    head = Pose(pose.xy[:k], pose.score[:k], pose.present[:k])
    return derive_box_from_pose(head, BOX_DILATION)


def generate_ground_truth(cfg: ScenarioConfig) -> VideoSequence:
    """Deterministic labeled sequence for the given scenario."""
    rng = np.random.default_rng([cfg.seed, 0])
    w, h = float(cfg.image_width), float(cfg.image_height)

    actors = []
    for _ in range(cfg.actors):
        height = float(rng.uniform(MIN_HEIGHT, MAX_HEIGHT)) * h
        margin_x = 0.25 * height
        margin_y = 0.55 * height
        cx = float(rng.uniform(margin_x, w - margin_x))
        cy = float(rng.uniform(margin_y, h - margin_y))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        speed = float(rng.uniform(*cfg.motion.speed_range))
        if cfg.motion.kind == "sinusoidal":
            amp = float(rng.uniform(10.0, 40.0))
            period = float(rng.uniform(20.0, 60.0))
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
        else:
            amp = period = phase = 0.0
        occluded = np.zeros(cfg.frames, dtype=bool)
        remaining = 0
        for t in range(cfg.frames):
            if remaining == 0 and cfg.occlusion.probability > 0:
                if float(rng.random()) < cfg.occlusion.probability:
                    lo, hi = cfg.occlusion.duration_range
                    remaining = int(rng.integers(lo, hi + 1))
            if remaining > 0:
                occluded[t] = True
                remaining -= 1
        actors.append(
            dict(
                height=height, cx=cx, cy=cy, angle=angle, speed=speed,
                amp=amp, period=period, phase=phase,
                margin_x=margin_x, margin_y=margin_y, occluded=occluded,
            )
        )

    frames = []
    for t in range(cfg.frames):
        detections = []
        for track_id, a in enumerate(actors):
            if a["occluded"][t]:
                continue
            dx = math.cos(a["angle"]) * a["speed"] * t
            dy = math.sin(a["angle"]) * a["speed"] * t
            if cfg.motion.kind == "sinusoidal" and a["period"] > 0:
                lateral = a["amp"] * math.sin(2.0 * math.pi * t / a["period"] + a["phase"])
                dx += -math.sin(a["angle"]) * lateral
                dy += math.cos(a["angle"]) * lateral
            cx = _bounce(a["cx"] + dx, a["margin_x"], w - a["margin_x"])
            cy = _bounce(a["cy"] + dy, a["margin_y"], h - a["margin_y"])
            pose = _pose_at(cx, cy, a["height"])
            detections.append(
                Detection(
                    box=derive_box_from_pose(pose, BOX_DILATION),
                    score=1.0,
                    pose=pose,
                    track_id=track_id,
                    head_box=_head_box(pose),
                )
            )
        frames.append(Frame(t, t % cfg.label_every == 0, tuple(detections)))

    return VideoSequence(
        video_id=f"synth-{cfg.seed}",
        image_width=cfg.image_width,
        image_height=cfg.image_height,
        joint_names=JOINT_NAMES,
        frames=tuple(frames),
    )


def corrupt_to_predictions(gt: VideoSequence, cfg: ScenarioConfig) -> VideoSequence:
    """Detector-style corruption of a ground-truth sequence."""
    noise = cfg.noise
    rng = np.random.default_rng([cfg.seed, 1])

    embeddings: dict[int, np.ndarray] = {}
    if noise.feature_dim > 0:
        track_ids = sorted({d.track_id for f in gt.frames for d in f.detections})
        for tid in track_ids:
            vec = rng.normal(size=noise.feature_dim)
            embeddings[tid] = vec / np.linalg.norm(vec)

    frames = []
    for frame in gt.frames:
        detections = []
        for det in frame.detections:
            if noise.miss_probability > 0 and float(rng.random()) < noise.miss_probability:
                continue
            box = det.box
            if noise.box_jitter > 0:
                n = rng.normal(0.0, noise.box_jitter, size=4)
                x1, x2 = sorted((box.x_min + n[0], box.x_max + n[1]))
                y1, y2 = sorted((box.y_min + n[2], box.y_max + n[3]))
                box = Box(x1, y1, x2, y2)
            xy, kp_score = det.pose.xy.copy(), det.pose.score.copy()
            for j in np.flatnonzero(det.pose.present).tolist():
                if noise.keypoint_jitter > 0:
                    xy[j, 0] += float(rng.normal(0.0, noise.keypoint_jitter))
                    xy[j, 1] += float(rng.normal(0.0, noise.keypoint_jitter))
                kp_score[j] = float(rng.uniform(*noise.keypoint_score_range))
            pose = Pose(xy, kp_score, det.pose.present)
            score = float(rng.uniform(*noise.tp_score_range))
            feature = None
            if noise.feature_dim > 0:
                vec = embeddings[det.track_id] + rng.normal(
                    0.0, noise.feature_noise, size=noise.feature_dim
                )
                feature = tuple(float(v) for v in vec)
            detections.append(
                Detection(box=box, score=score, pose=pose, feature=feature)
            )
        if noise.false_positive_rate > 0:
            for _ in range(int(rng.poisson(noise.false_positive_rate))):
                height = float(rng.uniform(MIN_HEIGHT, MAX_HEIGHT)) * gt.image_height
                cx = float(rng.uniform(0.25 * height, gt.image_width - 0.25 * height))
                cy = float(rng.uniform(0.55 * height, gt.image_height - 0.55 * height))
                pose = _pose_at(cx, cy, height)
                kp_score = [
                    float(rng.uniform(*noise.keypoint_score_range)) for _ in range(len(pose))
                ]
                feature = None
                if noise.feature_dim > 0:
                    vec = rng.normal(size=noise.feature_dim)
                    vec = vec / np.linalg.norm(vec)
                    feature = tuple(float(v) for v in vec)
                detections.append(
                    Detection(
                        box=derive_box_from_pose(pose, BOX_DILATION),
                        score=float(rng.uniform(*noise.fp_score_range)),
                        pose=Pose(pose.xy, kp_score, pose.present),
                        feature=feature,
                    )
                )
        frames.append(replace(frame, detections=tuple(detections)))
    return gt.with_frames(frames)


def generate_scenario(cfg: ScenarioConfig) -> tuple[VideoSequence, VideoSequence]:
    """Convenience: (ground truth, corrupted predictions) for one config."""
    gt = generate_ground_truth(cfg)
    return gt, corrupt_to_predictions(gt, cfg)
