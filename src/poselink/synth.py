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

Both stages build the sequence's columns once: the ground truth places the
template joints of every actor in every frame with one broadcast, keeps the
visible (frame, actor) cells as rows and derives person and head boxes with
dilated_boxes; corruption edits rows of those columns and puts each frame's
false positives after its kept rows.

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
import sys
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .model import Detections, VideoSequence, _INT64_MAX

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


_FLOAT_MAX = sys.float_info.max
# the largest mean numpy's Poisson sampler takes, computed as numpy does
_POISSON_MAX = _INT64_MAX - math.sqrt(_INT64_MAX) * 10


def _check_range(config, name: str, low: float = -_FLOAT_MAX, high: float = _FLOAT_MAX) -> None:
    """Reject a (low, high) field unless low <= field[0] <= field[1] <= high,
    with both ends and field[1] - field[0] finite, as numpy's samplers need;
    NaN fails."""
    lo, hi = getattr(config, name)
    if not low <= lo <= hi <= high:
        lower = "" if low == -_FLOAT_MAX else f"{low} <= "
        upper = "" if high == _FLOAT_MAX else f" <= {high}"
        raise ValueError(f"{name} must be finite [low, high] with {lower}low <= high{upper}, got {[lo, hi]}")
    if not hi - lo <= _FLOAT_MAX:
        raise ValueError(f"{name} must have a finite high - low, got {[lo, hi]}")


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
        _check_range(self, "duration_range", low=0, high=_INT64_MAX)


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
        for name in ("false_positive_rate", "keypoint_jitter", "box_jitter", "feature_noise", "feature_dim"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        if self.false_positive_rate > _POISSON_MAX:
            raise ValueError(f"false_positive_rate must be at most {_POISSON_MAX!r}, "
                             f"got {self.false_positive_rate}")
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.frames < 1:
            raise ValueError("a scenario needs at least one frame")
        if self.actors < 0:
            raise ValueError("actor count must be non-negative")
        if self.label_every < 1:
            raise ValueError("label_every must be >= 1")
        for name in ("image_width", "image_height"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
            if getattr(self, name) > _FLOAT_MAX:  # exact for ints of any size
                raise ValueError(f"{name} must be at most {_FLOAT_MAX!r}, got {getattr(self, name)}")
        # actors and false positives are placed at x in [h/4, width - h/4] for a
        # figure height h below MAX_HEIGHT * image_height
        if self.image_width < 0.5 * MAX_HEIGHT * self.image_height:
            raise ValueError(
                f"image_width must be >= {0.5 * MAX_HEIGHT:g} * image_height, "
                f"got {self.image_width} for image_height {self.image_height}"
            )


def _bounce(value: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Reflect coordinates into [lo, hi] (triangle-wave fold)."""
    if hi <= lo:
        return np.full_like(value, lo)
    span = hi - lo
    phase = (value - lo) % (2.0 * span)
    return lo + np.where(phase <= span, phase, 2.0 * span - phase)


def _poses_at(centers: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """(..., J, 2) template joints of figures with these (..., 2) centers and (...) heights."""
    return centers[..., None, :] + _TEMPLATE * heights[..., None, None]


def dilated_boxes(xy: np.ndarray, dilation: float = BOX_DILATION) -> np.ndarray:
    """(..., 4) bounding box of each (..., J, 2) joint set, each side length grown
    by `dilation` in total.

    Growth is split evenly between the two sides (dilation/2 each), so a
    zero-span dimension stays zero-span.
    """
    lo, hi = xy.min(axis=-2), xy.max(axis=-2)
    grow = 0.5 * dilation * (hi - lo)
    return np.concatenate([lo - grow, hi + grow], axis=-1)


def generate_ground_truth(cfg: ScenarioConfig) -> VideoSequence:
    """Deterministic labeled sequence for the given scenario."""
    rng = np.random.default_rng([cfg.seed, 0])
    w, h = float(cfg.image_width), float(cfg.image_height)
    t = np.arange(cfg.frames, dtype=float)

    # per actor, then per frame: centers (A, T, 2), heights (A,), occlusion flags (A, T);
    # allocated first, so that a scene too large for memory fails before any draw
    centers = np.empty((cfg.actors, cfg.frames, 2))
    heights = np.empty(cfg.actors)
    occluded = np.zeros((cfg.actors, cfg.frames), dtype=bool)
    for a in range(cfg.actors):
        height = float(rng.uniform(MIN_HEIGHT, MAX_HEIGHT)) * h
        margin_x = 0.25 * height
        margin_y = 0.55 * height
        cx = float(rng.uniform(margin_x, w - margin_x))
        cy = float(rng.uniform(margin_y, h - margin_y))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        speed = float(rng.uniform(*cfg.motion.speed_range))
        with np.errstate(over="ignore"):
            dx = math.cos(angle) * speed * t
            dy = math.sin(angle) * speed * t
        if cfg.motion.kind == "sinusoidal":
            amp = float(rng.uniform(10.0, 40.0))
            period = float(rng.uniform(20.0, 60.0))
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            lateral = amp * np.array([math.sin(v) for v in (2.0 * math.pi * t / period + phase).tolist()])
            dx += -math.sin(angle) * lateral
            dy += math.cos(angle) * lateral
        with np.errstate(over="ignore"):
            x, y = cx + dx, cy + dy
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"motion.speed_range {list(cfg.motion.speed_range)} moves actor {a} "
                             f"beyond the float range within {cfg.frames} frames")
        remaining = 0
        for k in range(cfg.frames):
            if remaining == 0 and cfg.occlusion.probability > 0:
                if float(rng.random()) < cfg.occlusion.probability:
                    lo, hi = cfg.occlusion.duration_range
                    remaining = int(rng.integers(lo, hi + 1))
            if remaining > 0:
                occluded[a, k] = True
                remaining -= 1
        centers[a, :, 0] = _bounce(x, margin_x, w - margin_x)
        centers[a, :, 1] = _bounce(y, margin_y, h - margin_y)
        heights[a] = height

    # every actor in every frame, frame-major: (T, A, J, 2) joints and (T, A, 4) boxes;
    # the visible (frame, actor) cells in that order are the rows
    xy = _poses_at(centers, heights[:, None]).swapaxes(0, 1)
    boxes, head_boxes = dilated_boxes(xy), dilated_boxes(xy[..., :HEAD_JOINT_COUNT, :])
    visible = ~occluded.T
    n = int(visible.sum())
    detections = Detections.from_columns(
        boxes[visible], np.ones(n), xy[visible], np.ones((n, len(_TEMPLATE))),
        np.ones((n, len(_TEMPLATE)), dtype=bool),
        track_ids=np.nonzero(visible)[1].tolist(), head_boxes=head_boxes[visible],
    )
    return VideoSequence(
        video_id=f"synth-{cfg.seed}",
        image_width=cfg.image_width,
        image_height=cfg.image_height,
        joint_names=JOINT_NAMES,
        detections=detections,
        frame_indices=tuple(range(cfg.frames)),
        labeled=tuple(k % cfg.label_every == 0 for k in range(cfg.frames)),
        offsets=tuple(accumulate(visible.sum(axis=1).tolist(), initial=0)),
    )


def corrupt_to_predictions(gt: VideoSequence, cfg: ScenarioConfig) -> VideoSequence:
    """Detector-style corruption of a ground-truth sequence."""
    noise = cfg.noise
    rng = np.random.default_rng([cfg.seed, 1])
    dim = noise.feature_dim
    dets = gt.detections

    embeddings: dict[int, np.ndarray] = {}
    if dim > 0:
        for tid in sorted(set(dets.track_ids)):
            vec = rng.normal(size=dim)
            embeddings[tid] = vec / np.linalg.norm(vec)

    boxes, xy, kp_score = dets.boxes.copy(), dets.xy.copy(), dets.kp_score.copy()
    scores, features = np.empty(len(dets)), np.empty((len(dets), dim))
    # false positives: (F, 2) centers, heights, joint scores, features and scores
    fp_centers, fp_heights, fp_kp_score, fp_features, fp_scores = [], [], [], [], []
    # the rows of the predictions, frame by frame: the frame's kept ground-truth
    # rows, then its false positives, the f-th of the sequence after the N rows as N + f
    rows, offsets = [], [0]
    for lo, hi in zip(gt.offsets, gt.offsets[1:]):
        for i in range(lo, hi):
            present, track_id = dets.present[i], dets.track_ids[i]
            if noise.miss_probability > 0 and float(rng.random()) < noise.miss_probability:
                continue
            rows.append(i)
            if noise.box_jitter > 0:
                x_min, y_min, x_max, y_max = boxes[i].tolist()
                n = rng.normal(0.0, noise.box_jitter, size=4)
                x1, x2 = sorted((x_min + n[0], x_max + n[1]))
                y1, y2 = sorted((y_min + n[2], y_max + n[3]))
                boxes[i] = (x1, y1, x2, y2)
            for j in np.flatnonzero(present).tolist():
                if noise.keypoint_jitter > 0:
                    xy[i, j, 0] += float(rng.normal(0.0, noise.keypoint_jitter))
                    xy[i, j, 1] += float(rng.normal(0.0, noise.keypoint_jitter))
                kp_score[i, j] = float(rng.uniform(*noise.keypoint_score_range))
            scores[i] = float(rng.uniform(*noise.tp_score_range))
            if dim > 0:
                features[i] = embeddings[track_id] + rng.normal(0.0, noise.feature_noise, size=dim)

        for _ in range(int(rng.poisson(noise.false_positive_rate)) if noise.false_positive_rate > 0 else 0):
            rows.append(len(dets) + len(fp_scores))
            height = float(rng.uniform(MIN_HEIGHT, MAX_HEIGHT)) * gt.image_height
            cx = float(rng.uniform(0.25 * height, gt.image_width - 0.25 * height))
            cy = float(rng.uniform(0.55 * height, gt.image_height - 0.55 * height))
            fp_centers.append((cx, cy))
            fp_heights.append(height)
            fp_kp_score.append([float(rng.uniform(*noise.keypoint_score_range))
                                for _ in range(len(_TEMPLATE))])
            if dim > 0:
                vec = rng.normal(size=dim)
                fp_features.append(vec / np.linalg.norm(vec))
            fp_scores.append(float(rng.uniform(*noise.fp_score_range)))
        offsets.append(len(rows))

    fp_xy = _poses_at(np.reshape(fp_centers, (-1, 2)), np.array(fp_heights))
    fp_present = np.ones(fp_xy.shape[:2], dtype=bool)
    columns = [np.concatenate(pair)[rows] for pair in (
        (boxes, dilated_boxes(fp_xy)), (scores, fp_scores), (xy, fp_xy),
        (kp_score, np.reshape(fp_kp_score, fp_present.shape)), (dets.present, fp_present),
    )]
    features = np.concatenate([features, np.reshape(fp_features, (-1, dim))])[rows] if dim > 0 else None
    return replace(gt, detections=Detections.from_columns(*columns, features=features), offsets=tuple(offsets))


def generate_scenario(cfg: ScenarioConfig) -> tuple[VideoSequence, VideoSequence]:
    """Convenience: (ground truth, corrupted predictions) for one config."""
    gt = generate_ground_truth(cfg)
    return gt, corrupt_to_predictions(gt, cfg)
