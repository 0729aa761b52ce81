"""Domain types and JSON file I/O for pose detections and ground truth.

Sequence files are UTF-8 JSON with this layout:

    {
      "video_id": str,
      "image_size": [width, height],
      "joint_names": [str, ...],                # length J
      "frames": [
        {
          "frame_index": int,                   # strictly increasing
          "labeled": bool,
          "detections": [
            {
              "bbox": [x_min, y_min, x_max, y_max],
              "score": float,                   # finite; clamped to [0, 1] on load
              "keypoints": [[x, y, score, present01], ...],   # length J
              "feature": [float, ...],          # optional
              "track_id": int,                  # optional, required for GT
              "head_box": [x1, y1, x2, y2]      # optional, required for GT, not zero-size
            }, ...
          ]
        }, ...
      ]
    }

Keypoint scores are unnormalized (heatmap scale) and may exceed 1; detector
box scores are clamped to [0, 1] when loading. Absent keypoints keep their
coordinates and carry present=0 in the file, so no sentinel values are needed.
Floats are serialized with Python's shortest round-trip representation, which
makes save followed by load the identity on every semantic field.

All types are frozen dataclasses, immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Optional, Sequence


@dataclass(frozen=True)
class Keypoint:
    """One joint location with an unnormalized confidence score."""

    x: float
    y: float
    score: float
    present: bool = True

    def __post_init__(self):
        if self.present and not (
            math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.score)
        ):
            raise ValueError("present keypoint has non-finite coordinates or score")

    @staticmethod
    def absent() -> "Keypoint":
        return Keypoint(0.0, 0.0, 0.0, False)


@dataclass(frozen=True)
class Pose:
    """Fixed-length joint array; index semantics come from the sequence's joint names."""

    joints: tuple[Keypoint, ...]

    def __len__(self) -> int:
        return len(self.joints)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in continuous pixel coordinates, corners inclusive of order."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for v in (self.x_min, self.y_min, self.x_max, self.y_max):
            if not math.isfinite(v):
                raise ValueError("box coordinate is not finite")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"box corners out of order: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        # continuous-coordinate convention, no +1
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def translate(self, dx: float, dy: float) -> "Box":
        return Box(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)


@dataclass(frozen=True)
class Detection:
    """One person hypothesis in one frame."""

    box: Box
    score: float
    pose: Pose
    feature: Optional[tuple[float, ...]] = None
    track_id: Optional[int] = None
    head_box: Optional[Box] = None

    def __post_init__(self):
        if self.track_id is not None and self.track_id < 0:
            raise ValueError("track_id must be non-negative")

    def with_track_id(self, track_id: int) -> "Detection":
        return replace(self, track_id=track_id)


@dataclass(frozen=True)
class Frame:
    frame_index: int
    labeled: bool
    detections: tuple[Detection, ...]

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")


@dataclass(frozen=True)
class VideoSequence:
    video_id: str
    image_width: int
    image_height: int
    joint_names: tuple[str, ...]
    frames: tuple[Frame, ...]

    def __post_init__(self):
        j = len(self.joint_names)
        last_index = -1
        feature_dim: Optional[int] = None
        for frame in self.frames:
            if frame.frame_index <= last_index:
                raise ValueError(
                    f"non-monotone frames: index {frame.frame_index} after {last_index}"
                )
            last_index = frame.frame_index
            for det in frame.detections:
                if len(det.pose) != j:
                    raise ValueError(
                        f"joint count mismatch: pose has {len(det.pose)}, sequence has {j}"
                    )
                if det.feature is not None:
                    if feature_dim is None:
                        feature_dim = len(det.feature)
                    elif len(det.feature) != feature_dim:
                        raise ValueError("feature vectors must share one dimensionality")

    @property
    def joint_count(self) -> int:
        return len(self.joint_names)

    def with_frames(self, frames: Sequence[Frame]) -> "VideoSequence":
        return replace(self, frames=tuple(frames))


ROLE_PREDICTION = "prediction"
ROLE_GROUNDTRUTH = "groundtruth"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_box(raw, what: str) -> Box:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ValueError(f"{what} must be a list of 4 numbers")
    vals = []
    for v in raw:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"{what} has a non-numeric entry")
        vals.append(float(v))
    return Box(*vals)


def _as_keypoint(raw, what: str) -> Keypoint:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ValueError(f"{what} must be [x, y, score, present]")
    x, y, score, present = raw
    for v in (x, y, score):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"{what} has a non-numeric entry")
        if not math.isfinite(float(v)):
            raise ValueError(f"{what} has a non-finite entry")
    if present not in (0, 1, True, False):
        raise ValueError(f"{what} presence flag must be 0 or 1")
    return Keypoint(float(x), float(y), float(score), bool(present))


def load_sequence(
    path: str,
    role: str = ROLE_PREDICTION,
    joint_map: Optional[Sequence[int]] = None,
) -> VideoSequence:
    """Load and validate a sequence file.

    role="groundtruth" additionally requires track_id and a head_box of
    non-zero size on every person. joint_map, when given, is a permutation of range(J); output joint
    slot i is taken from input slot joint_map[i], and joint_names are permuted
    the same way.
    """
    if role not in (ROLE_PREDICTION, ROLE_GROUNDTRUTH):
        raise ValueError(f"unknown role {role!r}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc

    if not isinstance(raw, dict):
        raise ValueError(f"{path}: a sequence file holds a JSON object")
    for key in ("video_id", "image_size", "joint_names", "frames"):
        if key not in raw:
            raise ValueError(f"{path}: missing field {key!r}")
    if not isinstance(raw["video_id"], str):
        raise ValueError("video_id must be a string")
    size = raw["image_size"]
    if not isinstance(size, list) or len(size) != 2 or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in size
    ):
        raise ValueError("image_size must be [width, height] integers")
    joint_names = raw["joint_names"]
    if not isinstance(joint_names, list) or not all(isinstance(n, str) for n in joint_names):
        raise ValueError("joint_names must be a list of strings")
    j = len(joint_names)

    if joint_map is not None:
        if sorted(joint_map) != list(range(j)):
            raise ValueError(f"joint_map must be a permutation of range({j})")
        joint_names = [joint_names[k] for k in joint_map]

    if not isinstance(raw["frames"], list):
        raise ValueError("frames must be a list")
    frames = []
    for fi, f in enumerate(raw["frames"]):
        if not isinstance(f, dict):
            raise ValueError(f"frame {fi}: must be an object")
        for key in ("frame_index", "labeled", "detections"):
            if key not in f:
                raise ValueError(f"frame {fi}: missing field {key!r}")
        if not isinstance(f["frame_index"], int) or isinstance(f["frame_index"], bool):
            raise ValueError(f"frame {fi}: frame_index must be an integer")
        if not isinstance(f["labeled"], bool):
            raise ValueError(f"frame {fi}: labeled must be a boolean")
        if not isinstance(f["detections"], list):
            raise ValueError(f"frame {fi}: detections must be a list")
        detections = []
        for di, d in enumerate(f["detections"]):
            where = f"frame {fi} detection {di}"
            if not isinstance(d, dict):
                raise ValueError(f"{where}: must be an object")
            for key in ("bbox", "score", "keypoints"):
                if key not in d:
                    raise ValueError(f"{where}: missing field {key!r}")
            try:  # float() of an integer beyond the float range overflows
                box = _as_box(d["bbox"], f"{where} bbox")
                score = d["score"]
                if not _is_number(score):
                    raise ValueError(f"{where}: score must be a number")
                score = float(score)
                if not math.isfinite(score):
                    raise ValueError(f"{where}: score must be finite")
                score = min(1.0, max(0.0, score))
                kps = d["keypoints"]
                if not isinstance(kps, list) or len(kps) != j:
                    raise ValueError(f"{where}: keypoints must have length {j}")
                joints = [_as_keypoint(kp, f"{where} keypoint") for kp in kps]
                if joint_map is not None:
                    joints = [joints[k] for k in joint_map]
                feature = d.get("feature")
                if feature is not None:
                    if not isinstance(feature, list) or not all(_is_number(v) for v in feature):
                        raise ValueError(f"{where}: feature must be a list of numbers")
                    feature = tuple(float(v) for v in feature)
                    if not all(math.isfinite(v) for v in feature):
                        raise ValueError(f"{where}: feature has a non-finite entry")
                head_box = d.get("head_box")
                if head_box is not None:
                    head_box = _as_box(head_box, f"{where} head_box")
            except OverflowError as exc:
                raise ValueError(f"{where}: number out of the float range") from exc
            track_id = d.get("track_id")
            if track_id is not None and (not isinstance(track_id, int) or isinstance(track_id, bool)):
                raise ValueError(f"{where}: track_id must be an integer")
            if role == ROLE_GROUNDTRUTH:
                if track_id is None:
                    raise ValueError(f"{where}: ground truth requires track_id")
                if head_box is None:
                    raise ValueError(f"{where}: ground truth requires head_box")
                if head_box.diagonal <= 0.0:  # it normalizes every PCKh distance
                    raise ValueError(f"{where}: ground truth head_box has zero size")
            detections.append(
                Detection(
                    box=box,
                    score=score,
                    pose=Pose(tuple(joints)),
                    feature=feature,
                    track_id=track_id,
                    head_box=head_box,
                )
            )
        frames.append(Frame(f["frame_index"], f["labeled"], tuple(detections)))

    return VideoSequence(
        video_id=raw["video_id"],
        image_width=int(size[0]),
        image_height=int(size[1]),
        joint_names=tuple(joint_names),
        frames=tuple(frames),
    )


def write_text_atomic(path: str, text: str) -> None:
    """Write UTF-8 text through a temp file in the target directory and a rename,
    so readers see the old file or the new one, never a partial write."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_sequence(seq: VideoSequence, path: str) -> None:
    """Write a sequence file; atomic (temp file + rename)."""
    doc = {
        "video_id": seq.video_id,
        "image_size": [int(seq.image_width), int(seq.image_height)],
        "joint_names": list(seq.joint_names),
        "frames": [
            {
                "frame_index": int(frame.frame_index),
                "labeled": bool(frame.labeled),
                "detections": [_detection_doc(det) for det in frame.detections],
            }
            for frame in seq.frames
        ],
    }
    write_text_atomic(path, json.dumps(doc))


def _detection_doc(det: Detection) -> dict:
    doc = {
        "bbox": [float(det.box.x_min), float(det.box.y_min), float(det.box.x_max), float(det.box.y_max)],
        "score": float(det.score),
        "keypoints": [
            [float(kp.x), float(kp.y), float(kp.score), 1 if kp.present else 0]
            for kp in det.pose.joints
        ],
    }
    if det.feature is not None:
        doc["feature"] = [float(v) for v in det.feature]
    if det.track_id is not None:
        doc["track_id"] = int(det.track_id)
    if det.head_box is not None:
        hb = det.head_box
        doc["head_box"] = [float(hb.x_min), float(hb.y_min), float(hb.x_max), float(hb.y_max)]
    return doc


def derive_box_from_pose(pose: Pose, dilation: float = 0.20) -> Box:
    """Bounding box of present joints, each side length grown by `dilation` in total.

    Growth is split evenly between the two sides (dilation/2 each), so a
    zero-span dimension stays zero-span.
    """
    xs = [kp.x for kp in pose.joints if kp.present]
    ys = [kp.y for kp in pose.joints if kp.present]
    if not xs:
        raise ValueError("cannot derive a box from a pose with no present joints")
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    gx = 0.5 * dilation * (x_max - x_min)
    gy = 0.5 * dilation * (y_max - y_min)
    return Box(x_min - gx, y_min - gy, x_max + gx, y_max + gy)


def filter_detections(seq: VideoSequence, det_threshold: float, kp_threshold: float) -> VideoSequence:
    """Drop detections scoring below det_threshold and mark keypoints scoring
    below kp_threshold as absent. Frame structure is preserved; idempotent."""
    if math.isnan(det_threshold) or math.isnan(kp_threshold):
        raise ValueError("thresholds must not be NaN")
    frames = []
    for frame in seq.frames:
        kept = []
        for det in frame.detections:
            if det.score < det_threshold:
                continue
            joints = tuple(
                kp if not kp.present or kp.score >= kp_threshold else replace(kp, present=False)
                for kp in det.pose.joints
            )
            kept.append(replace(det, pose=Pose(joints)))
        frames.append(replace(frame, detections=tuple(kept)))
    return seq.with_frames(frames)
