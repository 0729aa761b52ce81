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

Joint scores are unnormalized (heatmap scale) and may exceed 1; detector
box scores are clamped to [0, 1] when loading. Absent keypoints keep their
coordinates and carry present=0 in the file, so no sentinel values are needed.
Floats are serialized with Python's shortest round-trip representation, which
makes save followed by load the identity on every semantic field.

A frame holds its N detections as one `Detections`: read-only columns with
one row per detection, in file order.

    boxes        (N, 4)     corners [x_min, y_min, x_max, y_max]
    scores       (N,)       detector scores
    xy           (N, J, 2)  joint coordinates
    kp_score     (N, J)     joint scores
    present      (N, J)     joint presence flags
    features     (N, D)     appearance embeddings; NaN where has_feature is False
    has_feature  (N,)       which detections carry an embedding
    track_ids    N Python ints or None, so that ids of any size survive
    head_boxes   (N, 4)     head-box corners; NaN rows where there is none

Loading, synthesis, filtering, linking, scoring and saving work on these
columns; `Detections.from_columns` builds a checked one and `load_sequence`
checks a whole file at once. `Pose` and `Box` hold one pose or box for the
scalar functions and the tube kernels. Every type is frozen and every array
read-only, so each value is immutable after construction and safe to share.
"""

from __future__ import annotations

import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass, replace
from itertools import chain, compress, repeat
from typing import Optional, Sequence

import numpy as np


def _frozen(value, dtype) -> np.ndarray:
    """value as a read-only array; an array that is read-only already is shared."""
    if isinstance(value, np.ndarray) and value.dtype == dtype and not value.flags.writeable:
        return value
    arr = np.array(value, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Pose:
    """J joints as read-only arrays: xy (J, 2), score (J,) and present (J,) flags.

    A present joint is finite; an absent one may hold any values. Poses are
    equal when their arrays are, NaN equal to NaN.
    """

    xy: np.ndarray
    score: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        xy = _frozen(self.xy, np.float64).reshape(-1, 2)
        score, present = _frozen(self.score, np.float64), _frozen(self.present, np.bool_)
        if score.ndim != 1 or present.shape != score.shape or len(xy) != len(score):
            raise ValueError("pose arrays must have shapes (J, 2), (J,) and (J,)")
        # a sum of squares is finite unless an entry is NaN or inf, or it overflows
        if not math.isfinite(np.vdot(xy, xy) + np.vdot(score, score)) and not (
            np.isfinite(xy[present]).all() and np.isfinite(score[present]).all()
        ):
            raise ValueError("present keypoint has non-finite coordinates or score")
        for name, arr in (("xy", xy), ("score", score), ("present", present)):
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.score)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pose)
            and np.array_equal(self.present, other.present)
            and np.array_equal(self.xy, other.xy, equal_nan=True)
            and np.array_equal(self.score, other.score, equal_nan=True)
        )

    def __hash__(self) -> int:  # equal poses have equal presence flags
        return hash(self.present.tobytes())


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


def box_diagonals(corners: np.ndarray) -> list[float]:
    """`Box.diagonal` of each (x_min, y_min, x_max, y_max) row, bit for bit."""
    return [math.hypot(x2 - x1, y2 - y1) for x1, y1, x2, y2 in corners.tolist()]


_ARRAYS = ("boxes", "scores", "xy", "kp_score", "present", "features", "has_feature", "head_boxes")


@dataclass(frozen=True, eq=False)
class Detections:
    """The detections of one frame as read-only columns (see the module docstring).

    The constructor makes the arrays it is given read-only and checks
    nothing: its columns must already hold what `from_columns` checks.
    `from_columns` and `load_sequence` build checked ones. Equal when every
    row is, NaN equal to NaN.
    """

    boxes: np.ndarray
    scores: np.ndarray
    xy: np.ndarray
    kp_score: np.ndarray
    present: np.ndarray
    features: np.ndarray
    has_feature: np.ndarray
    track_ids: tuple[Optional[int], ...]
    head_boxes: np.ndarray

    def __post_init__(self):
        for name in _ARRAYS:
            getattr(self, name).setflags(write=False)

    @classmethod
    def from_columns(cls, boxes, scores, xy, kp_score, present, features=None, track_ids=None,
                     head_boxes=None) -> "Detections":
        """N checked detections from their columns, with the checks and messages
        of `Box` and `Pose`; a track id must be non-negative.

        features (N, D) gives every row an embedding, and None gives none.
        track_ids defaults to None on every row and head_boxes to NaN rows,
        which mean no head box. With N = 0 this is the empty value.
        """
        boxes, scores, xy, kp_score = (_frozen(a, np.float64) for a in (boxes, scores, xy, kp_score))
        present = _frozen(present, np.bool_)
        n = len(scores) if scores.ndim == 1 else 0
        head_boxes = np.full((n, 4), math.nan) if head_boxes is None else _frozen(head_boxes, np.float64)
        if features is None:
            features, has_feature = np.full((n, 0), math.nan), np.zeros(n, dtype=bool)
        else:
            features, has_feature = _frozen(features, np.float64), np.ones(n, dtype=bool)
        if scores.ndim != 1 or boxes.shape != (n, 4) or head_boxes.shape != (n, 4) \
                or features.ndim != 2 or len(features) != n:
            raise ValueError("boxes, scores, head boxes and features must have shapes "
                             "(N, 4), (N,), (N, 4) and (N, D)")
        if xy.ndim != 3 or len(xy) != n or xy.shape[2] != 2 or kp_score.shape != xy.shape[:2] \
                or present.shape != xy.shape[:2]:
            raise ValueError("pose arrays must have shapes (N, J, 2), (N, J) and (N, J)")
        for corners, none in ((boxes, False), (head_boxes, np.isnan(head_boxes).all(axis=1))):
            ok = none | (np.isfinite(corners).all(axis=1) & (corners[:, :2] <= corners[:, 2:]).all(axis=1))
            if not ok.all():
                Box(*corners[ok.argmin()].tolist())  # raises the error of the first bad box
        if not ((np.isfinite(xy).all(axis=2) & np.isfinite(kp_score)) | ~present).all():
            raise ValueError("present keypoint has non-finite coordinates or score")
        track_ids = (None,) * n if track_ids is None else tuple(track_ids)
        if len(track_ids) != n:
            raise ValueError("track_ids must hold one entry per detection")
        if any(t is not None and t < 0 for t in track_ids):
            raise ValueError("track_id must be non-negative")
        return cls(boxes, scores, xy, kp_score, present, features, has_feature, track_ids, head_boxes)

    def take(self, rows) -> "Detections":
        """The rows picked by a slice, a boolean mask or an index sequence, in that order."""
        ids = tuple(np.array(self.track_ids, dtype=object)[rows])  # Python ints of any size
        return replace(self, **{name: getattr(self, name)[rows] for name in _ARRAYS}, track_ids=ids)

    @staticmethod
    def concat(parts: Sequence["Detections"]) -> "Detections":
        """The rows of every part in order. The parts must share a joint count,
        and those with features a feature width; the others take that width."""
        parts = [p for p in parts if len(p)]
        if len(parts) <= 1:
            return parts[0] if parts else NO_DETECTIONS
        if len({p.xy.shape[1] for p in parts}) > 1:
            raise ValueError("joint count mismatch: the poses of one frame differ in length")
        widths = {p.features.shape[1] for p in parts if p.has_feature.any()}
        if len(widths) > 1:
            raise ValueError("feature vectors must share one dimensionality")
        width = max(widths or {p.features.shape[1] for p in parts})
        features = [p.features if p.features.shape[1] == width else np.full((len(p), width), math.nan)
                    for p in parts]
        columns = {name: np.concatenate([getattr(p, name) for p in parts])
                   for name in _ARRAYS if name != "features"}
        return Detections(**columns, features=np.concatenate(features),
                          track_ids=tuple(chain.from_iterable(p.track_ids for p in parts)))

    def __len__(self) -> int:
        return len(self.track_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Detections):
            return NotImplemented
        if len(self) != len(other) or self.track_ids != other.track_ids:
            return False
        if not len(self):  # no rows: the joint count and feature width do not matter
            return True
        has = self.has_feature
        return (
            np.array_equal(self.present, other.present)
            and np.array_equal(has, other.has_feature)
            and all(
                np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
                for name in ("boxes", "scores", "xy", "kp_score", "head_boxes")
            )
            and (not has.any() or np.array_equal(self.features[has], other.features[has], equal_nan=True))
        )

    def __hash__(self) -> int:  # equal columns have equal presence flags
        return hash((len(self), self.present.tobytes()))


# a frame without detections; its joint count and feature width are 0
NO_DETECTIONS = Detections.from_columns(
    np.zeros((0, 4)), np.zeros(0), np.zeros((0, 0, 2)), np.zeros((0, 0)), np.zeros((0, 0))
)


@dataclass(frozen=True)
class Frame:
    frame_index: int
    labeled: bool
    detections: Detections

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        if not isinstance(self.detections, Detections):
            raise TypeError(f"frame detections must be a Detections, not {type(self.detections).__name__}")


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
        widths = set()
        for frame in self.frames:
            if frame.frame_index <= last_index:
                raise ValueError(
                    f"non-monotone frames: index {frame.frame_index} after {last_index}"
                )
            last_index = frame.frame_index
            dets = frame.detections
            if len(dets):
                if dets.xy.shape[1] != j:
                    raise ValueError(
                        f"joint count mismatch: pose has {dets.xy.shape[1]}, sequence has {j}"
                    )
                widths.add(dets.features.shape[1])
        # a frame without features may have another width than those with them
        if len(widths) > 1 and len(
            {f.detections.features.shape[1] for f in self.frames if f.detections.has_feature.any()}
        ) > 1:
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
    try:
        return Box(*vals)
    except ValueError as exc:  # non-finite or out of order
        raise ValueError(f"{what}: {exc}") from None


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
        joint_map = list(joint_map)
        integers = all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in joint_map)
        if not integers or sorted(joint_map) != list(range(j)):
            raise ValueError(f"joint_map must be a permutation of range({j})")
        joint_names = [joint_names[k] for k in joint_map]

    if not isinstance(raw["frames"], list):
        raise ValueError("frames must be a list")
    frames = _frames(raw["frames"], j, role, joint_map)
    if frames is None:
        _raise_first_error(raw["frames"], j, role)

    return VideoSequence(
        video_id=raw["video_id"],
        image_width=int(size[0]),
        image_height=int(size[1]),
        joint_names=tuple(joint_names),
        frames=frames,
    )


_NUMBER = {int, float}  # exact types, so booleans are not numbers


def _types(values) -> set:
    return set(map(type, values))


def _frames(raw_frames: list, j: int, role: str, joint_map) -> Optional[tuple[Frame, ...]]:
    """The frames of a sequence file, checked and built with a few array
    operations over all of its detections at once. None when any check fails;
    _raise_first_error then names the first failure."""
    if not _types(raw_frames) <= {dict}:
        return None
    try:
        indices, labeled, per_frame = (list(map(operator.itemgetter(key), raw_frames))
                                       for key in ("frame_index", "labeled", "detections"))
    except KeyError:
        return None
    if not (_types(indices) <= {int} and _types(labeled) <= {bool} and _types(per_frame) <= {list}
            and min(indices, default=0) >= 0):
        return None
    dets = list(chain.from_iterable(per_frame))
    n = len(dets)
    if not _types(dets) <= {dict}:
        return None
    try:
        bboxes, scores, kps = (list(map(operator.itemgetter(key), dets))
                               for key in ("bbox", "score", "keypoints"))
    except KeyError:
        return None
    feats, ids, heads = (list(map(dict.get, dets, repeat(key)))
                         for key in ("feature", "track_id", "head_box"))
    has_feature = [f is not None for f in feats]
    has_head = [h is not None for h in heads]
    feats, heads = list(compress(feats, has_feature)), list(compress(heads, has_head))
    given_ids = [t for t in ids if t is not None]

    # structure and exact value types, one C-level pass per field
    if not (_types(kps) <= {list} and set(map(len, kps)) <= {j}):
        return None
    rows, boxes_and_heads = list(chain.from_iterable(kps)), bboxes + heads
    if not (_types(rows) <= {list} and set(map(len, rows)) <= {4}
            and _types(boxes_and_heads) <= {list} and set(map(len, boxes_and_heads)) <= {4}
            and _types(feats) <= {list} and len(set(map(len, feats))) <= 1):
        return None
    corners = list(chain.from_iterable(boxes_and_heads))
    if not (_types(corners) <= _NUMBER and _types(chain.from_iterable(feats)) <= _NUMBER
            and _types(scores) <= _NUMBER and _types(given_ids) <= {int}
            and min(given_ids, default=0) >= 0):
        return None
    values = list(chain.from_iterable(rows))
    kp_types = _types(values)
    if not kp_types <= _NUMBER and not (  # only presence flags may be booleans
        kp_types <= _NUMBER | {bool} and _types(chain.from_iterable(r[:3] for r in rows)) <= _NUMBER
    ):
        return None
    if role == ROLE_GROUNDTRUTH and (len(given_ids) < n or len(heads) < n):
        return None

    try:  # float() of an integer beyond the float range overflows
        corners = np.array(corners, dtype=float).reshape(-1, 4)
        score_arr = np.array(scores, dtype=float)
        block = np.fromiter(values, dtype=float, count=len(values)).reshape(n, j, 4)
        feat_arr = np.array(feats, dtype=float).reshape(len(feats), len(feats[0]) if feats else 0)
    except OverflowError:
        return None
    flags = block[..., 3]
    if not (np.isfinite(corners).all() and np.isfinite(score_arr).all() and np.isfinite(block).all()
            and np.isfinite(feat_arr).all() and ((flags == 0.0) | (flags == 1.0)).all()
            and (corners[:, :2] <= corners[:, 2:]).all()):
        return None
    head_arr = corners[n:]
    if role == ROLE_GROUNDTRUTH and ((head_arr[:, :2] == head_arr[:, 2:]).all(axis=1)).any():
        return None  # a zero-size head box; it normalizes every PCKh distance

    if joint_map is not None:
        block = block[:, joint_map]
    features = np.full((n, feat_arr.shape[1]), math.nan)
    features[has_feature] = feat_arr
    head_boxes = np.full((n, 4), math.nan)
    head_boxes[has_head] = head_arr
    columns = {
        "boxes": corners[:n],
        "scores": np.clip(score_arr, 0.0, 1.0) + 0.0,  # + 0.0 turns -0.0 into 0.0
        "xy": block[..., :2],
        "kp_score": block[..., 2],
        "present": block[..., 3] == 1.0,
        "features": features,
        "has_feature": np.array(has_feature, dtype=bool),
        "head_boxes": head_boxes,
    }
    for arr in columns.values():
        arr.setflags(write=False)
    names, arrays, ids = tuple(columns), tuple(columns.values()), tuple(ids)
    bounds = np.cumsum([0] + list(map(len, per_frame))).tolist()
    frames = []
    for index, is_labeled, lo, hi in zip(indices, labeled, bounds, bounds[1:]):
        # a frame's rows are views of the read-only columns, so Detections'
        # __post_init__ has nothing to freeze; skipping it halves this loop
        dets = object.__new__(Detections)
        dets.__dict__.update(zip(names, [arr[lo:hi] for arr in arrays]), track_ids=ids[lo:hi])
        frames.append(Frame(index, is_labeled, dets))
    return tuple(frames)


def _raise_first_error(raw_frames: list, j: int, role: str) -> None:
    """Raise the ValueError of the first check, in file order, that raw_frames fails."""
    for fi, f in enumerate(raw_frames):
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
        for di, d in enumerate(f["detections"]):
            _check_detection(d, f"frame {fi} detection {di}", j, role)
        if f["frame_index"] < 0:
            raise ValueError(f"frame {fi}: frame_index must be non-negative")
    last_index, feature_dims = -1, set()
    for f in raw_frames:
        if f["frame_index"] <= last_index:
            raise ValueError(f"non-monotone frames: index {f['frame_index']} after {last_index}")
        last_index = f["frame_index"]
        feature_dims.update(len(d["feature"]) for d in f["detections"] if d.get("feature") is not None)
        if len(feature_dims) > 1:
            raise ValueError("feature vectors must share one dimensionality")
    raise AssertionError("the sequence checks disagree: a file failed none of the named checks")


def _check_detection(d, where: str, j: int, role: str) -> None:
    """Raise the ValueError of the first check that detection d fails."""
    if not isinstance(d, dict):
        raise ValueError(f"{where}: must be an object")
    for key in ("bbox", "score", "keypoints"):
        if key not in d:
            raise ValueError(f"{where}: missing field {key!r}")
    try:  # float() of an integer beyond the float range overflows
        _as_box(d["bbox"], f"{where} bbox")
        score = d["score"]
        if not _is_number(score):
            raise ValueError(f"{where}: score must be a number")
        if not math.isfinite(float(score)):
            raise ValueError(f"{where}: score must be finite")
        kps = d["keypoints"]
        if not isinstance(kps, list) or len(kps) != j:
            raise ValueError(f"{where}: keypoints must have length {j}")
        if not all(isinstance(kp, list) and len(kp) == 4 for kp in kps):
            raise ValueError(f"{where} keypoint must be [x, y, score, present]")
        if not {type(v) for kp in kps for v in kp[:3]} <= _NUMBER:  # not bool
            raise ValueError(f"{where} keypoint has a non-numeric entry")
        if not all(kp[3] in (0, 1) for kp in kps):
            raise ValueError(f"{where} keypoint presence flag must be 0 or 1")
        if not np.isfinite(np.array(kps, dtype=float)).all():  # absent joints too
            raise ValueError(f"{where} keypoint has a non-finite entry")
        feature = d.get("feature")
        if feature is not None:
            if not isinstance(feature, list) or not all(_is_number(v) for v in feature):
                raise ValueError(f"{where}: feature must be a list of numbers")
            if not all(math.isfinite(v) for v in [float(v) for v in feature]):
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
    if track_id is not None and track_id < 0:
        raise ValueError(f"{where}: track_id must be non-negative")


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
                "detections": _detection_docs(frame.detections),
            }
            for frame in seq.frames
        ],
    }
    write_text_atomic(path, json.dumps(doc))


def _detection_docs(dets: Detections) -> list[dict]:
    """The file objects of a frame's detections, from a few tolist() calls."""
    if not len(dets):
        return []
    keypoints = np.empty(dets.present.shape + (4,), dtype=object)  # Python floats, int flags
    keypoints[..., :2] = dets.xy
    keypoints[..., 2] = dets.kp_score
    keypoints[..., 3] = dets.present.astype(int)
    docs = []
    for box, score, kps, feature, has_feature, track_id, head_box in zip(
        dets.boxes.tolist(), dets.scores.tolist(), keypoints.tolist(), dets.features.tolist(),
        dets.has_feature.tolist(), dets.track_ids, dets.head_boxes.tolist(),
    ):
        doc = {"bbox": box, "score": score, "keypoints": kps}
        if has_feature:
            doc["feature"] = feature
        if track_id is not None:
            doc["track_id"] = int(track_id)
        if head_box[0] == head_box[0]:  # not NaN
            doc["head_box"] = head_box
        docs.append(doc)
    return docs


def filter_detections(seq: VideoSequence, det_threshold: float, kp_threshold: float) -> VideoSequence:
    """Drop detections scoring below det_threshold and mark keypoints scoring
    below kp_threshold as absent. Frame structure is preserved; idempotent."""
    if math.isnan(det_threshold) or math.isnan(kp_threshold):
        raise ValueError("thresholds must not be NaN")
    frames = []
    for frame in seq.frames:
        dets = frame.detections
        dropped = dets.present & (dets.kp_score < kp_threshold)
        if dropped.any():
            dets = replace(dets, present=dets.present & ~dropped)
        kept = ~(dets.scores < det_threshold)
        if not kept.all():
            dets = dets.take(kept)
        frames.append(Frame(frame.frame_index, frame.labeled, dets))
    return seq.with_frames(frames)
