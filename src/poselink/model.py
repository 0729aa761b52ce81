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
              "keypoints": [[x, y, score, present01], ...],   # length J; present01 a number, not a bool
              "feature": [float, ...],          # optional
              "track_id": int,                  # optional, required for GT
              "head_box": [x1, y1, x2, y2]      # optional, required for GT, of non-zero, finite size
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

A `VideoSequence` holds its N detections as one `Detections`, read-only
columns with one row per detection in file order, and an entry per frame:

    boxes        (N, 4)     corners [x_min, y_min, x_max, y_max]
    scores       (N,)       detector scores
    xy           (N, J, 2)  joint coordinates
    kp_score     (N, J)     joint scores
    present      (N, J)     joint presence flags
    features     (N, D)     appearance embeddings; NaN where has_feature is False
    has_feature  (N,)       which detections carry an embedding
    track_ids    N Python ints or None, so that ids of any size survive
    head_boxes   (N, 4)     head-box corners; NaN rows where there is none

    frame_indices  F Python ints, strictly increasing
    labeled        F Python bools
    offsets        F + 1 Python ints: frame k's rows are offsets[k]:offsets[k + 1]

(the values-plus-offsets layout of Arrow's list arrays). A `Frame` is a view:
`VideoSequence.frames` slices the columns for the per-frame steps. Loading,
synthesis, filtering, linking, scoring and saving work on these columns;
`Detections.from_columns` builds a checked one. One set of array checks in
`load_sequence` accepts a file a block of frames at a time and names the
first error of a bad file from the text already read: run on one frame at a
time, and on one detection at a time only within a frame that fails.
`save_sequence` writes a file a block of frames at a time. Every type is
frozen, and every array read-only, so values are immutable and safe to share;
a `Box` holds one box for the tube kernels, and its checks word the box errors.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
import operator
import os
import tempfile
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from typing import Iterable, NoReturn, Optional, Sequence

import numpy as np


def _frozen(value, dtype) -> np.ndarray:
    """value as a read-only array; an array that is read-only already is shared."""
    if isinstance(value, np.ndarray) and value.dtype == dtype and not value.flags.writeable:
        return value
    arr = np.array(value, dtype=dtype)
    arr.flags.writeable = False
    return arr


_INT64_MAX = 2**63 - 1  # the largest value numpy's int64 sampler can draw


def _is_real(value) -> bool:
    """Whether value is a real number (numpy's too), not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_int(name: str, value, minimum: int = 1, below: str | None = None) -> None:
    """A ValueError unless value is an integer (numpy's too, but no bool) of
    at least minimum; `below` words the error of an integer under minimum."""
    message = f"{name} must be an integer >= {minimum}, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(message)
    if value < minimum:
        raise ValueError(below or message)


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
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


def _check_boxes(corners: np.ndarray) -> None:
    """Raise the error of `Box` for the first (x_min, y_min, x_max, y_max) row it rejects."""
    ok = np.isfinite(corners).all(axis=1) & (corners[:, :2] <= corners[:, 2:]).all(axis=1)
    if not ok.all():
        Box(*corners[ok.argmin()].tolist())


def box_diagonals(corners: np.ndarray) -> list[float]:
    """math.hypot(width, height) of each (x_min, y_min, x_max, y_max) row."""
    return [math.hypot(x2 - x1, y2 - y1) for x1, y1, x2, y2 in corners.tolist()]


_ARRAYS = ("boxes", "scores", "xy", "kp_score", "present", "features", "has_feature", "head_boxes")


@dataclass(frozen=True, eq=False)
class Detections:
    """Rows of detections, a frame's or a sequence's, as read-only columns (see the module docstring).

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
        of `Box`; scores, features and present joints must be finite and a
        track id a non-negative integer (Python or numpy, not a bool or float).

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
        _check_boxes(boxes)
        _check_boxes(head_boxes[~np.isnan(head_boxes).all(axis=1)])  # NaN rows mean no head box
        if not np.isfinite(scores).all():
            raise ValueError("score must be finite")
        if not np.isfinite(features[has_feature]).all():
            raise ValueError("feature has a non-finite entry")
        if not ((np.isfinite(xy).all(axis=2) & np.isfinite(kp_score)) | ~present).all():
            raise ValueError("present keypoint has non-finite coordinates or score")
        track_ids = (None,) * n if track_ids is None else tuple(track_ids)
        if len(track_ids) != n:
            raise ValueError("track_ids must hold one entry per detection")
        given = [t for t in track_ids if t is not None]
        if not all(isinstance(t, numbers.Integral) and not isinstance(t, bool) for t in given):
            raise ValueError("track_id must be an integer")
        if any(t < 0 for t in given):
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
    """A video's detections as one column set, and its frames as indices,
    labeled flags and row offsets (see the module docstring)."""

    video_id: str
    image_width: int
    image_height: int
    joint_names: tuple[str, ...]
    detections: Detections
    frame_indices: tuple[int, ...]
    labeled: tuple[bool, ...]
    offsets: tuple[int, ...]

    def __post_init__(self):
        indices, offsets, dets = self.frame_indices, self.offsets, self.detections
        if len(self.labeled) != len(indices) or len(offsets) != len(indices) + 1 or offsets[0] != 0 \
                or offsets[-1] != len(dets) or any(b < a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("offsets must rise from 0 to the row count, one per frame and one more")
        if min(indices, default=0) < 0:
            raise ValueError("frame_index must be non-negative")
        # the first frame at or below the one before it
        back = next((k for k in range(1, len(indices)) if indices[k] <= indices[k - 1]), len(indices))
        j = len(self.joint_names)
        # as a frame-by-frame check finds it: the first frame with rows, unless a step back comes first
        if len(dets) and dets.xy.shape[1] != j and bisect.bisect_right(offsets, 0) - 1 < back:
            raise ValueError(f"joint count mismatch: pose has {dets.xy.shape[1]}, sequence has {j}")
        if back < len(indices):
            raise ValueError(f"non-monotone frames: index {indices[back]} after {indices[back - 1]}")

    @classmethod
    def from_frames(cls, video_id: str, image_width: int, image_height: int, joint_names: Sequence[str],
                    frames: Sequence[Frame]) -> "VideoSequence":
        """The sequence of these frames, checked frame by frame, each for its
        index and then its joint count, then for one feature width."""
        frames, j, last_index = tuple(frames), len(joint_names), -1
        for frame in frames:
            if frame.frame_index <= last_index:
                raise ValueError(
                    f"non-monotone frames: index {frame.frame_index} after {last_index}"
                )
            last_index = frame.frame_index
            dets = frame.detections
            if len(dets) and dets.xy.shape[1] != j:
                raise ValueError(
                    f"joint count mismatch: pose has {dets.xy.shape[1]}, sequence has {j}"
                )
        # a frame without features may have another width than those with them
        detections = Detections.concat([f.detections for f in frames])
        return cls(video_id, image_width, image_height, tuple(joint_names), detections,
                   tuple(int(f.frame_index) for f in frames), tuple(bool(f.labeled) for f in frames),
                   tuple(accumulate((len(f.detections) for f in frames), initial=0)))

    @cached_property
    def frames(self) -> tuple[Frame, ...]:
        """Each frame's `Frame`, its detections a view of its rows; made on first use."""
        dets, bounds = self.detections, self.offsets
        columns = [(name, getattr(dets, name)) for name in _ARRAYS]
        return tuple(
            Frame(index, labeled, Detections(**{name: col[lo:hi] for name, col in columns},
                                             track_ids=dets.track_ids[lo:hi]))
            for index, labeled, lo, hi in zip(self.frame_indices, self.labeled, bounds, bounds[1:])
        )

    @property
    def joint_count(self) -> int:
        return len(self.joint_names)

    def with_frames(self, frames: Sequence[Frame]) -> "VideoSequence":
        return VideoSequence.from_frames(self.video_id, self.image_width, self.image_height,
                                         self.joint_names, frames)


ROLE_PREDICTION = "prediction"
ROLE_GROUNDTRUTH = "groundtruth"


def read_json(path: str):
    """The document of a UTF-8 JSON file. Bytes that are not UTF-8, text that
    is not JSON, an integer too long to convert and nesting too deep to decode
    are a ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # JSONDecodeError, UnicodeDecodeError and the integer digit limit's error are ValueErrors
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def load_sequence(path: str, role: str = ROLE_PREDICTION) -> VideoSequence:
    """Load and validate a sequence file.

    role="groundtruth" additionally requires track_id and a head_box of
    non-zero, finite size on every person, and no track_id twice in one frame.

    The file is read as text once, and its frames are decoded and converted
    a block of about _LOAD_BLOCK detections at a time, so no decoded tree of
    the whole document exists. A bad file's first error is named from that
    text, its frames decoded again one at a time; only a file that is not a
    JSON object with every top-level field is read again, by read_json.
    """
    if role not in (ROLE_PREDICTION, ROLE_GROUNDTRUTH):
        raise ValueError(f"unknown role {role!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        fields, frames_at, blocks_j, blocks = _walk(text, role)
    except (ValueError, RecursionError):
        fields = None  # set here, so that the error below is not chained to this one
    if fields is None:  # not JSON, not an object or short of a field, as the decoded document says
        _header(read_json(path), path)
        raise AssertionError("the walk rejects a file that json.load and the header checks accept")
    header = _header(fields, path)
    if frames_at is None:
        raise ValueError("frames must be a list")
    j = len(header[3])
    if blocks_j != j:  # not converted yet, or under a joint_names replaced later
        blocks = _frame_blocks(text, frames_at, j, role)[0]
    if blocks is not None:
        try:
            return VideoSequence(*header, *_rows(blocks))
        except ValueError:  # a check across blocks of frames
            pass  # left here, so that the error below is not chained to this one
    _raise_first_error(chain.from_iterable(run for run, _ in _runs(text, frames_at)), j, role)


# detections per block of frames that load_sequence decodes and converts at a
# time; a frame counts as one at least and is never split. Like
# metrics._MATCH_BLOCK it bounds scratch memory and changes no result. Budgets
# from 2**6 to 2**9 loaded 400-frame, 4-actor files equally fast; up to 2**7
# a block's decoded frames stay below the file's text
_LOAD_BLOCK = 2**7

_FIELDS = ("video_id", "image_size", "joint_names", "frames")  # the top-level fields, in the order checked
_skip = json.decoder.WHITESPACE.match  # _skip(text, at).end(): the end of the whitespace at `at`
_decode = json.JSONDecoder().raw_decode  # json.loads' decoder, on one value at an index


def _walk(text: str, role: str) -> tuple[dict, Optional[int], Optional[int], Optional[list]]:
    """The top-level fields of the document in text, walked as json.loads
    walks it, a repeated key keeping its last value; the index in text of the
    frames array (None if frames is not one), which stands in the fields as
    []; the joint count its frames were converted under (None before
    joint_names) and their _frame_blocks. Text that is not a JSON object with
    every one of _FIELDS is a ValueError or RecursionError, its message unused."""
    fields, frames_at, blocks_j, blocks = {}, None, None, None
    end = _skip(text, 0).end()
    if not text.startswith("{", end):
        raise ValueError("not an object")
    end, more = _skip(text, end + 1).end(), True
    while more:
        if not text.startswith('"', end):  # an empty object too, which misses every field
            raise ValueError("expecting a key")
        key, end = json.decoder.scanstring(text, end + 1)
        end = _skip(text, end).end()
        if not text.startswith(":", end):
            raise ValueError("expecting ':'")
        end = _skip(text, end + 1).end()
        if key == "frames" and text.startswith("[", end):
            names = fields.get("joint_names")
            frames_at, blocks_j = end, len(names) if isinstance(names, list) else None
            blocks, end = _frame_blocks(text, end, blocks_j, role)
            fields[key] = []  # there; its frames are in blocks
        else:
            if key == "frames":
                frames_at = None
            fields[key], end = _decode(text, end)
        end = _skip(text, end).end()
        more = text.startswith(",", end)
        if not (more or text.startswith("}", end)):
            raise ValueError("expecting ',' or '}'")
        end = _skip(text, end + 1).end()
    if end != len(text):
        raise ValueError("extra data")
    if not fields.keys() >= set(_FIELDS):
        raise ValueError("missing a field")
    return fields, frames_at, blocks_j, blocks


def _frame_blocks(text: str, at: int, j: Optional[int], role: str) -> tuple[Optional[list], int]:
    """(blocks, end): the _block results of the _runs of the frames array at text[at], or
    None with j None or once a run fails a check, and the index after the array."""
    blocks = None if j is None else []
    for run, end in _runs(text, at):
        if blocks is not None:
            try:
                blocks.append(_block(run, j, role))
            except ValueError:  # _raise_first_error names it
                blocks = None
    return blocks, end + 1


def _runs(text: str, at: int):
    """(run, end) pairs: the frames of the array at text[at], which is '[', decoded one at a
    time in runs of about _LOAD_BLOCK detections (a frame counts as one at least and is never
    split; an empty array is one empty run), each with the index scanned to, ']' for the last."""
    end = _skip(text, at + 1).end()
    run, size, more = [], 0, not text.startswith("]", end)
    if not more:
        yield run, end
    while more:
        frame, end = _decode(text, end)
        end = _skip(text, end).end()
        more = text.startswith(",", end)
        if not (more or text.startswith("]", end)):
            raise ValueError("expecting ',' or ']'")
        end = _skip(text, end + 1).end() if more else end
        run.append(frame)
        dets = frame.get("detections") if type(frame) is dict else None
        size += max(len(dets), 1) if type(dets) is list else 1
        if size >= _LOAD_BLOCK or not more:
            yield run, end
            run, size = [], 0


def _header(raw, path: str) -> tuple[str, int, int, tuple[str, ...]]:
    """The (video_id, width, height, joint_names) of a decoded document, after
    the checks of its top-level fields; frames is checked only to be there."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: a sequence file holds a JSON object")
    for key in _FIELDS:
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
    return raw["video_id"], int(size[0]), int(size[1]), tuple(joint_names)


_NUMBER = {int, float}  # exact types, so booleans are not numbers


def _types(values) -> set:
    return set(map(type, values))


def _floats(values: list) -> np.ndarray:
    """values, all numbers, as a float array; an integer beyond the float range overflows."""
    try:
        return np.fromiter(values, dtype=float, count=len(values))
    except OverflowError:
        raise ValueError(": number out of the float range") from None


def _corners(boxes: list, what: str) -> np.ndarray:
    """The (len(boxes), 4) corners of the boxes, checked as `Box` checks one."""
    if not (_types(boxes) <= {list} and set(map(len, boxes)) <= {4}):
        raise ValueError(f" {what} must be a list of 4 numbers")
    values = list(chain.from_iterable(boxes))
    if not _types(values) <= _NUMBER:
        # a box converts corner by corner, so an overflow before its first non-number comes first
        bad = next(i for i, v in enumerate(values) if type(v) not in _NUMBER)
        _floats(values[bad - bad % 4:bad])
        raise ValueError(f" {what} has a non-numeric entry")
    corners = _floats(values).reshape(-1, 4)
    try:
        _check_boxes(corners)
    except ValueError as exc:
        raise ValueError(f" {what}: {exc}") from None
    return corners


def _fields(objects: list, keys: tuple) -> list[list]:
    """The value of each key in every one of objects, which must be JSON objects holding them."""
    if not _types(objects) <= {dict}:
        raise ValueError(": must be an object")
    try:
        return [list(map(operator.itemgetter(key), objects)) for key in keys]
    except KeyError as exc:
        raise ValueError(f": missing field {exc.args[0]!r}") from None


def _frame_fields(raw_frames: list) -> tuple[list, list, list]:
    """The frame_index, labeled and detections of every frame, checked in that
    order. A failed check raises the tail of its message; see _raise_first_error."""
    indices, labeled, per_frame = _fields(raw_frames, ("frame_index", "labeled", "detections"))
    if not _types(indices) <= {int}:
        raise ValueError(": frame_index must be an integer")
    if not _types(labeled) <= {bool}:
        raise ValueError(": labeled must be a boolean")
    if not _types(per_frame) <= {list}:
        raise ValueError(": detections must be a list")
    return indices, labeled, per_frame


def _columns(dets: list, j: int, role: str) -> Detections:
    """The `Detections` of the raw detections, checked with each check one
    C-level pass over all of them, in the order one detection
    is checked. A failed check raises the tail of its message; see _raise_first_error."""
    bboxes, scores, kps = _fields(dets, ("bbox", "score", "keypoints"))
    feats, ids, heads = (list(map(dict.get, dets, repeat(key)))
                         for key in ("feature", "track_id", "head_box"))
    has_feature, has_head = ([v is not None for v in col] for col in (feats, heads))
    feats, heads = list(compress(feats, has_feature)), list(compress(heads, has_head))
    given_ids = [t for t in ids if t is not None]
    n = len(dets)

    boxes = _corners(bboxes, "bbox")
    if not _types(scores) <= _NUMBER:
        raise ValueError(": score must be a number")
    score_arr = _floats(scores)
    if not np.isfinite(score_arr).all():
        raise ValueError(": score must be finite")
    if not (_types(kps) <= {list} and set(map(len, kps)) <= {j}):
        raise ValueError(f": keypoints must have length {j}")
    rows = list(chain.from_iterable(kps))
    if not (_types(rows) <= {list} and set(map(len, rows)) <= {4}):
        raise ValueError(" keypoint must be [x, y, score, present]")
    values = list(chain.from_iterable(rows))
    if not _types(values) <= _NUMBER:  # a bool, string or null; a coordinate is named first
        del values[3::4]
        raise ValueError(" keypoint has a non-numeric entry" if not _types(values) <= _NUMBER
                         else " keypoint presence flag must be 0 or 1")
    flags = values[3::4]  # each must be `in (0, 1)`, checked before a flag can overflow
    if flags.count(0) + flags.count(1) < len(flags):
        raise ValueError(" keypoint presence flag must be 0 or 1")
    block = _floats(values).reshape(n, j, 4)
    if not np.isfinite(block).all():  # absent joints too
        raise ValueError(" keypoint has a non-finite entry")
    if not (_types(feats) <= {list} and _types(chain.from_iterable(feats)) <= _NUMBER):
        raise ValueError(": feature must be a list of numbers")
    widths = set(map(len, feats))
    if len(widths) > 1:  # a check across detections, which _raise_first_error makes last
        raise ValueError("feature vectors must share one dimensionality")
    feat_arr = _floats(list(chain.from_iterable(feats))).reshape(len(feats), max(widths, default=0))
    if not np.isfinite(feat_arr).all():
        raise ValueError(": feature has a non-finite entry")
    head_arr = _corners(heads, "head_box")
    if not _types(given_ids) <= {int}:
        raise ValueError(": track_id must be an integer")
    if role == ROLE_GROUNDTRUTH:
        if len(given_ids) < n:
            raise ValueError(": ground truth requires track_id")
        if len(heads) < n:
            raise ValueError(": ground truth requires head_box")
        if (head_arr[:, :2] == head_arr[:, 2:]).all(axis=1).any():  # it normalizes every PCKh distance
            raise ValueError(": ground truth head_box has zero size")
        far = np.abs(head_arr).max(axis=1, initial=0.0) > 2.0**1021  # nearer corners: diagonal <= 2**1022.5
        if not np.isfinite(box_diagonals(head_arr[far])).all():
            raise ValueError(": ground truth head_box diagonal is beyond the float range")
    if min(given_ids, default=0) < 0:
        raise ValueError(": track_id must be non-negative")

    features = np.full((n, feat_arr.shape[1]), math.nan)
    features[has_feature] = feat_arr
    head_boxes = np.full((n, 4), math.nan)
    head_boxes[has_head] = head_arr
    return Detections(boxes=boxes, scores=np.clip(score_arr, 0.0, 1.0) + 0.0,  # + 0.0 turns -0.0 into 0.0
                      xy=block[..., :2], kp_score=block[..., 2], present=block[..., 3] == 1.0,
                      features=features, has_feature=np.array(has_feature, dtype=bool), track_ids=tuple(ids),
                      head_boxes=head_boxes)


def _block(raw_frames: list, j: int, role: str) -> tuple[list, list, list, Detections]:
    """The frame_index and labeled values, detection counts and `_columns`
    of a run of raw frames, checked with a few array operations over all of
    their detections at once; a failed check names no frame or detection."""
    indices, labeled, per_frame = _frame_fields(raw_frames)
    columns = _columns(list(chain.from_iterable(per_frame)), j, role)
    counts = list(map(len, per_frame))
    if role == ROLE_GROUNDTRUTH:
        ids, lo = columns.track_ids, 0
        for n in counts:
            if len(set(ids[lo:lo + n])) < n:
                raise ValueError("ground truth repeats a track_id")
            lo += n
    return indices, labeled, counts, columns


def _rows(blocks: list) -> tuple[Detections, tuple, tuple, tuple]:
    """The detections, frame indices, labeled flags and offsets of a
    `VideoSequence`, from the _block results of a file's runs of frames, in
    order, their columns joined once."""
    indices, labeled, counts, columns = zip(*blocks)
    return (Detections.concat(columns), tuple(chain.from_iterable(indices)),
            tuple(chain.from_iterable(labeled)), tuple(accumulate(chain.from_iterable(counts), initial=0)))


def _raise_first_error(raw_frames: Iterable, j: int, role: str) -> NoReturn:
    """Raise the ValueError of the first check, in file order, that raw_frames
    fail, in one pass: the checks of _frame_fields and _columns, run on one
    frame at a time, and on one detection at a time only within a frame whose
    detections fail them, then that frame's frame_index and ground-truth track
    ids; then the first failure of the checks across frames, kept till the end."""
    across, last_index, feature_dims = None, -1, set()
    for fi, f in enumerate(raw_frames):
        try:
            _frame_fields([f])
        except ValueError as exc:
            raise ValueError(f"frame {fi}{exc}") from None
        try:
            _columns(f["detections"], j, role)
        except ValueError:
            # when no detection fails alone, the frame failed the feature-width
            # check across detections, which comes after every other check
            for di, d in enumerate(f["detections"]):
                try:
                    _columns([d], j, role)
                except ValueError as exc:
                    raise ValueError(f"frame {fi} detection {di}{exc}") from None
        if f["frame_index"] < 0:
            raise ValueError(f"frame {fi}: frame_index must be non-negative")
        seen = set()
        for t in (d["track_id"] for d in f["detections"]) if role == ROLE_GROUNDTRUTH else ():
            if t in seen:
                raise ValueError(f"frame {fi}: ground truth repeats track_id {t}")
            seen.add(t)
        feature_dims.update(len(d["feature"]) for d in f["detections"] if d.get("feature") is not None)
        if f["frame_index"] <= last_index:
            across = across or f"non-monotone frames: index {f['frame_index']} after {last_index}"
        if len(feature_dims) > 1:
            across = across or "feature vectors must share one dimensionality"
        last_index = f["frame_index"]
    if across is not None:
        raise ValueError(across)
    raise AssertionError("the sequence checks disagree: a file failed none of the named checks")


def write_text_atomic(path: str, pieces: Iterable[str]) -> None:
    """Write UTF-8 text, the pieces of an iterable in order, through a temp
    file in the target directory and a rename, so readers see the old file or
    the new one, never a partial write. A piece is written as it comes, so a
    long file need never be one string; one string goes in as a one-element
    tuple. If the iterable raises, the target is left as it was."""
    if isinstance(pieces, str):
        raise TypeError("write_text_atomic takes an iterable of text pieces, not a str")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_encode = json.JSONEncoder(allow_nan=False).encode  # json.dumps(value, allow_nan=False)


def save_sequence(seq: VideoSequence, path: str) -> None:
    """Write a sequence file as strict JSON, atomically (temp file + rename);
    a non-finite value is a ValueError and writes nothing.

    The file is written a block of frames at a time: the top-level fields,
    then each frame's JSON text, joined by ", ", then the close of the frames
    array and of the document. Those are the bytes of json.dumps(document,
    allow_nan=False), without the whole document ever held at once.
    """
    head = _encode({
        "video_id": seq.video_id,
        "image_size": [int(seq.image_width), int(seq.image_height)],
        "joint_names": list(seq.joint_names),
        "frames": [],
    })
    write_text_atomic(path, chain((head[:-2],), _frame_texts(seq), ("]}",)))  # head ends in "[]}"


def _frame_texts(seq: VideoSequence):
    """The JSON text of each frame, with ", " between two frames; the rows'
    file objects are made a block of frames at a time, of at most _LOAD_BLOCK
    rows unless one frame holds more."""
    bounds = seq.offsets
    docs, first = [], 0  # the file objects of rows first to first + len(docs) - 1
    for k, (index, labeled, lo, hi) in enumerate(zip(seq.frame_indices, seq.labeled, bounds, bounds[1:])):
        if hi > first + len(docs):  # the next block starts at this frame
            end = bounds[max(bisect.bisect_right(bounds, lo + _LOAD_BLOCK) - 1, k + 1)]
            docs = None  # freed before the next block's objects are made, so one block is held at a time
            docs, first = _detection_docs(seq.detections, lo, end), lo
        if k:
            yield ", "
        yield _encode({
            "frame_index": int(index),
            "labeled": bool(labeled),
            "detections": docs[lo - first:hi - first],
        })


def _detection_docs(dets: Detections, lo: int, hi: int) -> list[dict]:
    """The file objects of rows lo to hi - 1, from a few tolist() calls."""
    present = dets.present[lo:hi]
    keypoints = np.empty(present.shape + (4,), dtype=object)  # Python floats, int flags
    keypoints[..., :2] = dets.xy[lo:hi]
    keypoints[..., 2] = dets.kp_score[lo:hi]
    keypoints[..., 3] = present.astype(int)
    docs = []
    for box, score, kps, feature, has_feature, track_id, head_box in zip(
        dets.boxes[lo:hi].tolist(), dets.scores[lo:hi].tolist(), keypoints.tolist(),
        dets.features[lo:hi].tolist(), dets.has_feature[lo:hi].tolist(), dets.track_ids[lo:hi],
        dets.head_boxes[lo:hi].tolist(),
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
    dets = seq.detections
    dropped = dets.present & (dets.kp_score < kp_threshold)
    if dropped.any():
        dets = replace(dets, present=dets.present & ~dropped)
    kept = ~(dets.scores < det_threshold)
    if kept.all():
        return replace(seq, detections=dets)
    kept_before = np.concatenate([[0], np.cumsum(kept)])  # the kept rows before each row
    return replace(seq, detections=dets.take(kept), offsets=tuple(kept_before[list(seq.offsets)].tolist()))
