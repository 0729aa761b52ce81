"""Shared fixture builders and independent oracles used across the test suite."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace

import numpy as np

from poselink.linking import Assignment
from poselink.model import (
    ROLE_GROUNDTRUTH,
    ROLE_PREDICTION,
    Box,
    Detections,
    Frame,
    VideoSequence,
)
from poselink.similarity import CostMatrix

JOINTS3 = ("head", "left", "right")

# head box (0, 0, 30, 40): diagonal 50, head size 30, PCKh limit 15 at alpha 0.5
HEAD_BOX = Box(0.0, 0.0, 30.0, 40.0)
PCKH_LIMIT = 15.0


def corners(box: Box | None) -> tuple[float, float, float, float]:
    """The corner row of a box; NaN for none."""
    return (math.nan,) * 4 if box is None else (box.x_min, box.y_min, box.x_max, box.y_max)


def detection(box: Box, score: float, keypoints, feature=None, track_id=None, head_box=None) -> Detections:
    """One checked detection row; keypoints are (x, y, score, present) rows,
    one per joint, as in a sequence file."""
    block = np.array(list(keypoints), dtype=float).reshape(-1, 4)
    return Detections.from_columns(
        [corners(box)], [score], [block[:, :2]], [block[:, 2]], [block[:, 3] == 1.0],
        features=None if feature is None else [feature], track_ids=[track_id],
        head_boxes=[corners(head_box)],
    )


def box_of(dets: Detections, i: int = 0) -> Box:
    return Box(*dets.boxes[i].tolist())


def head_box_of(dets: Detections, i: int = 0) -> Box:
    return Box(*dets.head_boxes[i].tolist())


def pose_of(dets: Detections, i: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The joint coordinates (J, 2) and presence flags (J,) of row i."""
    return dets.xy[i], dets.present[i]


def unmatched(pairs, n_gt: int, n_pred: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ground-truth and prediction indices that no (gt, pred) pair holds."""
    gt, pred = {g for g, _ in pairs}, {p for _, p in pairs}
    return tuple(i for i in range(n_gt) if i not in gt), tuple(k for k in range(n_pred) if k not in pred)


def person(coords, score=1.0, track_id=None, head_box=HEAD_BOX, feature=None, present=None) -> Detections:
    """One detection row: a pose at coords with joint score 2.5, its joint
    span grown by 5 as the box."""
    present = present or [True] * len(coords)
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    box = Box(min(xs) - 5.0, min(ys) - 5.0, max(xs) + 5.0, max(ys) + 5.0)
    keypoints = [(x, y, 2.5, flag) for (x, y), flag in zip(coords, present)]
    return detection(box, score, keypoints, feature=feature, track_id=track_id, head_box=head_box)


def sequence(frames, joint_names=JOINTS3, video_id="fixture", size=(640, 480)) -> VideoSequence:
    """frames: list of (frame_index, labeled, [detection rows, ...])."""
    return VideoSequence(
        video_id=video_id,
        image_width=size[0],
        image_height=size[1],
        joint_names=tuple(joint_names),
        frames=tuple(Frame(i, labeled, Detections.concat(dets)) for i, labeled, dets in frames),
    )


def three_frame_pair(pred_track_ids=(0, 0, 0), extra_fp_per_frame=0):
    """1 person, 3 labeled frames; predictions perfect except for the ids given."""
    base = [(10.0, 10.0), (20.0, 30.0), (30.0, 10.0)]
    gt_frames, pred_frames = [], []
    for t in range(3):
        coords = [(x + 2.0 * t, y) for x, y in base]
        gt_frames.append((t, True, [person(coords, track_id=0)]))
        preds = [person(coords, track_id=pred_track_ids[t], head_box=None)]
        for k in range(extra_fp_per_frame):
            off = 200.0 + 50.0 * k
            fp_coords = [(x + off, y + off) for x, y in base]
            preds.append(person(fp_coords, track_id=100 + k, head_box=None))
        pred_frames.append((t, True, preds))
    return sequence(gt_frames), sequence(pred_frames)


def clear_mot_counts(frames, j_count: int) -> dict[str, tuple[int, ...]]:
    """Per-joint CLEAR-MOT counts (Bernardin & Stiefelhagen 2008) with every
    joint of every ground-truth track its own target, as the PoseTrack
    protocol scores pose tracks (Andriluka et al. 2018).

    frames holds, in time order, one (labeled, predicted, matches) entry per
    labeled frame: labeled[j] and predicted[j] count the present joints j of
    each side, and matches lists the frame's TP correspondences as
    (ground-truth track, joint, predicted id). Every labeled joint without a
    correspondence is a miss (FN), every predicted one a false positive, and a
    TP whose predicted id differs from the id of the previous TP of the same
    target is a mismatch (IDSW).
    """
    tp, fp, fn, idsw = ([0] * j_count for _ in range(4))
    previous = {}  # (track, joint) -> predicted id of its last TP
    for labeled, predicted, matches in frames:
        matched = [0] * j_count
        for track, joint, pred_id in matches:
            matched[joint] += 1
            if previous.get((track, joint), pred_id) != pred_id:
                idsw[joint] += 1
            previous[(track, joint)] = pred_id
        for j in range(j_count):
            tp[j] += matched[j]
            fn[j] += labeled[j] - matched[j]
            fp[j] += predicted[j] - matched[j]
    return {"tp": tuple(tp), "fp": tuple(fp), "fn": tuple(fn), "idsw": tuple(idsw)}


def scale_sequence(seq: VideoSequence, s: float) -> VideoSequence:
    frames = []
    for frame in seq.frames:
        d = frame.detections
        dets = replace(d, boxes=d.boxes * s, head_boxes=d.head_boxes * s, xy=d.xy * s)
        frames.append(replace(frame, detections=dets))
    return seq.with_frames(frames)


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Exhaustive minimum assignment cost over min(rows, cols) pairs."""
    rows, cols = cost.shape
    if rows == 0 or cols == 0:
        return 0.0
    best = float("inf")
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            best = min(best, sum(cost[i, perm[i]] for i in range(rows)))
    else:
        for perm in itertools.permutations(range(rows), cols):
            best = min(best, sum(cost[perm[j], j] for j in range(cols)))
    return float(best)


def reference_greedy_assign(cost: CostMatrix) -> Assignment:
    """The argmin-loop greedy matching that the sort-once one replaced, kept
    as its oracle: take the first minimum in row-major order, retire its row
    and column, repeat min(rows, cols) times."""
    if cost.rows == 0 or cost.cols == 0:
        return Assignment((), 0.0)
    work = cost.cost  # a new array on every access; retired rows and columns turn inf
    pairs = []
    total = 0.0
    for _ in range(min(cost.rows, cost.cols)):
        i, j = divmod(int(np.argmin(work)), cost.cols)
        pairs.append((i, j))
        total += float(work[i, j])  # not retired yet, so still the cost
        work[i, :] = np.inf
        work[:, j] = np.inf
    return Assignment(tuple(pairs), total)


def roi_align_oracle(vol, tube, resolution, samples_per_bin):
    """Dense bilinear resampling via scipy, independent of the implementation."""
    from scipy.ndimage import map_coordinates

    t_len, channels = vol.data.shape[0], vol.data.shape[1]
    r, s = resolution, samples_per_bin
    out = np.empty((t_len, channels, r, r))
    for t, box in enumerate(tube.boxes):
        x1, y1 = box.x_min / vol.stride, box.y_min / vol.stride
        x2, y2 = box.x_max / vol.stride, box.y_max / vol.stride
        xs = x1 + (np.arange(r * s) + 0.5) * (x2 - x1) / (r * s)
        ys = y1 + (np.arange(r * s) + 0.5) * (y2 - y1) / (r * s)
        gx, gy = np.meshgrid(xs, ys)
        coords = np.stack([gy.ravel() - 0.5, gx.ravel() - 0.5])
        for c in range(channels):
            vals = map_coordinates(
                vol.data[t, c], coords, order=1, mode="grid-constant", cval=0.0
            )
            out[t, c] = vals.reshape(r * s, r * s).reshape(r, s, r, s).mean(axis=(1, 3))
    return out


def _bilinear_sample(plane: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Zero-padded bilinear lookup of a (C, H, W) plane at continuous points.

    xs/ys are broadcast grids in the half-pixel convention of poselink.tube;
    returns (C,) + xs.shape.
    """
    _, h, w = plane.shape
    u = xs - 0.5
    v = ys - 0.5
    u0 = np.floor(u).astype(int)
    v0 = np.floor(v).astype(int)
    du = u - u0
    dv = v - v0

    out = None
    for dy, dx, weight in (
        (0, 0, (1 - dv) * (1 - du)),
        (0, 1, (1 - dv) * du),
        (1, 0, dv * (1 - du)),
        (1, 1, dv * du),
    ):
        yy = v0 + dy
        xx = u0 + dx
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        yc = np.clip(yy, 0, h - 1)
        xc = np.clip(xx, 0, w - 1)
        vals = plane[:, yc, xc] * np.where(valid, weight, 0.0)
        out = vals if out is None else out + vals
    return out


def roi_align_per_frame(vol, tube, resolution, samples_per_bin):
    """2D RoIAlign of each frame alone with that frame's box, stacked in time:
    the per-frame loop that spatiotemporal_roi_align must equal bit for bit.

    Its sample points are floored to int, so boxes must lie within about 2**63
    cells of the grid.
    """
    t_len, channels = vol.data.shape[0], vol.data.shape[1]
    r, s = resolution, samples_per_bin
    out = np.empty((t_len, channels, r, r), dtype=float)
    for t, box in enumerate(tube.boxes):
        x1, y1 = box.x_min / vol.stride, box.y_min / vol.stride
        x2, y2 = box.x_max / vol.stride, box.y_max / vol.stride
        xs = x1 + (np.arange(r * s) + 0.5) * (x2 - x1) / (r * s)
        ys = y1 + (np.arange(r * s) + 0.5) * (y2 - y1) / (r * s)
        grid_x, grid_y = np.meshgrid(xs, ys)
        samples = _bilinear_sample(vol.data[t], grid_x, grid_y)  # (C, r*s, r*s)
        out[t] = samples.reshape(channels, r, s, r, s).mean(axis=(2, 4))
    return out


def correlate2d_multi(frame: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Direct 2D cross-correlation, (C_in, H, W) x (C_out, C_in, K, K) -> valid."""
    from scipy.signal import correlate

    c_out = weights.shape[0]
    h, w = frame.shape[1], frame.shape[2]
    k = weights.shape[-1]
    out = np.zeros((c_out, h - k + 1, w - k + 1))
    for o in range(c_out):
        for i in range(frame.shape[0]):
            out[o] += correlate(frame[i], weights[o, i], mode="valid")
    return out


def correlate3d_multi(clip: np.ndarray, weights: np.ndarray, t_pad: int) -> np.ndarray:
    """Direct 3D cross-correlation with temporal zero padding.

    clip (C_in, T, H, W) x weights (C_out, C_in, K_T, K, K) -> (C_out, T', H', W').
    """
    from scipy.signal import correlate

    padded = np.pad(clip, ((0, 0), (t_pad, t_pad), (0, 0), (0, 0)))
    c_out = weights.shape[0]
    t_out = padded.shape[1] - weights.shape[2] + 1
    h_out = clip.shape[2] - weights.shape[3] + 1
    w_out = clip.shape[3] - weights.shape[4] + 1
    out = np.zeros((c_out, t_out, h_out, w_out))
    for o in range(c_out):
        for i in range(clip.shape[0]):
            out[o] += correlate(padded[i], weights[o, i], mode="valid")
    return out


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
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def reference_load_sequence(path, role=ROLE_PREDICTION):
    """The per-detection loader that the columnar one replaced, kept as its
    oracle: every check, in the same order and with the same message, then one
    detection row per person and the sequence checks frame by frame."""
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
                if not all(isinstance(kp, list) and len(kp) == 4 for kp in kps):
                    raise ValueError(f"{where} keypoint must be [x, y, score, present]")
                if not {type(v) for kp in kps for v in kp[:3]} <= {int, float}:  # not bool
                    raise ValueError(f"{where} keypoint has a non-numeric entry")
                if not all(kp[3] in (0, 1) for kp in kps):
                    raise ValueError(f"{where} keypoint presence flag must be 0 or 1")
                block = np.array(kps, dtype=float).reshape(j, 4)
                if not np.isfinite(block).all():  # absent joints too
                    raise ValueError(f"{where} keypoint has a non-finite entry")
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
            if track_id is not None and track_id < 0:
                raise ValueError(f"{where}: track_id must be non-negative")
            detections.append(detection(box, score, block, feature, track_id, head_box))
        if f["frame_index"] < 0:
            raise ValueError(f"frame {fi}: frame_index must be non-negative")
        frames.append((f["frame_index"], f["labeled"], detections))

    last_index, feature_dim = -1, None
    for index, _, detections in frames:
        if index <= last_index:
            raise ValueError(f"non-monotone frames: index {index} after {last_index}")
        last_index = index
        for det in detections:
            if det.has_feature[0]:
                if feature_dim is None:
                    feature_dim = det.features.shape[1]
                elif det.features.shape[1] != feature_dim:
                    raise ValueError("feature vectors must share one dimensionality")
    return VideoSequence(
        video_id=raw["video_id"],
        image_width=int(size[0]),
        image_height=int(size[1]),
        joint_names=tuple(joint_names),
        frames=tuple(Frame(index, labeled, Detections.concat(dets)) for index, labeled, dets in frames),
    )
