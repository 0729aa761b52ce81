"""Shared fixture builders and independent oracles used across the test suite.

The oracles include the scalar references of the package's array kernels:
iou, pose_pckh_similarity, feature_cosine, head_size, pckh_correct,
_correct_joint_count and tube_overlap, each deciding one pair at a time;
reference_evaluate, the per-frame evaluator that block matching replaced;
reference_filter_detections, the per-frame filter that the column one
replaced; and reference_average_precision, AP from its definition.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import replace
from typing import Sequence

import numpy as np

from poselink.linking import (
    Assignment,
    LinkerConfig,
    TrackStats,
    link_frame_pair,
    linear_sum_assignment,
    track_video_with_stats,
)
from poselink.metrics import (
    HEAD_SIZE_BIAS,
    EvalReport,
    _average_precision,
    _check_alpha,
    _check_pair,
    _id_codes,
    evaluate,
)
from poselink.model import (
    NO_DETECTIONS,
    ROLE_GROUNDTRUTH,
    ROLE_PREDICTION,
    Box,
    Detections,
    Frame,
    VideoSequence,
    _check_int,
    box_diagonals,
    filter_detections,
)
from poselink.oracles import apply_oracle
from poselink.similarity import CostMatrix, joints_within, keypoint_array
from poselink.synth import ScenarioConfig, generate_scenario
from poselink.tube import LABEL_IGNORE, Tube, TubeAnchor, smooth_l1

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
    return VideoSequence.from_frames(
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


def reference_track(seq: VideoSequence, cfg: LinkerConfig) -> tuple[VideoSequence, TrackStats]:
    """Hungarian or greedy tracking written from the documented pool rule,
    kept as the oracle of `track_video_with_stats`.

    Every track's latest detection, as (frame position, detection index), is
    a candidate at frame position pos while pos minus its frame position is at
    most cfg.lookback. Each frame rebuilds the pool from these candidates,
    oldest frame first and then by detection index, and links the frame to
    it: a linked detection takes its row's track id and the others new ids,
    counted up from 0 in detection order.
    """
    latest: dict[int, tuple[int, int]] = {}
    next_id, links, total_cost = 0, 0, 0.0
    out_frames = []
    for pos, frame in enumerate(seq.frames):
        live = sorted((where, tid) for tid, where in latest.items() if pos - where[0] <= cfg.lookback)
        pool = Detections.concat([seq.frames[p].detections.take([d]) for (p, d), _ in live])
        parent, cost = link_frame_pair(pool, frame.detections, cfg, frame_index=frame.frame_index)
        total_cost += cost
        ids = []
        for j, row in enumerate(parent.tolist()):
            if row >= 0:
                tid = live[row][1]
                links += 1
            else:
                tid, next_id = next_id, next_id + 1
            latest[tid] = (pos, j)
            ids.append(tid)
        out_frames.append(replace(frame, detections=replace(frame.detections, track_ids=tuple(ids))))
    return seq.with_frames(out_frames), TrackStats(len(seq.frames), total_cost, links, next_id)


def translate(box: Box, dx: float, dy: float) -> Box:
    return Box(box.x_min + dx, box.y_min + dy, box.x_max + dx, box.y_max + dy)


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 when the union has zero area."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(0.0, iw) * max(0.0, ih)
    # continuous-coordinate areas, no +1
    union = (a.x_max - a.x_min) * (a.y_max - a.y_min) + (b.x_max - b.x_min) * (b.y_max - b.y_min) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def pose_pckh_similarity(
    a_xy: np.ndarray, a_present: np.ndarray, b_xy: np.ndarray, b_present: np.ndarray,
    a_box: Box, alpha: float = 0.5, norm_scale: float = 0.1,
) -> float:
    """Fraction of jointly present joints within alpha * (norm_scale * diag of a_box),
    where a_box is the box of the detection that pose a belongs to.

    Each pose is one `Detections` row: joint coordinates xy (J, 2) and
    presence flags (J,). Returns 0 when the poses share no present joints.
    """
    threshold = alpha * norm_scale * math.hypot(a_box.width, a_box.height)
    shared = 0
    correct = 0
    for (xa, ya), (xb, yb), present_a, present_b in zip(
        a_xy.tolist(), b_xy.tolist(), a_present.tolist(), b_present.tolist()
    ):
        if not (present_a and present_b):
            continue
        shared += 1
        if math.hypot(xa - xb, ya - yb) <= threshold:
            correct += 1
    if shared == 0:
        return 0.0
    return correct / shared


def feature_cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity in [-1, 1]; a zero vector yields 0 with a warning."""
    va = np.asarray(a, dtype=float)
    vb = np.asarray(b, dtype=float)
    if va.shape != vb.shape:
        raise ValueError(f"feature dimension mismatch: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        warnings.warn("zero-norm feature vector; cosine similarity set to 0")
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


def head_size(gt_head_box: Box) -> float:
    """PCKh normalizer: 0.6 times the head-box diagonal, in pixels."""
    diag = math.hypot(gt_head_box.width, gt_head_box.height)
    if diag <= 0.0:
        raise ValueError("degenerate head box")
    return HEAD_SIZE_BIAS * diag


def pckh_correct(gt_xy, pred_xy, head: float, alpha: float = 0.5) -> bool:
    """True when the predicted (x, y) is within alpha * head of the label (closed)."""
    return math.hypot(gt_xy[0] - pred_xy[0], gt_xy[1] - pred_xy[1]) <= alpha * head


def _correct_joint_count(
    g_xy: np.ndarray, g_present: np.ndarray, p_xy: np.ndarray, p_present: np.ndarray,
    gt_head_box: Box, alpha: float,
) -> int:
    """Number of joints present in both poses, each one `Detections` row, that
    are PCKh-correct for the labeled pose g."""
    head = head_size(gt_head_box)
    count = 0
    for j in range(len(g_present)):
        if g_present[j] and p_present[j] and pckh_correct(g_xy[j], p_xy[j], head, alpha):
            count += 1
    return count


def as_tube(anchor: TubeAnchor) -> Tube:
    """The anchor's box replicated over its clip length."""
    return Tube((anchor.base,) * anchor.length)


def tube_overlap(a: Tube, b: Tube) -> float:
    """Mean per-frame IoU; equals plain IoU for single-frame tubes."""
    if a.length != b.length:
        raise ValueError(f"tube lengths differ: {a.length} vs {b.length}")
    return sum(iou(x, y) for x, y in zip(a.boxes, b.boxes)) / a.length


def reference_tracking_loss(pred_deltas, target_deltas, cls_logits, cls_labels, length) -> tuple[float, float]:
    """tracking_loss as a row-wise log-softmax over the kept anchors' (K, 2)
    logits, with max and sum over their axis of length 2: the loss that
    poselink.tube.tracking_loss must equal bit for bit, checks and messages
    included."""
    pred = np.asarray(pred_deltas, dtype=float)
    target = np.asarray(target_deltas, dtype=float)
    logits = np.asarray(cls_logits, dtype=float)
    labels = np.asarray(cls_labels)
    _check_int("length", length, below=f"length must be >= 1, got {length!r}")
    if labels.ndim != 1 or not (labels.dtype.kind in "iu" or labels.size == 0):  # [] reads as floats
        raise ValueError("cls_labels must be a 1-D integer array")
    if labels.size and labels.min() < LABEL_IGNORE:
        raise ValueError(f"cls_labels must be LABEL_IGNORE (-2), LABEL_BG (-1) or a tube index >= 0, "
                         f"got {labels.min()}")
    if pred.ndim != 2 or pred.shape != target.shape or pred.shape[1] != 4 * length:
        raise ValueError("delta arrays must both have shape (N, 4T)")
    if logits.shape != (labels.shape[0], 2) or pred.shape[0] != labels.shape[0]:
        raise ValueError("logit/label shapes inconsistent with anchor count")
    for name, arr in (("pred_deltas", pred), ("target_deltas", target), ("cls_logits", logits)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has a non-finite entry")

    keep = labels != LABEL_IGNORE
    if np.any(keep):
        kept = logits[keep]
        classes = (labels[keep] >= 0).astype(int)
        shifted = kept - kept.max(axis=1, keepdims=True)
        logprob = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        cls_loss = float(-logprob[np.arange(len(classes)), classes].mean())
    else:
        cls_loss = 0.0

    fg = labels >= 0
    n_fg = int(fg.sum())
    if n_fg > 0:
        reg_loss = float(smooth_l1(pred[fg] - target[fg]).sum() / n_fg / length)
    else:
        reg_loss = 0.0
    return cls_loss, reg_loss


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

    Each bin adds its s*s samples in row-major order from 0.0 and divides
    once, so the float order does not depend on the channel count. Its sample
    points are floored to int, so boxes must lie within about 2**63 cells of
    the grid.
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
        samples = _bilinear_sample(vol.data[t], grid_x, grid_y).reshape(channels, r, s, r, s)
        total = np.zeros((channels, r, r))
        for i in range(s):
            for j in range(s):
                total += samples[:, :, i, :, j]
        out[t] = total / (s * s)
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
                if not all(type(kp[3]) in (int, float) and kp[3] in (0, 1) for kp in kps):  # not bool
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
                if math.hypot(head_box.width, head_box.height) <= 0.0:  # it normalizes every PCKh distance
                    raise ValueError(f"{where}: ground truth head_box has zero size")
                if not math.isfinite(math.hypot(head_box.width, head_box.height)):
                    raise ValueError(f"{where}: ground truth head_box diagonal is beyond the float range")
            if track_id is not None and track_id < 0:
                raise ValueError(f"{where}: track_id must be non-negative")
            detections.append(detection(box, score, block, feature, track_id, head_box))
        if f["frame_index"] < 0:
            raise ValueError(f"frame {fi}: frame_index must be non-negative")
        ids = [det.track_ids[0] for det in detections] if role == ROLE_GROUNDTRUTH else []
        repeated = [t for k, t in enumerate(ids) if t in ids[:k]]
        if repeated:
            raise ValueError(f"frame {fi}: ground truth repeats track_id {repeated[0]}")
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
    return VideoSequence.from_frames(
        video_id=raw["video_id"],
        image_width=int(size[0]),
        image_height=int(size[1]),
        joint_names=tuple(joint_names),
        frames=tuple(Frame(index, labeled, Detections.concat(dets)) for index, labeled, dets in frames),
    )


def reference_filter_detections(seq: VideoSequence, det_threshold: float, kp_threshold: float) -> VideoSequence:
    """The per-frame filter that the column one replaced, kept as its oracle:
    per frame, a presence mask of the joints scoring below kp_threshold, then
    a row mask of the detections scoring below det_threshold."""
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


def table_means_row_by_row(table, seeds, frames: int, actors: int, columns) -> list[np.ndarray]:
    """The means of scripts/ablations.py's table_means, with every row run on
    its own: filter, track, apply the row's oracle, then evaluate. columns
    maps each column name to (value from the report and stats, ...), as the
    script's COLUMNS does."""
    values = [[] for _ in table.rows]
    for seed in seeds:
        gt, pred = generate_scenario(ScenarioConfig(seed=seed, frames=frames, actors=actors, noise=table.noise))
        for row, row_values in zip(table.rows, values):
            cfg = LinkerConfig(algorithm=row.algorithm, criterion=row.criterion, rng_seed=seed)
            tracked, stats = track_video_with_stats(filter_detections(pred, row.det_thresh, 1.95), cfg)
            if row.oracle is not None:
                tracked = apply_oracle(gt, tracked, row.oracle)
            report = evaluate(gt, tracked)
            row_values.append([columns[c][0](report, stats) for c in table.columns])
    return [np.mean(v, axis=0) for v in values]


_hypot = np.frompyfunc(math.hypot, 2, 1)  # math.hypot over arrays


def _reference_head_sizes(dets: Detections) -> list[float]:
    """0.6 times the head-box diagonal of each detection; every detection needs one."""
    if np.isnan(dets.head_boxes).any():
        raise ValueError("a ground-truth detection has no head box")
    diagonals = box_diagonals(dets.head_boxes)
    if min(diagonals, default=1.0) <= 0.0:
        raise ValueError("degenerate head box")
    return [HEAD_SIZE_BIAS * diag for diag in diagonals]


def _reference_present_counts(frames: Sequence[Detections], j_count: int) -> np.ndarray:
    """(J,) number of detections, over all frames, in which each joint is present."""
    counts = np.zeros(j_count, dtype=int)
    for dets in frames:
        if len(dets):
            counts += dets.present.sum(axis=0)
    return counts


def _reference_match_frame(gt, pred, alpha):
    """(pairs, correct) of one frame: its own PCKh mask, from one unbatched
    joints_within call, and one assignment."""
    n_gt, n_pred = len(gt), len(pred)
    if n_gt == 0 or n_pred == 0:
        empty = np.zeros((n_gt, n_pred, (gt if n_gt else pred).xy.shape[1]), dtype=bool)
        return (), empty
    limits = [alpha * size for size in _reference_head_sizes(gt)]
    correct = joints_within(keypoint_array(gt), keypoint_array(pred), limits)
    counts = correct.sum(axis=2)
    rows, cols = linear_sum_assignment(-counts)
    pairs = tuple((int(i), int(j)) for i, j in zip(rows, cols) if counts[i, j] > 0)
    return pairs, correct


def _reference_match(gt: VideoSequence, pred: VideoSequence, alpha: float) -> list:
    """(frame_index, gt, pred, pairs, correct) of every labeled frame, matched frame by frame."""
    _check_alpha(alpha)
    _check_pair(gt, pred, require_track_ids=False)
    pred_by_index = {f.frame_index: f.detections for f in pred.frames}
    frames = []
    for frame in gt.frames:
        if frame.labeled:
            dets = pred_by_index.get(frame.frame_index, NO_DETECTIONS)
            pairs, correct = _reference_match_frame(frame.detections, dets, alpha)
            frames.append((frame.frame_index, frame.detections, dets, pairs, correct))
    return frames


def _reference_mot_terms(frames, j_count: int, alpha: float) -> tuple:
    """(tp, pred_count, motp_sum, entry_pair, follows, next_joint) of the
    per-frame evaluator: the MOT terms that ignore predicted ids."""
    no_entries = np.zeros(0, dtype=np.intp)
    tracks, entry_pair, entry_joint = [], [no_entries], [no_entries]
    deltas, limits = [np.zeros((0, 2))], [np.zeros(0)]
    for _, gt, pred, pairs, correct in frames:
        if not pairs:
            continue
        gi, pi = (np.array(side) for side in zip(*pairs))
        pair, joint = np.nonzero(correct[gi, pi])  # the TP joints
        entry_pair.append(len(tracks) + pair)
        entry_joint.append(joint)
        tracks += [gt.track_ids[g] for g in gi.tolist()]
        deltas.append(gt.xy[gi[pair], joint] - pred.xy[pi[pair], joint])
        limits.append(alpha * np.array(_reference_head_sizes(gt))[gi[pair]])
    deltas, limits = np.concatenate(deltas), np.concatenate(limits)
    distance = _hypot(deltas[:, 0], deltas[:, 1]).astype(float)
    scaled = np.divide(distance, limits, out=np.zeros_like(distance), where=limits > 0)
    motp_sum = float(np.add.accumulate(1.0 - scaled)[-1]) if len(scaled) else 0.0
    pred_count = _reference_present_counts([f[2] for f in frames], j_count)
    pair, joint = np.concatenate(entry_pair), np.concatenate(entry_joint)
    tp = np.bincount(joint, minlength=j_count)
    key = _id_codes(tracks)[pair] * j_count + joint
    order = np.argsort(key, kind="stable")
    key = key[order]
    return tp, pred_count, motp_sum, pair[order], key[1:] == key[:-1], joint[order][1:]


def _reference_map(frames, j_count: int, n_gt: np.ndarray) -> tuple:
    """(per-joint AP, mAP) of the per-frame evaluator, with its score-order claims per frame."""
    no_rows = np.zeros((0, j_count), dtype=bool)
    scores, hits, present = [np.zeros(0)], [no_rows], [no_rows]
    for _, gt, pred, _, correct in frames:
        if not len(pred):
            continue
        frame_hits = np.zeros((len(pred), j_count), dtype=bool)
        if len(gt):
            overlap = correct.sum(axis=2)  # zeroed row by row as gt poses are claimed
            for pi in np.argsort(-pred.scores, kind="stable").tolist():
                gi = int(overlap[:, pi].argmax())  # the first largest overlap
                if overlap[gi, pi] > 0:
                    frame_hits[pi] = correct[gi, pi]
                    overlap[gi] = 0
        scores.append(pred.scores)
        hits.append(frame_hits)
        present.append(pred.present)
    scores, hits, present = np.concatenate(scores), np.concatenate(hits), np.concatenate(present)
    ap = tuple(
        100.0 * _average_precision(scores[present[:, j]], hits[present[:, j], j], int(n_gt[j]))
        if n_gt[j] > 0 else None
        for j in range(j_count)
    )
    defined = [v for v in ap if v is not None]
    return ap, float(np.mean(defined)) if defined else 0.0


def reference_evaluate(gt: VideoSequence, pred: VideoSequence, alpha: float = 0.5) -> EvalReport:
    """The per-frame evaluator that block matching replaced, kept as the
    oracle of `evaluate`: one PCKh mask, one assignment and one claim pass per
    labeled frame, then the MOT terms, the id pass and AP from per-frame
    lists."""
    frames = _reference_match(gt, pred, alpha)
    _check_pair(gt, pred, require_track_ids=True)
    j_count = gt.joint_count
    gt_count = _reference_present_counts([f[1] for f in frames], j_count)
    ap = _reference_map(frames, j_count, gt_count)
    ids_by_index = {f.frame_index: f.detections.track_ids for f in pred.frames}
    ids = []
    for frame_index, _, dets, pairs, _ in frames:
        frame_ids = ids_by_index.get(frame_index, ())
        ids += [frame_ids[pi] for _, pi in pairs]
    tp, pred_count, motp_sum, entry_pair, follows, next_joint = _reference_mot_terms(frames, j_count, alpha)
    entry_ids = _id_codes(ids)[entry_pair]
    idsw = np.bincount(next_joint[follows & (entry_ids[1:] != entry_ids[:-1])], minlength=j_count)
    fn = gt_count - tp
    fp = pred_count - tp
    total_tp = int(tp.sum())
    return EvalReport(
        joint_names=gt.joint_names,
        tp=tuple(int(v) for v in tp),
        fp=tuple(int(v) for v in fp),
        fn=tuple(int(v) for v in fn),
        idsw=tuple(int(v) for v in idsw),
        gt=tuple(int(v) for v in gt_count),
        motp_total=100.0 * motp_sum / total_tp if total_tp > 0 else 0.0,
        map_per_joint=ap[0],
        map_total=ap[1],
    )


def reference_average_precision(scores: Sequence[float], hits: Sequence[bool], n_gt: int) -> float:
    """Average precision from its definition, one point per distinct score:
    the predictions scored at or above it give TP and FP counts, hence a
    recall TP / n_gt and a precision TP / (TP + FP). Precision at recall r is
    interpolated as the most precision at any recall of at least r, and AP
    sums it over the recall steps. Tied scores enter together, as one point."""
    points = []
    for threshold in sorted(set(scores), reverse=True):
        kept = [hit for score, hit in zip(scores, hits) if score >= threshold]
        points.append((sum(kept) / n_gt, sum(kept) / len(kept)))
    total, reached = 0.0, 0.0
    for recall, _ in points:
        if recall > reached:
            total += (recall - reached) * max(p for r, p in points if r >= recall)
            reached = recall
    return total
