"""Output checks, computed apart from poselink.

Nothing here imports poselink: sequence files, reports and CSVs are read as
plain JSON/CSV, IoU and assignments come from numpy and scipy, and tube
outputs arrive as corner arrays. Every check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every box in a (N, 4) against every box in b (M, 4).

    Written with the same float operations, in the same order, as the scalar
    IoU of the model, so the values agree bit for bit.
    """
    a = a[:, None, :]
    b = b[None, :, :]
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(0.0, iw) * np.maximum(0.0, ih)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def filter_frames(pred_doc: dict, det_thresh: float) -> list[dict]:
    """The prediction frames with detections scoring below det_thresh removed."""
    frames = []
    for f in pred_doc["frames"]:
        dets = [d for d in f["detections"] if _clamp(d["score"]) >= det_thresh]
        frames.append({"frame_index": f["frame_index"], "labeled": f["labeled"], "detections": dets})
    return frames


def _clamp(score) -> float:
    return min(1.0, max(0.0, float(score)))


def _boxes(frame: dict) -> np.ndarray:
    return np.array([d["bbox"] for d in frame["detections"]], dtype=float).reshape(-1, 4)


def iou_hungarian_cost(frames: list[dict]) -> float:
    """Summed cost (minus IoU) of the optimal per-frame assignment, previous to current frame."""
    total = 0.0
    for prev, curr in zip(frames, frames[1:]):
        sim = pairwise_iou(_boxes(prev), _boxes(curr))
        if sim.size:
            rows, cols = linear_sum_assignment(-sim)
            total += float((-sim)[rows, cols].sum())
    return total


def iou_track_ids(frames: list[dict]) -> list[list[int]]:
    """Track ids of IoU/Hungarian linking with lookback 1 and min similarity 0.

    Each detection inherits the id of its assigned previous-frame detection
    when their IoU is positive; every other detection takes the next fresh
    id, in detection order.
    """
    ids: list[list[int]] = []
    next_id = 0
    prev_boxes = np.zeros((0, 4))
    prev_ids: list[int] = []
    for frame in frames:
        boxes = _boxes(frame)
        sim = pairwise_iou(prev_boxes, boxes)
        inherited = {}
        if sim.size:
            rows, cols = linear_sum_assignment(-sim)
            inherited = {int(j): prev_ids[int(i)] for i, j in zip(rows, cols) if sim[i, j] > 0.0}
        current = []
        for j in range(len(boxes)):
            if j in inherited:
                current.append(inherited[j])
            else:
                current.append(next_id)
                next_id += 1
        ids.append(current)
        prev_boxes, prev_ids = boxes, current
    return ids


# ---------------------------------------------------------------- crowd ----

def check_sweep(rows: list[dict], configs: list[tuple[str, str, str]], iou_cost: float) -> list[str]:
    """Sweep CSV rows: one per configuration, optimal IoU cost, Hungarian <= greedy,
    one mAP per threshold, MOTA <= 100, precision and recall in [0, 100]."""
    fails = []
    got = [(r["det_thresh"], r["algo"], r["cost"]) for r in rows]
    if sorted(got) != sorted(configs) or len(got) != len(configs):
        return [f"sweep rows {got} != configurations {configs}"]
    by_config = dict(zip(got, rows))
    for thresh, algo, cost in configs:
        if algo == "hungarian" and cost == "iou":
            value = float(by_config[(thresh, algo, cost)]["total_assignment_cost"])
            if abs(value - iou_cost) > 5e-5 + 1e-9 * abs(iou_cost):
                fails.append(f"iou/hungarian total cost {value} != optimal {iou_cost:.6f}")
        if algo == "hungarian" and (thresh, "greedy", cost) in by_config:
            h = float(by_config[(thresh, algo, cost)]["total_assignment_cost"])
            g = float(by_config[(thresh, "greedy", cost)]["total_assignment_cost"])
            if h > g + 1e-4:
                fails.append(f"{cost}: hungarian cost {h} > greedy cost {g}")
    map_cols = [c for c in rows[0] if c.startswith("map_")]
    for thresh in {c[0] for c in configs}:
        maps = {tuple(r[c] for c in map_cols) for r in rows if r["det_thresh"] == thresh}
        if len(maps) != 1:
            fails.append(f"threshold {thresh}: mAP columns differ between rows")
    for r, config in zip(rows, got):
        mota = float(r["mota_total"])
        if mota > 100.0:
            fails.append(f"{config}: MOTA {mota} > 100")
        for col in ("precision_total", "recall_total"):
            if not 0.0 <= float(r[col]) <= 100.0:
                fails.append(f"{config}: {col} {r[col]} outside [0, 100]")
    return fails


# ------------------------------------------------------------ longvideo ----

def present_joint_counts(frames: list[dict], labeled: set[int], joints: int) -> list[int]:
    """Per joint, the present keypoints of detections on the given frame indices."""
    counts = [0] * joints
    for f in frames:
        if f["frame_index"] in labeled:
            for d in f["detections"]:
                for j, kp in enumerate(d["keypoints"]):
                    counts[j] += 1 if kp[3] else 0
    return counts


def longvideo_expect(gt_doc: dict, pred_doc: dict, det_thresh: float) -> dict:
    """What the long-video outputs must hold, derived from the input files alone."""
    frames = filter_frames(pred_doc, det_thresh)
    labeled = sorted(f["frame_index"] for f in gt_doc["frames"] if f["labeled"])
    joints = len(gt_doc["joint_names"])
    return {
        "frames": [
            [f["frame_index"], f["labeled"], [[d["bbox"], _clamp(d["score"])] for d in f["detections"]]]
            for f in frames
        ],
        "ids": iou_track_ids(frames),
        "joints": joints,
        "labeled": labeled,
        "gt_counts": present_joint_counts(gt_doc["frames"], set(labeled), joints),
    }


def check_tracked(doc: dict, expect: dict, check_ids: bool = True) -> list[str]:
    """Frames and boxes unchanged from the filtered input; integer ids, unique per
    frame and, for the tracker's own output, equal to the independent linking."""
    fails = []
    if len(doc["frames"]) != len(expect["frames"]):
        return [f"{len(doc['frames'])} frames, expected {len(expect['frames'])}"]
    for f, (index, labeled, dets), ids in zip(doc["frames"], expect["frames"], expect["ids"]):
        where = f"frame {index}"
        if f["frame_index"] != index or f["labeled"] != labeled:
            fails.append(f"{where}: index or labeled flag changed")
        if [[d["bbox"], _clamp(d["score"])] for d in f["detections"]] != dets:
            fails.append(f"{where}: detections differ from the filtered input")
            continue
        tids = [d.get("track_id") for d in f["detections"]]
        if not all(isinstance(t, int) and not isinstance(t, bool) for t in tids):
            fails.append(f"{where}: detection without an integer track id")
        elif len(set(tids)) != len(tids):
            fails.append(f"{where}: duplicate track ids {tids}")
        elif check_ids and tids != ids:
            fails.append(f"{where}: track ids {tids} != IoU/Hungarian linking {ids}")
    return fails


def _mota(fn: int, fp: int, idsw: int, gt: int):
    return 100.0 * (1.0 - (fn + fp + idsw) / gt) if gt > 0 else None


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


def check_report(report: dict, tracked_doc: dict, expect: dict) -> list[str]:
    """Per-joint counts against the files, and MOTA recomputed from the counts."""
    fails = []
    c = report["counts"]
    pred_present = present_joint_counts(tracked_doc["frames"], set(expect["labeled"]), expect["joints"])
    if c["gt"] != expect["gt_counts"]:
        fails.append(f"gt counts {c['gt']} != labeled joints {expect['gt_counts']}")
    for j in range(expect["joints"]):
        if c["tp"][j] + c["fn"][j] != c["gt"][j]:
            fails.append(f"joint {j}: tp + fn != gt")
        if c["tp"][j] + c["fp"][j] != pred_present[j]:
            fails.append(f"joint {j}: tp + fp {c['tp'][j] + c['fp'][j]} != present predictions {pred_present[j]}")
        if not _close(report["mota"]["per_joint"][j], _mota(c["fn"][j], c["fp"][j], c["idsw"][j], c["gt"][j])):
            fails.append(f"joint {j}: MOTA does not follow from the counts")
    total = _mota(sum(c["fn"]), sum(c["fp"]), sum(c["idsw"]), sum(c["gt"]))
    if not _close(report["mota"]["total"], total):
        fails.append(f"total MOTA {report['mota']['total']} != {total} from the counts")
    return fails


def check_oracle_report(oracle: dict, tracker: dict) -> list[str]:
    """Perfect association: no IDSW, the tracker's TP/FP/FN, MOTA at least the tracker's."""
    fails = []
    if any(oracle["counts"]["idsw"]):
        fails.append(f"oracle IDSW {oracle['counts']['idsw']} not all zero")
    for key in ("tp", "fp", "fn"):
        if oracle["counts"][key] != tracker["counts"][key]:
            fails.append(f"oracle {key} differs from the tracker's")
    if oracle["mota"]["total"] < tracker["mota"]["total"]:
        fails.append(f"oracle MOTA {oracle['mota']['total']} < tracker MOTA {tracker['mota']['total']}")
    return fails


# ----------------------------------------------------------------- tube ----

def anchor_corners(image_w: int, image_h: int, stride: int, scales, aspects) -> np.ndarray:
    """(N, 4) anchor corners: row-major cells, then scales, then aspects."""
    nx, ny = math.ceil(image_w / stride), math.ceil(image_h / stride)
    cx = np.tile((np.arange(nx) + 0.5) * stride, ny)
    cy = np.repeat((np.arange(ny) + 0.5) * stride, nx)
    sqrt = np.sqrt(np.asarray(aspects, dtype=float))
    w = (np.asarray(scales, dtype=float)[:, None] * sqrt[None, :]).ravel()
    h = (np.asarray(scales, dtype=float)[:, None] / sqrt[None, :]).ravel()
    cx, cy = cx[:, None], cy[:, None]
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1).reshape(-1, 4)


def check_anchors(corners: np.ndarray, expected: np.ndarray) -> list[str]:
    if corners.shape != expected.shape:
        return [f"{len(corners)} anchors, expected {len(expected)}"]
    if not np.allclose(corners, expected, rtol=1e-12, atol=1e-9):
        return ["anchor corners differ from the grid"]
    return []


def anchor_labels(anchors: np.ndarray, tubes: np.ndarray, fg: float, bg: float,
                  label_bg: int, label_ignore: int) -> np.ndarray:
    """Labels for static anchors (N, 4) against tubes (G, T, 4) by mean per-frame IoU."""
    overlaps = sum(pairwise_iou(anchors, tubes[:, t]) for t in range(tubes.shape[1])) / tubes.shape[1]
    labels = np.full(len(anchors), label_bg, dtype=int)
    best = overlaps.max(axis=1)
    best_gt = overlaps.argmax(axis=1)
    labels[(best > bg) & (best < fg)] = label_ignore
    labels[best >= fg] = best_gt[best >= fg]
    for k in range(tubes.shape[0]):
        i = int(overlaps[:, k].argmax())
        if overlaps[i, k] > 0:
            labels[i] = k
    return labels


def check_labels(labels: np.ndarray, expected: np.ndarray) -> list[str]:
    labels = np.asarray(labels)
    if labels.shape != expected.shape:
        return [f"label shape {labels.shape} != {expected.shape}"]
    wrong = np.flatnonzero(labels != expected)
    if wrong.size:
        return [f"{wrong.size} anchor labels differ, first at anchor {int(wrong[0])}"]
    return []


def check_round_trip(decoded: np.ndarray, target: np.ndarray) -> list[str]:
    """decode(encode(t)) equals t to 1e-9 relative, per coordinate."""
    if decoded.shape != target.shape:
        return [f"decoded tube shape {decoded.shape} != {target.shape}"]
    if not np.all(np.abs(decoded - target) <= 1e-9 * np.maximum(1.0, np.abs(target))):
        return ["decode(encode(t)) does not reproduce t"]
    return []


def linear_volume(coef: np.ndarray, height: int, width: int) -> np.ndarray:
    """(T, C, H, W) volume whose cell (r, c) holds a + b * (c + 0.5) + d * (r + 0.5).

    coef has shape (T, C, 3) holding (a, b, d).
    """
    xs = np.arange(width) + 0.5
    ys = np.arange(height) + 0.5
    a, b, d = coef[..., 0], coef[..., 1], coef[..., 2]
    return a[..., None, None] + b[..., None, None] * xs + d[..., None, None] * ys[:, None]


def check_roi(out: np.ndarray, tube: np.ndarray, coef: np.ndarray, stride: int,
              height: int, width: int, resolution: int) -> tuple[list[str], int]:
    """RoIAlign of a linear volume equals the function at each bin centre, on
    frames whose box lies between the outermost cell centres. Returns
    (failures, frames checked)."""
    t_len, channels = coef.shape[:2]
    if out.shape != (t_len, channels, resolution, resolution):
        return [f"RoIAlign output shape {out.shape}"], 0
    checked = 0
    for t in range(t_len):
        x1, y1, x2, y2 = tube[t] / stride
        if not (x1 >= 0.5 and y1 >= 0.5 and x2 <= width - 0.5 and y2 <= height - 0.5):
            continue
        checked += 1
        xc = x1 + (np.arange(resolution) + 0.5) * (x2 - x1) / resolution
        yc = y1 + (np.arange(resolution) + 0.5) * (y2 - y1) / resolution
        a, b, d = coef[t, :, 0], coef[t, :, 1], coef[t, :, 2]
        expected = a[:, None, None] + b[:, None, None] * xc + d[:, None, None] * yc[:, None]
        if not np.allclose(out[t], expected, rtol=1e-9, atol=1e-9):
            return [f"RoIAlign frame {t} differs from the linear function at the bin centres"], checked
    return [], checked


def check_loss(cls_loss: float, reg_loss: float, logits: np.ndarray, labels: np.ndarray,
               label_ignore: int) -> list[str]:
    """Regression loss 0 for predictions equal to targets; classification loss
    non-negative and equal to the mean cross-entropy over non-ignored anchors."""
    fails = []
    if reg_loss != 0.0:
        fails.append(f"regression loss {reg_loss} != 0 for exact predictions")
    keep = labels != label_ignore
    kept = logits[keep]
    classes = (labels[keep] >= 0).astype(int)
    lse = np.logaddexp(kept[:, 0], kept[:, 1])
    expected = float(np.mean(lse - kept[np.arange(len(classes)), classes])) if len(classes) else 0.0
    if not (cls_loss >= 0.0 and math.isclose(cls_loss, expected, rel_tol=1e-9, abs_tol=1e-12)):
        fails.append(f"classification loss {cls_loss} != cross-entropy {expected}")
    return fails
