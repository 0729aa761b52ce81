"""PCKh correctness, keypoint mAP, and per-joint CLEAR-MOT scoring.

A predicted joint is correct when it lies within alpha * head_size of the
labeled joint, where head_size is 0.6 times the annotated head-box diagonal
(the MPII convention) and the threshold comparison is closed (<=).

Tracking metrics follow CLEAR-MOT with every joint treated as its own target:

    MOTA_j = 100 * (1 - (FN_j + FP_j + IDSW_j) / GT_j)

Per labeled frame, ground-truth and predicted poses are matched one-to-one by
maximizing the total number of PCKh-correct joints (pairs with zero correct
joints are discarded). Joint pairs of matched poses count TP when correct;
a present predicted joint that is incorrect or has no labeled counterpart
counts FP, a present labeled joint without a correct prediction counts FN,
and unmatched persons contribute FP or FN for each present joint. Identity
switches are bookkept per ground-truth track and joint: whenever the track is
matched and the joint is labeled, a predicted track id that differs from the
most recent previously recorded id counts one IDSW_j. MOTP is the mean
localization quality 100 * mean(1 - d / (alpha * head)) over TP joints.

Average precision ranks predicted joints by detection score over the whole
sequence; per frame, predictions claim ground-truth poses greedily in score
order (highest PCKh overlap first, one claim per labeled pose). AP integrates
the precision-recall curve with the standard max-to-the-right precision
envelope, and mAP averages AP over joints that have at least one labeled
instance. Unlabeled frames contribute nothing to any metric.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import Box, Detection, VideoSequence, write_text_atomic
from .similarity import joints_within, keypoint_array

HEAD_SIZE_BIAS = 0.6  # fraction of the head-box diagonal used as head size


def head_size(gt_head_box: Box) -> float:
    """PCKh normalizer: 0.6 times the head-box diagonal, in pixels."""
    diag = gt_head_box.diagonal
    if diag <= 0.0:
        raise ValueError("degenerate head box")
    return HEAD_SIZE_BIAS * diag


def pckh_correct(gt_xy, pred_xy, head: float, alpha: float = 0.5) -> bool:
    """True when the predicted (x, y) is within alpha * head of the label (closed)."""
    return math.hypot(gt_xy[0] - pred_xy[0], gt_xy[1] - pred_xy[1]) <= alpha * head


def _correct_joint_count(gt: Detection, pred: Detection, alpha: float) -> int:
    head = head_size(gt.head_box)
    g, p = gt.pose, pred.pose
    count = 0
    for j in range(len(g)):
        if g.present[j] and p.present[j] and pckh_correct(g.xy[j], p.xy[j], head, alpha):
            count += 1
    return count


def _present_counts(dets: Sequence[Detection], j_count: int) -> np.ndarray:
    """(J,) number of dets in which each joint is present."""
    present = np.array([d.pose.present for d in dets], dtype=bool)
    return present.reshape(len(dets), j_count).sum(axis=0)


def correct_joint_mask(
    gt_persons: Sequence[Detection], pred_persons: Sequence[Detection], alpha: float = 0.5
) -> np.ndarray:
    """(n_gt, n_pred, J) mask of PCKh-correct joints for every gt x pred pair.

    Entry [i, k, j] is pckh_correct on joint j when it is present in both
    poses; summed over the last axis it is the matrix of correct joint
    counts. Both sides must be non-empty.
    """
    limits = [alpha * head_size(g.head_box) for g in gt_persons]
    return joints_within(keypoint_array(gt_persons), keypoint_array(pred_persons), limits)


@dataclass(frozen=True)
class PoseMatchResult:
    """One-to-one pose matching for a single labeled frame."""

    pairs: tuple[tuple[int, int], ...]  # (gt index, pred index)
    unmatched_gt: tuple[int, ...]
    unmatched_pred: tuple[int, ...]
    # (n_gt, n_pred, J) PCKh-correct joints of every pair, from correct_joint_mask
    correct: np.ndarray = field(compare=False, repr=False)


def match_poses_frame(
    gt_persons: Sequence[Detection],
    pred_persons: Sequence[Detection],
    alpha: float = 0.5,
) -> PoseMatchResult:
    """Match poses by maximizing the total count of PCKh-correct joints.

    Pairs that share no correct joint are discarded rather than matched.
    """
    n_gt, n_pred = len(gt_persons), len(pred_persons)
    if n_gt == 0 or n_pred == 0:
        persons = [*gt_persons, *pred_persons]
        empty = np.zeros((n_gt, n_pred, len(persons[0].pose) if persons else 0), dtype=bool)
        return PoseMatchResult((), tuple(range(n_gt)), tuple(range(n_pred)), empty)
    correct = correct_joint_mask(gt_persons, pred_persons, alpha)
    counts = correct.sum(axis=2)
    rows, cols = linear_sum_assignment(-counts)
    pairs = tuple((int(i), int(j)) for i, j in zip(rows, cols) if counts[i, j] > 0)
    matched_gt = {i for i, _ in pairs}
    matched_pred = {j for _, j in pairs}
    return PoseMatchResult(
        pairs,
        tuple(i for i in range(n_gt) if i not in matched_gt),
        tuple(j for j in range(n_pred) if j not in matched_pred),
        correct,
    )


@dataclass(frozen=True)
class EvalReport:
    """Per-joint and total scores, in percent, plus the raw MOT counts."""

    joint_names: tuple[str, ...]
    map_per_joint: Optional[tuple[Optional[float], ...]] = None
    map_total: Optional[float] = None
    mota_per_joint: Optional[tuple[Optional[float], ...]] = None
    mota_total: Optional[float] = None
    motp_total: Optional[float] = None
    precision_total: Optional[float] = None
    recall_total: Optional[float] = None
    tp: Optional[tuple[int, ...]] = None
    fp: Optional[tuple[int, ...]] = None
    fn: Optional[tuple[int, ...]] = None
    idsw: Optional[tuple[int, ...]] = None
    gt: Optional[tuple[int, ...]] = None

    def merged_with(self, other: "EvalReport") -> "EvalReport":
        """Fill any unset field from `other`; joint names must agree."""
        if other.joint_names != self.joint_names:
            raise ValueError("cannot merge reports over different joint sets")
        updates = {
            name: getattr(other, name)
            for name in (
                "map_per_joint", "map_total", "mota_per_joint", "mota_total",
                "motp_total", "precision_total", "recall_total",
                "tp", "fp", "fn", "idsw", "gt",
            )
            if getattr(self, name) is None and getattr(other, name) is not None
        }
        return replace(self, **updates)

    def to_dict(self) -> dict:
        def listify(v):
            return None if v is None else list(v)

        return {
            "joint_names": list(self.joint_names),
            "map": {"per_joint": listify(self.map_per_joint), "total": self.map_total},
            "mota": {"per_joint": listify(self.mota_per_joint), "total": self.mota_total},
            "motp_total": self.motp_total,
            "precision_total": self.precision_total,
            "recall_total": self.recall_total,
            "counts": {
                "tp": listify(self.tp),
                "fp": listify(self.fp),
                "fn": listify(self.fn),
                "idsw": listify(self.idsw),
                "gt": listify(self.gt),
            },
        }

    def save_json(self, path: str, extra: Optional[dict] = None) -> None:
        doc = self.to_dict()
        if extra:
            doc.update(extra)
        write_text_atomic(path, json.dumps(doc, indent=2) + "\n")

    def summary_line(self) -> str:
        def fmt(v):
            return "n/a" if v is None else f"{v:.1f}"

        return (
            f"mAP {fmt(self.map_total)}  MOTA {fmt(self.mota_total)}  "
            f"MOTP {fmt(self.motp_total)}  Prec {fmt(self.precision_total)}  "
            f"Rec {fmt(self.recall_total)}"
        )


def csv_header(joint_names: Sequence[str], config_fields: Sequence[str] = ()) -> list[str]:
    """Column names for sweep tables: config, per-joint mAP/MOTA, then totals."""
    cols = list(config_fields)
    cols += [f"map_{n}" for n in joint_names] + ["map_total"]
    cols += [f"mota_{n}" for n in joint_names] + ["mota_total"]
    cols += ["motp_total", "precision_total", "recall_total", "total_assignment_cost"]
    return cols


def csv_row(
    report: EvalReport,
    config_values: Sequence = (),
    total_assignment_cost: Optional[float] = None,
) -> list:
    def cell(v):
        return "" if v is None else f"{v:.4f}"

    row = list(config_values)
    per_map = report.map_per_joint or (None,) * len(report.joint_names)
    per_mota = report.mota_per_joint or (None,) * len(report.joint_names)
    row += [cell(v) for v in per_map] + [cell(report.map_total)]
    row += [cell(v) for v in per_mota] + [cell(report.mota_total)]
    row += [cell(report.motp_total), cell(report.precision_total), cell(report.recall_total)]
    row += [cell(total_assignment_cost)]
    return row


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(list(row))
    write_text_atomic(path, buffer.getvalue())


def _check_pair(gt: VideoSequence, pred: VideoSequence, require_track_ids: bool) -> None:
    if gt.video_id != pred.video_id:
        raise ValueError(f"video id mismatch: {gt.video_id!r} vs {pred.video_id!r}")
    if gt.joint_names != pred.joint_names:
        raise ValueError("joint names differ between ground truth and predictions")
    if require_track_ids:
        for frame in pred.frames:
            for i, det in enumerate(frame.detections):
                if det.track_id is None:
                    raise ValueError(
                        f"prediction frame {frame.frame_index} detection {i} has no track_id"
                    )


def _labeled_frame_pairs(gt: VideoSequence, pred: VideoSequence):
    pred_by_index = {f.frame_index: f for f in pred.frames}
    for frame in gt.frames:
        if not frame.labeled:
            continue
        pf = pred_by_index.get(frame.frame_index)
        yield frame, (pf.detections if pf is not None else ())


def evaluate_mot(gt: VideoSequence, pred: VideoSequence, alpha: float = 0.5) -> EvalReport:
    """Per-joint CLEAR-MOT counts and rates over the labeled frames."""
    _check_pair(gt, pred, require_track_ids=True)
    j_count = gt.joint_count
    tp = np.zeros(j_count, dtype=int)
    idsw = np.zeros(j_count, dtype=int)
    gt_count = np.zeros(j_count, dtype=int)
    pred_count = np.zeros(j_count, dtype=int)
    motp_sum = 0.0
    # gt track -> per joint, the last matched pred id (-1 before any); object
    # entries hold track ids of any size
    last_id: dict[int, np.ndarray] = {}

    for frame, pred_dets in _labeled_frame_pairs(gt, pred):
        result = match_poses_frame(frame.detections, pred_dets, alpha)
        gt_count += _present_counts(frame.detections, j_count)
        pred_count += _present_counts(pred_dets, j_count)
        for gi, pi in result.pairs:
            g_det, p_det = frame.detections[gi], pred_dets[pi]
            present, hit = g_det.pose.present, result.correct[gi, pi]
            tp += hit
            ids = last_id.get(g_det.track_id)
            if ids is None:
                ids = last_id[g_det.track_id] = np.full(j_count, -1, dtype=object)
            idsw += present & (ids != -1) & (ids != p_det.track_id)
            ids[present] = p_det.track_id
            limit = alpha * head_size(g_det.head_box)
            g_xy, p_xy = g_det.pose.xy.tolist(), p_det.pose.xy.tolist()
            for j in np.flatnonzero(hit).tolist():
                d = math.hypot(g_xy[j][0] - p_xy[j][0], g_xy[j][1] - p_xy[j][1])
                motp_sum += 1.0 - (d / limit if limit > 0 else 0.0)
    # a correct joint is present on both sides; every other present joint
    # is an error: FN when labeled, FP when predicted
    fn = gt_count - tp
    fp = pred_count - tp

    mota_per_joint = tuple(
        100.0 * (1.0 - (fn[j] + fp[j] + idsw[j]) / gt_count[j]) if gt_count[j] > 0 else None
        for j in range(j_count)
    )
    total_gt = int(gt_count.sum())
    total_tp = int(tp.sum())
    total_fp = int(fp.sum())
    total_fn = int(fn.sum())
    total_idsw = int(idsw.sum())
    mota_total = (
        100.0 * (1.0 - (total_fn + total_fp + total_idsw) / total_gt) if total_gt > 0 else None
    )
    precision = 100.0 * total_tp / (total_tp + total_fp) if total_tp + total_fp > 0 else 0.0
    recall = 100.0 * total_tp / (total_tp + total_fn) if total_tp + total_fn > 0 else 0.0
    motp = 100.0 * motp_sum / total_tp if total_tp > 0 else 0.0

    return EvalReport(
        joint_names=gt.joint_names,
        mota_per_joint=mota_per_joint,
        mota_total=mota_total,
        motp_total=motp,
        precision_total=precision,
        recall_total=recall,
        tp=tuple(int(v) for v in tp),
        fp=tuple(int(v) for v in fp),
        fn=tuple(int(v) for v in fn),
        idsw=tuple(int(v) for v in idsw),
        gt=tuple(int(v) for v in gt_count),
    )


def _average_precision(scored: list[tuple[float, bool]], n_gt: int) -> float:
    """Area under the PR curve with the max-to-the-right precision envelope."""
    if n_gt == 0:
        raise ValueError("average precision needs at least one labeled instance")
    if not scored:
        return 0.0
    scored = sorted(scored, key=lambda s: -s[0])
    tps = np.cumsum([1 if hit else 0 for _, hit in scored])
    fps = np.cumsum([0 if hit else 1 for _, hit in scored])
    precision = tps / np.maximum(tps + fps, 1)
    # integrate over integer TP counts and divide once, so that a perfect
    # prediction scores exactly 1.0
    mtp = np.concatenate(([0], tps, [tps[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 1, 0, -1):
        mpre[i - 1] = max(mpre[i - 1], mpre[i])
    change = np.where(mtp[1:] != mtp[:-1])[0]
    return float(np.sum((mtp[change + 1] - mtp[change]) * mpre[change + 1]) / n_gt)


def evaluate_map(gt: VideoSequence, pred: VideoSequence, alpha: float = 0.5) -> EvalReport:
    """Per-joint average precision of scored keypoint predictions."""
    _check_pair(gt, pred, require_track_ids=False)
    j_count = gt.joint_count
    scored: list[list[tuple[float, bool]]] = [[] for _ in range(j_count)]
    n_gt = np.zeros(j_count, dtype=int)

    for frame, pred_dets in _labeled_frame_pairs(gt, pred):
        n_gt += _present_counts(frame.detections, j_count)
        if not pred_dets:
            continue
        # hits[k, j]: joint j of prediction k is correct for the pose it claimed
        hits = np.zeros((len(pred_dets), j_count), dtype=bool)
        if frame.detections:
            correct = correct_joint_mask(frame.detections, pred_dets, alpha)
            overlap = correct.sum(axis=2)  # zeroed row by row as gt poses are claimed
            order = sorted(range(len(pred_dets)), key=lambda k: (-pred_dets[k].score, k))
            for pi in order:
                gi = int(overlap[:, pi].argmax())  # the first largest overlap
                if overlap[gi, pi] > 0:
                    hits[pi] = correct[gi, pi]
                    overlap[gi] = 0
        for p_det, hit_row in zip(pred_dets, hits.tolist()):
            for j in np.flatnonzero(p_det.pose.present).tolist():
                scored[j].append((p_det.score, hit_row[j]))

    ap = tuple(
        100.0 * _average_precision(scored[j], int(n_gt[j])) if n_gt[j] > 0 else None
        for j in range(j_count)
    )
    defined = [v for v in ap if v is not None]
    map_total = float(np.mean(defined)) if defined else 0.0
    return EvalReport(joint_names=gt.joint_names, map_per_joint=ap, map_total=map_total)


def evaluate(gt: VideoSequence, pred: VideoSequence, alpha: float = 0.5) -> EvalReport:
    """Full report: MOT fields and mAP fields together."""
    return evaluate_mot(gt, pred, alpha).merged_with(evaluate_map(gt, pred, alpha))
