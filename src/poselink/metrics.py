"""PCKh correctness, keypoint mAP, and per-joint CLEAR-MOT scoring.

A predicted joint is correct when it lies within alpha * head size of the
labeled joint, where the head size is 0.6 times the annotated head-box
diagonal (the MPII convention) and the threshold comparison is closed (<=).

Tracking metrics follow CLEAR-MOT with every joint treated as its own target:

    MOTA_j = 100 * (1 - (FN_j + FP_j + IDSW_j) / GT_j)

Per labeled frame, ground-truth and predicted poses are matched one-to-one by
maximizing the total number of PCKh-correct joints (pairs with zero correct
joints are discarded). Joint pairs of matched poses count TP when correct;
a present predicted joint that is incorrect or has no labeled counterpart
counts FP, a present labeled joint without a correct prediction counts FN,
and unmatched persons contribute FP or FN for each present joint. Identity
switches are bookkept per ground-truth track and joint, as CLEAR-MOT counts
mismatches: a TP joint whose predicted track id differs from the id of the
previous TP of the same track and joint counts one IDSW_j. MOTP is the mean
localization quality 100 * mean(1 - d / (alpha * head)) over TP joints.

Average precision ranks predicted joints by detection score over the whole
sequence; per frame, predictions claim ground-truth poses greedily in score
order (highest PCKh overlap first, one claim per labeled pose). AP integrates
the precision-recall curve with the standard max-to-the-right precision
envelope, and mAP averages AP over joints that have at least one labeled
instance. Unlabeled frames contribute nothing to any metric.

Each labeled ground-truth frame is paired with the prediction frame of the
same frame_index and matched once, by match_sequence. That one SequenceMatch
serves evaluate_map(match), which gives each joint's AP and their mean, the
perfect-association oracle and evaluate_mot(match, pred, ap), which counts it
with the track ids of any retracking of the matched predictions into one
complete EvalReport; evaluate(gt, pred, alpha) runs the three steps.

sweep_threshold is the one sweep engine, behind both the `sweep` command and
scripts/ablations.py: per detection threshold it filters and matches once,
computes mAP once and shares one linking.KernelMemo, then tracks and runs
the MOT id pass of every linker config.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .linking import KernelMemo, LinkerConfig, TrackStats, linear_sum_assignment, track_video_with_stats
from .model import (
    NO_DETECTIONS,
    Detections,
    VideoSequence,
    box_diagonals,
    filter_detections,
    write_text_atomic,
)
from .similarity import joints_within, keypoint_array

HEAD_SIZE_BIAS = 0.6  # fraction of the head-box diagonal used as head size

_hypot = np.frompyfunc(math.hypot, 2, 1)  # math.hypot over arrays


def _head_sizes(dets: Detections) -> list[float]:
    """0.6 times the head-box diagonal of each detection; every detection needs one."""
    if np.isnan(dets.head_boxes).any():
        raise ValueError("a ground-truth detection has no head box")
    diagonals = box_diagonals(dets.head_boxes)
    if min(diagonals, default=1.0) <= 0.0:
        raise ValueError("degenerate head box")
    return [HEAD_SIZE_BIAS * diag for diag in diagonals]


def _present_counts(frames: Sequence[Detections], j_count: int) -> np.ndarray:
    """(J,) number of detections, over all frames, in which each joint is present."""
    counts = np.zeros(j_count, dtype=int)
    for dets in frames:
        if len(dets):
            counts += dets.present.sum(axis=0)
    return counts


def correct_joint_mask(
    gt_persons: Detections,
    pred_persons: Detections,
    alpha: float = 0.5,
) -> np.ndarray:
    """(n_gt, n_pred, J) mask of PCKh-correct joints for every gt x pred pair.

    Entry [i, k, j] is True when joint j is present in both poses and lies
    within alpha * head size of the label, and equals the scalar
    `pckh_correct` of tests/helpers.py; summed over the last axis it is the
    matrix of correct joint counts. Both sides must be non-empty.
    """
    limits = [alpha * size for size in _head_sizes(gt_persons)]
    return joints_within(keypoint_array(gt_persons), keypoint_array(pred_persons), limits)


def match_poses_frame(
    gt_persons: Detections,
    pred_persons: Detections,
    alpha: float = 0.5,
) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """(pairs, correct): the (gt index, pred index) pairs that maximize the
    total count of PCKh-correct joints, and the correct_joint_mask of every pair.

    Pairs that share no correct joint are discarded rather than matched.
    """
    gt, pred = gt_persons, pred_persons
    n_gt, n_pred = len(gt), len(pred)
    if n_gt == 0 or n_pred == 0:
        empty = np.zeros((n_gt, n_pred, (gt if n_gt else pred).xy.shape[1]), dtype=bool)
        return (), empty
    correct = correct_joint_mask(gt, pred, alpha)
    counts = correct.sum(axis=2)
    rows, cols = linear_sum_assignment(-counts)
    pairs = tuple((int(i), int(j)) for i, j in zip(rows, cols) if counts[i, j] > 0)
    return pairs, correct


def _mota(fn: int, fp: int, idsw: int, gt: int) -> Optional[float]:
    """MOTA in percent of these counts; undefined (None) without labeled instances."""
    return 100.0 * (1.0 - (fn + fp + idsw) / gt) if gt > 0 else None


@dataclass(frozen=True)
class EvalReport:
    """Per-joint CLEAR-MOT counts, MOTP and keypoint AP of one evaluation. MOTA,
    precision and recall, in percent like the scores, derive from the counts."""

    joint_names: tuple[str, ...]
    tp: tuple[int, ...]
    fp: tuple[int, ...]
    fn: tuple[int, ...]
    idsw: tuple[int, ...]
    gt: tuple[int, ...]
    motp_total: float
    map_per_joint: tuple[Optional[float], ...]  # None for a joint without labeled instances
    map_total: float

    @property
    def mota_per_joint(self) -> tuple[Optional[float], ...]:
        return tuple(map(_mota, self.fn, self.fp, self.idsw, self.gt))

    @property
    def mota_total(self) -> Optional[float]:
        return _mota(sum(self.fn), sum(self.fp), sum(self.idsw), sum(self.gt))

    @property
    def precision_total(self) -> float:
        tp, fp = sum(self.tp), sum(self.fp)
        return 100.0 * tp / (tp + fp) if tp + fp > 0 else 0.0

    @property
    def recall_total(self) -> float:
        tp, fn = sum(self.tp), sum(self.fn)
        return 100.0 * tp / (tp + fn) if tp + fn > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "joint_names": list(self.joint_names),
            "map": {"per_joint": list(self.map_per_joint), "total": self.map_total},
            "mota": {"per_joint": list(self.mota_per_joint), "total": self.mota_total},
            "motp_total": self.motp_total,
            "precision_total": self.precision_total,
            "recall_total": self.recall_total,
            "counts": {name: list(getattr(self, name)) for name in ("tp", "fp", "fn", "idsw", "gt")},
        }

    def save_json(self, path: str, extra: Optional[dict] = None) -> None:
        doc = self.to_dict()
        if extra:
            doc.update(extra)
        write_text_atomic(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")

    def summary_line(self) -> str:
        def fmt(v):
            return "n/a" if v is None else f"{v:.1f}"

        return (
            f"mAP {fmt(self.map_total)}  MOTA {fmt(self.mota_total)}  "
            f"MOTP {fmt(self.motp_total)}  Prec {fmt(self.precision_total)}  "
            f"Rec {fmt(self.recall_total)}"
        )


def csv_columns(
    report: EvalReport,
    config: Sequence[tuple[str, object]] = (),
    total_assignment_cost: Optional[float] = None,
) -> list[tuple[str, object]]:
    """(column name, cell) of every column of the report's CSV row, in order:
    the given config columns, per-joint mAP and MOTA, then the totals. A list,
    not a mapping: joint names come from the file and may repeat, or name a
    total column."""
    def cell(v):
        return "" if v is None else f"{v:.4f}"

    names = report.joint_names
    return [
        *config,
        *((f"map_{n}", cell(v)) for n, v in zip(names, report.map_per_joint)),
        ("map_total", cell(report.map_total)),
        *((f"mota_{n}", cell(v)) for n, v in zip(names, report.mota_per_joint)),
        *((name, cell(getattr(report, name)))
          for name in ("mota_total", "motp_total", "precision_total", "recall_total")),
        ("total_assignment_cost", cell(total_assignment_cost)),
    ]


def write_csv(path: str, rows: Sequence[Sequence[tuple[str, object]]]) -> None:
    """Write rows of csv_columns pairs under the column names of the first row."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow([name for name, _ in rows[0]])
    for row in rows:
        writer.writerow([value for _, value in row])
    write_text_atomic(path, buffer.getvalue())


def _check_pair(gt: VideoSequence, pred: VideoSequence, require_track_ids: bool) -> None:
    if gt.video_id != pred.video_id:
        raise ValueError(f"video id mismatch: {gt.video_id!r} vs {pred.video_id!r}")
    if gt.joint_names != pred.joint_names:
        raise ValueError("joint names differ between ground truth and predictions")
    if require_track_ids:
        for frame in pred.frames:
            ids = frame.detections.track_ids
            if None in ids:
                raise ValueError(
                    f"prediction frame {frame.frame_index} detection {ids.index(None)} has no track_id"
                )


def _check_alpha(alpha: float) -> None:
    """Reject a PCKh threshold that is not finite and positive."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")


@dataclass(frozen=True)
class FrameMatch:
    """One labeled frame: the detections of both sides and their pose matching."""

    frame_index: int
    gt: Detections
    pred: Detections
    pairs: tuple[tuple[int, int], ...]  # (gt index, pred index)
    # (n_gt, n_pred, J) PCKh-correct joints of every pair, from correct_joint_mask
    correct: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class SequenceMatch:
    """The pose matching of every labeled frame, from match_sequence. It ignores
    track ids, so it serves every retracking of the matched predictions; the
    terms only the reports need are computed on first use."""

    gt: VideoSequence
    alpha: float
    frames: tuple[FrameMatch, ...]

    @cached_property
    def gt_count(self) -> np.ndarray:
        """(J,) number of labeled instances of each joint."""
        return _present_counts([f.gt for f in self.frames], self.gt.joint_count)

    @cached_property
    def _mot_terms(self) -> tuple:
        """(tp, pred_count, motp_sum, entry_pair, follows, next_joint), the MOT terms
        that ignore predicted ids. An entry is a TP joint; entries run by track
        and joint, then by frame and pair. entry_pair numbers the pair of each
        entry over the sequence; follows[k] says entry k + 1, of joint
        next_joint[k], has the track and joint of entry k."""
        j_count = self.gt.joint_count
        no_entries = np.zeros(0, dtype=np.intp)
        tracks, entry_pair, entry_joint = [], [no_entries], [no_entries]
        # the gt - pred offset and PCKh limit of every TP joint, by frame, pair and joint
        deltas, limits = [np.zeros((0, 2))], [np.zeros(0)]
        for f in self.frames:
            if not f.pairs:
                continue
            gi, pi = (np.array(side) for side in zip(*f.pairs))
            pair, joint = np.nonzero(f.correct[gi, pi])  # the TP joints
            entry_pair.append(len(tracks) + pair)
            entry_joint.append(joint)
            tracks += [f.gt.track_ids[g] for g in gi.tolist()]
            deltas.append(f.gt.xy[gi[pair], joint] - f.pred.xy[pi[pair], joint])
            limits.append(self.alpha * np.array(_head_sizes(f.gt))[gi[pair]])
        deltas, limits = np.concatenate(deltas), np.concatenate(limits)
        # math.hypot may round differently from np.hypot; the running sum keeps the
        # order of a loop over the TP joints
        distance = _hypot(deltas[:, 0], deltas[:, 1]).astype(float)
        scaled = np.divide(distance, limits, out=np.zeros_like(distance), where=limits > 0)
        motp_sum = float(np.add.accumulate(1.0 - scaled)[-1]) if len(scaled) else 0.0
        pred_count = _present_counts([f.pred for f in self.frames], j_count)
        pair, joint = np.concatenate(entry_pair), np.concatenate(entry_joint)
        tp = np.bincount(joint, minlength=j_count)
        key = _id_codes(tracks)[pair] * j_count + joint
        order = np.argsort(key, kind="stable")
        key = key[order]
        return tp, pred_count, motp_sum, pair[order], key[1:] == key[:-1], joint[order][1:]


def _id_codes(ids: Sequence[int]) -> np.ndarray:
    """Dense integer codes of track ids of any size; equal ids get equal codes."""
    index: dict[int, int] = {}
    return np.array([index.setdefault(t, len(index)) for t in ids], dtype=np.intp)


def match_sequence(gt: VideoSequence, pred: VideoSequence, alpha: float = 0.5) -> SequenceMatch:
    """Match the poses of every labeled frame with the prediction frame of the
    same frame_index, which holds no predictions when it is missing. alpha,
    the PCKh threshold in head sizes, must be finite and positive."""
    _check_alpha(alpha)
    _check_pair(gt, pred, require_track_ids=False)
    pred_by_index = {f.frame_index: f.detections for f in pred.frames}
    frames = []
    for frame in gt.frames:
        if frame.labeled:
            dets = pred_by_index.get(frame.frame_index, NO_DETECTIONS)
            pairs, correct = match_poses_frame(frame.detections, dets, alpha)
            frames.append(FrameMatch(frame.frame_index, frame.detections, dets, pairs, correct))
    return SequenceMatch(gt, alpha, tuple(frames))


def evaluate_mot(
    match: SequenceMatch, pred: VideoSequence, ap: tuple[tuple[Optional[float], ...], float],
) -> EvalReport:
    """The report of `match`: its per-joint CLEAR-MOT counts with the track ids
    of `pred`, the matched predictions under any ids, in the same frames and
    order, and `ap`, the per-joint AP and mAP of the match from evaluate_map."""
    _check_pair(match.gt, pred, require_track_ids=True)
    j_count = match.gt.joint_count
    ids_by_index = {f.frame_index: f.detections.track_ids for f in pred.frames}
    ids = []
    for f in match.frames:
        frame_ids = ids_by_index.get(f.frame_index, ())
        if len(frame_ids) != len(f.pred):
            raise ValueError(f"prediction frame {f.frame_index} has {len(frame_ids)} detections, "
                             f"the match has {len(f.pred)}")
        ids += [frame_ids[pi] for _, pi in f.pairs]
    tp, pred_count, motp_sum, entry_pair, follows, next_joint = match._mot_terms
    # a switch is a TP whose id differs from the previous TP of its track and joint
    entry_ids = _id_codes(ids)[entry_pair]
    idsw = np.bincount(next_joint[follows & (entry_ids[1:] != entry_ids[:-1])], minlength=j_count)
    gt_count = match.gt_count
    # a correct joint is present on both sides; every other present joint
    # is an error: FN when labeled, FP when predicted
    fn = gt_count - tp
    fp = pred_count - tp
    total_tp = int(tp.sum())
    return EvalReport(
        joint_names=match.gt.joint_names,
        tp=tuple(int(v) for v in tp),
        fp=tuple(int(v) for v in fp),
        fn=tuple(int(v) for v in fn),
        idsw=tuple(int(v) for v in idsw),
        gt=tuple(int(v) for v in gt_count),
        motp_total=100.0 * motp_sum / total_tp if total_tp > 0 else 0.0,
        map_per_joint=ap[0],
        map_total=ap[1],
    )


def _average_precision(scores, hits, n_gt: int) -> float:
    """Area under the PR curve of predictions with these scores and hit flags,
    with the max-to-the-right precision envelope."""
    if n_gt == 0:
        raise ValueError("average precision needs at least one labeled instance")
    if not len(scores):
        return 0.0
    hits = np.asarray(hits, dtype=bool)[np.argsort(-np.asarray(scores, dtype=float), kind="stable")]
    tps = np.cumsum(hits)
    fps = np.cumsum(~hits)
    precision = tps / np.maximum(tps + fps, 1)
    # integrate over integer TP counts and divide once, so that a perfect
    # prediction scores exactly 1.0
    mtp = np.concatenate(([0], tps, [tps[-1]]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    change = np.where(mtp[1:] != mtp[:-1])[0]
    return float(np.sum((mtp[change + 1] - mtp[change]) * mpre[change + 1]) / n_gt)


def evaluate_map(match: SequenceMatch) -> tuple[tuple[Optional[float], ...], float]:
    """(per-joint AP, mAP) in percent of the scored keypoint predictions of
    `match`; a joint without labeled instances has AP None and no part in mAP."""
    j_count = match.gt.joint_count
    # one row per prediction, in frame and prediction order
    no_rows = np.zeros((0, j_count), dtype=bool)
    scores, hits, present = [np.zeros(0)], [no_rows], [no_rows]
    for f in match.frames:
        if not len(f.pred):
            continue
        # frame_hits[k, j]: joint j of prediction k is correct for the pose it claimed
        frame_hits = np.zeros((len(f.pred), j_count), dtype=bool)
        if len(f.gt):
            overlap = f.correct.sum(axis=2)  # zeroed row by row as gt poses are claimed
            for pi in np.argsort(-f.pred.scores, kind="stable").tolist():
                gi = int(overlap[:, pi].argmax())  # the first largest overlap
                if overlap[gi, pi] > 0:
                    frame_hits[pi] = f.correct[gi, pi]
                    overlap[gi] = 0
        scores.append(f.pred.scores)
        hits.append(frame_hits)
        present.append(f.pred.present)
    scores, hits, present = np.concatenate(scores), np.concatenate(hits), np.concatenate(present)

    n_gt = match.gt_count
    ap = tuple(
        100.0 * _average_precision(scores[present[:, j]], hits[present[:, j], j], int(n_gt[j]))
        if n_gt[j] > 0 else None
        for j in range(j_count)
    )
    defined = [v for v in ap if v is not None]
    map_total = float(np.mean(defined)) if defined else 0.0
    return ap, map_total


def evaluate(gt: VideoSequence, pred: VideoSequence, alpha: float = 0.5) -> EvalReport:
    """The full report of pred against gt, from one match."""
    match = match_sequence(gt, pred, alpha)
    return evaluate_mot(match, pred, evaluate_map(match))


def sweep_threshold(
    gt: VideoSequence, pred: VideoSequence, threshold: float, kp_threshold: float,
    configs: Sequence[LinkerConfig], alpha: float = 0.5,
) -> list[tuple[VideoSequence, EvalReport, TrackStats]]:
    """(tracked predictions, full report, tracking stats) of every linker
    config in order, with pred filtered at threshold and kp_threshold.

    Filtering, pose matching and mAP depend only on the thresholds (tracking
    changes only track ids, which matching and mAP ignore), so they run once,
    and each config runs only the id pass of its own MOT report. The configs
    track one after another, in order, sharing one kernel memo: each frame
    pair's IoU, PCKh and cosine matrices are computed once for all configs
    whose candidate pool is the same.
    """
    filtered = filter_detections(pred, threshold, kp_threshold)
    match = match_sequence(gt, filtered, alpha)
    ap = evaluate_map(match)
    memo = KernelMemo(filtered)
    results = []
    for cfg in configs:
        tracked, stats = track_video_with_stats(filtered, cfg, memo)
        results.append((tracked, evaluate_mot(match, tracked, ap), stats))
    return results
