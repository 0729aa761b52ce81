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
same frame_index and matched once, by match_sequence: each side's rows are
gathered from its sequence's columns by one index, one joints_within call
per block of consecutive frames, NaN-padded, decides the PCKh masks, summed
over joints into one (F, N, M) counts array zero-padded to the largest
frame, then each frame is matched alone on its view of the counts. The
SequenceMatch keeps the pairs as one (K, 3) array of (labeled-frame
position, gt index, pred index) rows in frame order; the reports decide the
correct joints of their matched or claimed pairs by one joints_within call
on those pairs' rows, the blocks' elementwise rule. It serves
evaluate_map(match), which gives each joint's AP and their mean, the
perfect-association oracle and evaluate_mot(match, pred, ap), which counts it
with the track ids of any retracking of the matched predictions into one
complete EvalReport; evaluate(gt, pred, alpha) runs the three steps.

sweep_threshold is the one sweep engine, behind both the `sweep` command and
scripts/ablations.py: per detection threshold it filters and matches once,
computes mAP once and shares one linking.KernelMemo, then tracks and runs
the MOT id pass of every linker config.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
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

# mask cells (frames x gt rows x pred rows x joints) per block's PCKh kernel call; each
# float64 scratch array of a block then takes at most 128 KiB (budgets from
# 2**14 to 2**16 matched 4-actor and 30-actor frames equally fast)
_MATCH_BLOCK = 2**14


def _limits(head_boxes: np.ndarray, alpha: float) -> np.ndarray:
    """The PCKh limit of each head box (N, 4), alpha times its head size, 0.6
    times its diagonal; every detection needs one."""
    if np.isnan(head_boxes).any():
        raise ValueError("a ground-truth detection has no head box")
    diagonals = np.array(box_diagonals(head_boxes))
    if min(diagonals, default=1.0) <= 0.0:
        raise ValueError("degenerate head box")
    if not np.isfinite(diagonals).all():  # finite corners far apart: the box is at fault, not alpha
        raise ValueError("head box diagonal is beyond the float range")
    with np.errstate(over="ignore"):
        limits = alpha * (HEAD_SIZE_BIAS * diagonals)
    if not np.isfinite(limits).all():
        raise ValueError(f"alpha {alpha!r} times a head size is beyond the float range")
    return limits


def correct_joint_mask(
    gt_persons: Detections,
    pred_persons: Detections,
    alpha: float = 0.5,
) -> np.ndarray:
    """(n_gt, n_pred, J) mask of PCKh-correct joints for every gt x pred pair.

    Entry [i, k, j] is True when joint j is present in both poses and lies
    within alpha * head size of the label, and equals the scalar
    `pckh_correct` of tests/helpers.py; summed over the last axis it is the
    matrix of correct joint counts, as match_sequence's counts hold it.
    """
    j_count = (gt_persons if len(gt_persons) else pred_persons).xy.shape[1]
    gt_points = _points(gt_persons, np.arange(len(gt_persons)), j_count)
    pred_points = _points(pred_persons, np.arange(len(pred_persons)), j_count)
    return joints_within(gt_points[:-1], pred_points[:-1], _limits(gt_persons.head_boxes, alpha))


@dataclass(frozen=True, eq=False)
class _Blocks:
    """The correct-joint counts of the gt and pred frames of given indices,
    which pred may lack. Each side's rows lie end to end: frame k's are
    offsets[k]:offsets[k + 1] of points, with an all-NaN pad row last, and rows
    holds the sequence row of each; limits holds each gt row's PCKh limit, and
    1.0 for the pad. counts[k] is frame k's (n_gt, n_pred) count of
    PCKh-correct joints, padded with zeros to the largest frame; one
    joints_within call per block of frames, the most that fit in _MATCH_BLOCK
    mask cells, or 1, decides the masks, and only their sums over joints are
    kept."""

    gt_points: np.ndarray
    gt_offsets: np.ndarray
    gt_rows: np.ndarray
    limits: np.ndarray
    pred_points: np.ndarray
    pred_offsets: np.ndarray
    pred_rows: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, frame_indices: Sequence[int], gt: VideoSequence, pred: VideoSequence,
           alpha: float) -> "_Blocks":
        j_count = gt.joint_count
        gt_rows, gt_offsets = _frame_rows(gt, frame_indices)
        pred_rows, pred_offsets = _frame_rows(pred, frame_indices)
        gt_points = _points(gt.detections, gt_rows, j_count)
        pred_points = _points(pred.detections, pred_rows, j_count)
        limits = np.append(_limits(gt.detections.head_boxes[gt_rows], alpha), 1.0)
        n_max, m_max = int(np.diff(gt_offsets).max(initial=0)), int(np.diff(pred_offsets).max(initial=0))
        step = max(1, _MATCH_BLOCK // max(n_max * m_max * j_count, 1))
        counts = np.zeros((len(frame_indices), n_max, m_max), dtype=np.intp)
        for lo in range(0, len(frame_indices), step):
            hi = min(lo + step, len(frame_indices))
            gi, pi = _padded(gt_offsets, lo, hi), _padded(pred_offsets, lo, hi)
            counts[lo:hi, :gi.shape[1], :pi.shape[1]] = joints_within(
                gt_points[gi], pred_points[pi], limits[gi]).sum(axis=3)
        return cls(gt_points, gt_offsets, gt_rows, limits, pred_points, pred_offsets, pred_rows, counts)

    def frame(self, k: int) -> np.ndarray:
        """Frame k's (n_gt, n_pred) counts, a view into counts."""
        n, m = self.gt_offsets[k + 1] - self.gt_offsets[k], self.pred_offsets[k + 1] - self.pred_offsets[k]
        return self.counts[k, :n, :m]

    def correct(self, gt_rows: np.ndarray, pred_rows: np.ndarray) -> np.ndarray:
        """(K, J) mask of the PCKh-correct joints of the K pairs of these rows,
        from one joints_within call per run of the most pairs that fit in
        _MATCH_BLOCK mask cells."""
        step = max(1, _MATCH_BLOCK // max(self.gt_points.shape[1], 1))
        parts = []
        for lo in range(0, max(len(gt_rows), 1), step):  # one call on no pairs too
            gi, pi = gt_rows[lo:lo + step], pred_rows[lo:lo + step]
            parts.append(joints_within(self.gt_points[gi, None], self.pred_points[pi, None],
                                       self.limits[gi, None])[:, 0, 0])
        return np.concatenate(parts)


def _frame_rows(seq: VideoSequence, frame_indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, offsets): the rows of seq's frames with these indices end to
    end, a frame that seq lacks holding none, and where each frame's rows
    start in them, with the end last."""
    position = {index: k for k, index in enumerate(seq.frame_indices)}
    at = np.array([position.get(index, -1) for index in frame_indices], dtype=np.intp)
    bounds = np.array(seq.offsets)
    first = bounds[at]
    sizes = np.where(at >= 0, bounds[at + 1] - first, 0)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return np.arange(offsets[-1]) + np.repeat(first - offsets[:-1], sizes), offsets


def _points(dets: Detections, rows: np.ndarray, j_count: int) -> np.ndarray:
    """The keypoint_array rows of dets at rows, then an all-NaN row."""
    pad = np.full((1, j_count, 2), math.nan)
    return np.concatenate([keypoint_array(dets)[rows], pad]) if len(rows) else pad  # no rows: any joint count


def _padded(offsets: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, most rows) row numbers of frames lo to hi - 1, padded with -1."""
    first, end = offsets[lo:hi, None], offsets[lo + 1:hi + 1, None]
    rows = first + np.arange((end - first).max(initial=0))
    return np.where(rows < end, rows, -1)


def match_poses_frame(
    gt_persons: Detections,
    pred_persons: Detections,
    alpha: float = 0.5,
    counts: Optional[np.ndarray] = None,
) -> tuple[tuple[int, int], ...]:
    """The (gt index, pred index) pairs that maximize the total count of
    PCKh-correct joints, from counts, the (n_gt, n_pred) correct joints of every
    pair: match_sequence's view of its counts, or else correct_joint_mask's sum.

    Pairs that share no correct joint are discarded rather than matched.
    """
    if counts is None:
        counts = correct_joint_mask(gt_persons, pred_persons, alpha).sum(axis=2)
    rows, cols = linear_sum_assignment(-counts)
    kept = counts[rows, cols] > 0
    return tuple(zip(rows[kept].tolist(), cols[kept].tolist()))


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
        write_text_atomic(path, (json.dumps(doc, indent=2, allow_nan=False) + "\n",))

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
    write_text_atomic(path, (buffer.getvalue(),))


def _check_pair(gt: VideoSequence, pred: VideoSequence, require_track_ids: bool) -> None:
    if gt.video_id != pred.video_id:
        raise ValueError(f"video id mismatch: {gt.video_id!r} vs {pred.video_id!r}")
    if gt.joint_names != pred.joint_names:
        raise ValueError("joint names differ between ground truth and predictions")
    if require_track_ids and None in pred.detections.track_ids:
        row = pred.detections.track_ids.index(None)
        k = bisect.bisect_right(pred.offsets, row) - 1  # the frame of that row
        raise ValueError(
            f"prediction frame {pred.frame_indices[k]} detection {row - pred.offsets[k]} has no track_id"
        )


def _check_alpha(alpha: float) -> None:
    """Reject a PCKh threshold that is not finite and positive."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")


@dataclass(frozen=True, eq=False)
class SequenceMatch:
    """The pose matching of every labeled frame, from match_sequence. It ignores
    track ids, so it serves every retracking of the matched predictions; the
    terms only the reports need are computed on first use, from the frames'
    rows end to end in `blocks`."""

    gt: VideoSequence
    alpha: float
    frame_indices: tuple[int, ...]  # of the labeled frames, in order
    pairs: np.ndarray  # (K, 3) labeled-frame position, gt index, pred index, in frame order
    scores: np.ndarray  # (R,) score of each prediction row of the labeled frames
    blocks: _Blocks = field(repr=False)

    @cached_property
    def gt_count(self) -> np.ndarray:
        """(J,) number of labeled instances of each joint."""
        return np.count_nonzero(~np.isnan(self.blocks.gt_points[:-1, :, 0]), axis=0)

    @cached_property
    def track_ids(self) -> tuple[int, ...]:
        """The ground-truth track id of each pair."""
        ids, blocks = self.gt.detections.track_ids, self.blocks
        rows = blocks.gt_rows[blocks.gt_offsets[self.pairs[:, 0]] + self.pairs[:, 1]]
        return tuple(ids[row] for row in rows.tolist())

    @cached_property
    def _mot_terms(self) -> tuple:
        """(tp, pred_count, motp_sum, entry_row, follows, next_joint), the MOT terms
        that ignore predicted ids. An entry is a TP joint; entries run by track
        and joint, then by frame and pair. entry_row is the prediction row of
        each entry over the sequence; follows[k] says entry k + 1, of joint
        next_joint[k], has the track and joint of entry k."""
        j_count, blocks = self.gt.joint_count, self.blocks
        frame, gi, pi = self.pairs.T
        gt_rows, pred_rows = blocks.gt_offsets[frame] + gi, blocks.pred_offsets[frame] + pi
        pair, joint = np.nonzero(blocks.correct(gt_rows, pred_rows))  # the TP joints, by frame, pair and joint
        gt_row, pred_row = gt_rows[pair], pred_rows[pair]
        deltas = blocks.gt_points[gt_row, joint] - blocks.pred_points[pred_row, joint]
        limits = blocks.limits[gt_row]
        # math.hypot may round differently from np.hypot; the running sum keeps the
        # order of a loop over the TP joints
        distance = _hypot(deltas[:, 0], deltas[:, 1]).astype(float)
        scaled = np.divide(distance, limits, out=np.zeros_like(distance), where=limits > 0)
        motp_sum = float(np.add.accumulate(1.0 - scaled)[-1]) if len(scaled) else 0.0
        pred_count = np.count_nonzero(~np.isnan(blocks.pred_points[:-1, :, 0]), axis=0)
        tp = np.bincount(joint, minlength=j_count)
        key = _id_codes(self.track_ids)[pair] * j_count + joint
        order = np.argsort(key, kind="stable")
        key = key[order]
        return tp, pred_count, motp_sum, pred_row[order], key[1:] == key[:-1], joint[order][1:]


def _id_codes(ids: Sequence[int]) -> np.ndarray:
    """Dense integer codes of track ids of any size; equal ids get equal codes."""
    index: dict[int, int] = {}
    return np.array([index.setdefault(t, len(index)) for t in ids], dtype=np.intp)


def match_sequence(gt: VideoSequence, pred: VideoSequence, alpha: float = 0.5) -> SequenceMatch:
    """Match the poses of every labeled frame with the prediction frame of the
    same frame_index, which holds no predictions when it is missing. alpha,
    the PCKh threshold in head sizes, must be finite and positive. The counts
    are computed in blocks of frames; each frame is matched alone."""
    _check_alpha(alpha)
    _check_pair(gt, pred, require_track_ids=False)
    frame_indices = tuple(compress(gt.frame_indices, gt.labeled))
    blocks = _Blocks.of(frame_indices, gt, pred, alpha)
    # each labeled frame is assigned alone, on its view of the counts
    pred_by_index = {f.frame_index: f.detections for f in pred.frames}
    per_frame = [
        match_poses_frame(f.detections, pred_by_index.get(f.frame_index, NO_DETECTIONS), alpha, blocks.frame(k))
        for k, f in enumerate(f for f in gt.frames if f.labeled)
    ]
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(per_frame)), dtype=np.intp).reshape(-1, 2)
    pairs = np.column_stack([np.repeat(np.arange(len(per_frame)), list(map(len, per_frame))), pairs])
    scores = pred.detections.scores[blocks.pred_rows]
    return SequenceMatch(gt, alpha, frame_indices, pairs, scores, blocks)


def evaluate_mot(
    match: SequenceMatch, pred: VideoSequence, ap: tuple[tuple[Optional[float], ...], float],
) -> EvalReport:
    """The report of `match`: its per-joint CLEAR-MOT counts with the track ids
    of `pred`, the matched predictions under any ids, in the same frames and
    order, and `ap`, the per-joint AP and mAP of the match from evaluate_map."""
    _check_pair(match.gt, pred, require_track_ids=True)
    j_count = match.gt.joint_count
    rows, offsets = _frame_rows(pred, match.frame_indices)  # pred's row of every prediction row of the match
    sizes, match_sizes = np.diff(offsets), np.diff(match.blocks.pred_offsets)
    if (sizes != match_sizes).any():
        k = int(np.argmax(sizes != match_sizes))
        raise ValueError(f"prediction frame {match.frame_indices[k]} has {sizes[k]} detections, "
                         f"the match has {match_sizes[k]}")
    tp, pred_count, motp_sum, entry_row, follows, next_joint = match._mot_terms
    # a switch is a TP whose id differs from the previous TP of its track and joint
    entry_ids = _id_codes(pred.detections.track_ids)[rows[entry_row]]
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
    j_count, blocks = match.gt.joint_count, match.blocks
    offsets, sizes = blocks.pred_offsets, np.diff(blocks.pred_offsets)
    scores = match.scores
    # ranked[k, r]: frame k's prediction of rank r in score order, or m_max, a pad column
    frames, m_max = np.arange(len(match.frame_indices)), int(sizes.max(initial=0))
    row_frame = np.repeat(frames, sizes)
    order = np.lexsort((-scores, row_frame))
    ranked = np.full((len(frames), m_max), m_max)
    ranked[row_frame, np.arange(len(order)) - offsets[row_frame]] = order - offsets[row_frame]
    # overlaps[k, g, p]: correct joints of pose g and prediction p of frame k, zeroed
    # as poses are claimed, with a pad row and column of zeros
    overlaps = np.pad(blocks.counts, ((0, 0), (0, 1), (0, 1)))
    # the frames claim together, one rank at a time: each prediction claims the
    # first unclaimed pose with the most correct joints
    claimed = np.full((len(frames), m_max + 1), -1)
    for pi in ranked.T:
        column = overlaps[frames, :, pi]
        gi = column.argmax(axis=1)
        hit = np.flatnonzero(column[frames, gi] > 0)
        claimed[hit, pi[hit]] = gi[hit]
        overlaps[hit, gi[hit]] = 0
    frame, pi = np.nonzero(claimed >= 0)
    gi = claimed[frame, pi]
    # hits[r, j]: joint j of prediction row r is correct for the pose it claimed
    hits = np.zeros((len(scores), j_count), dtype=bool)
    hits[offsets[frame] + pi] = blocks.correct(blocks.gt_offsets[frame] + gi, offsets[frame] + pi)
    present = ~np.isnan(blocks.pred_points[:-1, :, 0])

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
