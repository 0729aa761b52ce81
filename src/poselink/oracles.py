"""Upper-bound transforms: replace parts of a tracked prediction with truth.

perfect_association keeps the predicted geometry but rewrites the track id of
every pose-matched prediction to the matched ground-truth id, which drives
identity switches to zero. perfect_keypoints keeps the predicted boxes,
scores, and ids but substitutes the labeled pose wherever a prediction's box
overlaps a ground-truth box. Applying both (association first, then keypoint
replacement) bounds what the tracker could score with perfect matching and
perfect pose estimates, given the same detections.
"""

from __future__ import annotations

from dataclasses import replace

from scipy.optimize import linear_sum_assignment

from .model import Frame, VideoSequence
from .metrics import _check_alpha, _check_pair, match_sequence
from .similarity import pairwise_iou


def perfect_association(gt: VideoSequence, pred: VideoSequence, alpha: float = 0.5) -> VideoSequence:
    """Copy ground-truth track ids onto pose-matched predictions.

    Unmatched predictions keep their own track structure, relocated above the
    ground-truth id range: the distinct ids seen on unmatched detections are
    renumbered, in sorted order, from (max ground-truth id + 1). Running the
    transform twice yields the same sequence.
    """
    _check_pair(gt, pred, require_track_ids=True)
    gt_ids = [tid for f in gt.frames for tid in f.detections.track_ids]
    if None in gt_ids:
        raise ValueError("ground truth must carry track ids")
    offset = (max(gt_ids) + 1) if gt_ids else 0

    # matched[(frame_index, pred det index)] -> gt track id
    matched = {
        (f.frame_index, pi): f.gt.track_ids[gi]
        for f in match_sequence(gt, pred, alpha).frames for gi, pi in f.pairs
    }
    unmatched_ids = {
        tid for frame in pred.frames for i, tid in enumerate(frame.detections.track_ids)
        if (frame.frame_index, i) not in matched
    }

    remap = {tid: offset + rank for rank, tid in enumerate(sorted(unmatched_ids))}

    out_frames = []
    for frame in pred.frames:
        ids = [
            matched.get((frame.frame_index, i), remap.get(tid))
            for i, tid in enumerate(frame.detections.track_ids)
        ]
        dets = replace(frame.detections, track_ids=tuple(ids))
        out_frames.append(Frame(frame.frame_index, frame.labeled, dets))
    return pred.with_frames(out_frames)


def perfect_keypoints(gt: VideoSequence, pred: VideoSequence) -> VideoSequence:
    """Replace matched predictions' poses with the labeled poses.

    Matching is Hungarian over box IoU per labeled frame; a link requires
    IoU > 0. Replaced joints keep the label's presence flags and get score 1.
    Idempotent, since boxes are left untouched.
    """
    _check_pair(gt, pred, require_track_ids=False)
    gt_by_index = {f.frame_index: f for f in gt.frames}
    out_frames = []
    for frame in pred.frames:
        gt_frame = gt_by_index.get(frame.frame_index)
        dets = frame.detections
        if gt_frame is None or not gt_frame.labeled or not len(gt_frame.detections) or not len(dets):
            out_frames.append(frame)
            continue
        labels = gt_frame.detections
        overlaps = pairwise_iou(labels.boxes, dets.boxes)
        rows, cols = linear_sum_assignment(-overlaps)
        linked = overlaps[rows, cols] > 0
        gi, pi = rows[linked], cols[linked]
        xy, kp_score, present = dets.xy.copy(), dets.kp_score.copy(), dets.present.copy()
        xy[pi], kp_score[pi], present[pi] = labels.xy[gi], 1.0, labels.present[gi]
        dets = replace(dets, xy=xy, kp_score=kp_score, present=present)
        out_frames.append(Frame(frame.frame_index, frame.labeled, dets))
    return pred.with_frames(out_frames)


def apply_oracle(
    gt: VideoSequence, pred: VideoSequence, mode: str, alpha: float = 0.5
) -> VideoSequence:
    """Dispatch on mode; "both" runs association first, then keypoints. alpha
    must be finite and positive in every mode."""
    _check_alpha(alpha)
    if mode == "perfect_association":
        return perfect_association(gt, pred, alpha)
    if mode == "perfect_keypoints":
        return perfect_keypoints(gt, pred)
    if mode == "both":
        return perfect_keypoints(gt, perfect_association(gt, pred, alpha))
    raise ValueError(f"unknown oracle mode {mode!r}")
