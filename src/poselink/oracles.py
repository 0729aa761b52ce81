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

import numpy as np

from .linking import LinkerConfig, link_frame_pair
from .model import VideoSequence
from .metrics import _check_alpha, _check_pair, match_sequence


def perfect_association(gt: VideoSequence, pred: VideoSequence, alpha: float = 0.5) -> VideoSequence:
    """Copy ground-truth track ids onto pose-matched predictions.

    Unmatched predictions keep their own track structure, relocated above the
    ground-truth id range: the distinct ids seen on unmatched detections are
    renumbered, in sorted order, from (max ground-truth id + 1). Running the
    transform twice yields the same sequence.
    """
    _check_pair(gt, pred, require_track_ids=True)
    gt_ids = gt.detections.track_ids
    if None in gt_ids:
        raise ValueError("ground truth must carry track ids")
    offset = (max(gt_ids) + 1) if gt_ids else 0

    # matched[pred row] -> gt track id
    match = match_sequence(gt, pred, alpha)
    matched = dict(zip(match.pred_rows[match.pairs[:, 1]].tolist(), match.track_ids))
    pred_ids = pred.detections.track_ids
    unmatched_ids = {tid for row, tid in enumerate(pred_ids) if row not in matched}

    remap = {tid: offset + rank for rank, tid in enumerate(sorted(unmatched_ids))}
    ids = tuple(matched.get(row, remap.get(tid)) for row, tid in enumerate(pred_ids))
    return replace(pred, detections=replace(pred.detections, track_ids=ids))


def perfect_keypoints(gt: VideoSequence, pred: VideoSequence) -> VideoSequence:
    """Replace matched predictions' poses with the labeled poses.

    Boxes are linked per labeled frame by `link_frame_pair` at the default
    `LinkerConfig`: Hungarian over box IoU, a link requiring IoU > 0.
    Replaced joints keep the label's presence flags and get score 1.
    Idempotent, since boxes are left untouched. A non-finite IoU, from boxes
    whose areas overflow, is an error that names the frame index.
    """
    _check_pair(gt, pred, require_track_ids=False)
    gt_by_index = {f.frame_index: f for f in gt.frames}
    dets = pred.detections
    xy, kp_score, present = dets.xy.copy(), dets.kp_score.copy(), dets.present.copy()
    for frame, first in zip(pred.frames, pred.offsets):
        gt_frame = gt_by_index.get(frame.frame_index)
        if gt_frame is None or not gt_frame.labeled:
            continue
        labels = gt_frame.detections
        if not (len(labels) and len(frame.detections)):  # nothing to link; an empty side may have 0 joints
            continue
        try:
            parent, _ = link_frame_pair(labels, frame.detections, LinkerConfig())
        except ValueError as exc:  # boxes so large that their areas overflow
            raise ValueError(f"frame {frame.frame_index}: {exc}") from exc
        pi = np.flatnonzero(parent >= 0)
        rows = first + pi
        xy[rows], kp_score[rows], present[rows] = labels.xy[parent[pi]], 1.0, labels.present[parent[pi]]
    return replace(pred, detections=replace(dets, xy=xy, kp_score=kp_score, present=present))


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
