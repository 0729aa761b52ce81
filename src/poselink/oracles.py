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

from .model import Pose, VideoSequence
from .metrics import _check_pair, match_poses_frame
from .similarity import box_array, pairwise_iou

ORACLE_MODES = ("perfect_association", "perfect_keypoints", "both")


def perfect_association(gt: VideoSequence, pred: VideoSequence, alpha: float = 0.5) -> VideoSequence:
    """Copy ground-truth track ids onto pose-matched predictions.

    Unmatched predictions keep their own track structure, relocated above the
    ground-truth id range: the distinct ids seen on unmatched detections are
    renumbered, in sorted order, from (max ground-truth id + 1). Running the
    transform twice yields the same sequence.
    """
    _check_pair(gt, pred, require_track_ids=True)
    gt_ids = [d.track_id for f in gt.frames for d in f.detections]
    if any(tid is None for tid in gt_ids):
        raise ValueError("ground truth must carry track ids")
    offset = (max(gt_ids) + 1) if gt_ids else 0

    gt_by_index = {f.frame_index: f for f in gt.frames}
    # matched[(frame_index, pred det index)] -> gt track id
    matched: dict[tuple[int, int], int] = {}
    unmatched_ids: set[int] = set()
    for frame in pred.frames:
        gt_frame = gt_by_index.get(frame.frame_index)
        if gt_frame is not None and gt_frame.labeled:
            result = match_poses_frame(gt_frame.detections, frame.detections, alpha)
            for gi, pi in result.pairs:
                matched[(frame.frame_index, pi)] = gt_frame.detections[gi].track_id
        for i, det in enumerate(frame.detections):
            if (frame.frame_index, i) not in matched:
                unmatched_ids.add(det.track_id)

    remap = {tid: offset + rank for rank, tid in enumerate(sorted(unmatched_ids))}

    out_frames = []
    for frame in pred.frames:
        dets = tuple(
            det.with_track_id(matched.get((frame.frame_index, i), remap.get(det.track_id)))
            for i, det in enumerate(frame.detections)
        )
        out_frames.append(replace(frame, detections=dets))
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
        if gt_frame is None or not gt_frame.labeled or not gt_frame.detections or not frame.detections:
            out_frames.append(frame)
            continue
        overlaps = pairwise_iou(box_array(gt_frame.detections), box_array(frame.detections))
        rows, cols = linear_sum_assignment(-overlaps)
        replacement = {
            int(pi): gt_frame.detections[int(gi)]
            for gi, pi in zip(rows, cols)
            if overlaps[gi, pi] > 0
        }
        dets = []
        for pi, det in enumerate(frame.detections):
            g_det = replacement.get(pi)
            if g_det is None:
                dets.append(det)
            else:
                g = g_det.pose
                dets.append(replace(det, pose=Pose(g.xy, [1.0] * len(g), g.present)))
        out_frames.append(replace(frame, detections=tuple(dets)))
    return pred.with_frames(out_frames)


def apply_oracle(
    gt: VideoSequence, pred: VideoSequence, mode: str, alpha: float = 0.5
) -> VideoSequence:
    """Dispatch on mode; "both" runs association first, then keypoints."""
    if mode == "perfect_association":
        return perfect_association(gt, pred, alpha)
    if mode == "perfect_keypoints":
        return perfect_keypoints(gt, pred)
    if mode == "both":
        return perfect_keypoints(gt, perfect_association(gt, pred, alpha))
    raise ValueError(f"unknown oracle mode {mode!r}")
