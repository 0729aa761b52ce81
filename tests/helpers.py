"""Shared fixture builders and independent oracles used across the test suite."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from poselink.model import Box, Detection, Frame, Pose, VideoSequence

JOINTS3 = ("head", "left", "right")

# head box (0, 0, 30, 40): diagonal 50, head size 30, PCKh limit 15 at alpha 0.5
HEAD_BOX = Box(0.0, 0.0, 30.0, 40.0)
PCKH_LIMIT = 15.0


def pose_from_rows(rows) -> Pose:
    """Pose of (x, y, score, present) rows, one per joint."""
    rows = list(rows)
    return Pose([r[:2] for r in rows], [r[2] for r in rows], [r[3] for r in rows])


def pose_at(coords, score=2.5, present=None) -> Pose:
    present = present or [True] * len(coords)
    return pose_from_rows(
        (float(x), float(y), score, flag) for (x, y), flag in zip(coords, present)
    )


def person(coords, score=1.0, track_id=None, head_box=HEAD_BOX, feature=None, present=None) -> Detection:
    pose = pose_at(coords, present=present)
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    box = Box(min(xs) - 5.0, min(ys) - 5.0, max(xs) + 5.0, max(ys) + 5.0)
    return Detection(
        box=box, score=score, pose=pose, track_id=track_id, head_box=head_box, feature=feature
    )


def sequence(frames, joint_names=JOINTS3, video_id="fixture", size=(640, 480)) -> VideoSequence:
    """frames: list of (frame_index, labeled, [Detection, ...])."""
    return VideoSequence(
        video_id=video_id,
        image_width=size[0],
        image_height=size[1],
        joint_names=tuple(joint_names),
        frames=tuple(Frame(i, labeled, tuple(dets)) for i, labeled, dets in frames),
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


def scale_sequence(seq: VideoSequence, s: float) -> VideoSequence:
    def scale_box(box):
        return None if box is None else Box(box.x_min * s, box.y_min * s, box.x_max * s, box.y_max * s)

    frames = []
    for frame in seq.frames:
        dets = tuple(
            replace(
                det,
                box=scale_box(det.box),
                head_box=scale_box(det.head_box),
                pose=Pose(det.pose.xy * s, det.pose.score, det.pose.present),
            )
            for det in frame.detections
        )
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
