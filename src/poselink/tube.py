"""Geometry kernels for clip-level person tubes.

A tube is a sequence of T boxes, one per clip frame, following one person.
Tube anchors replicate a canonical box (scale x aspect, centered on a feature
cell) across the clip, and targets are regressed as a 4T vector of per-frame
deltas, ordered frame-major as (tx, ty, tw, th):

    tx = (x - xa) / wa      tw = log(w / wa)
    ty = (y - ya) / ha      th = log(h / ha)

Region features are pulled from a T x C x H x W volume by running 2D RoIAlign
per temporal slice with that frame's box and concatenating along time.
Sampling uses the half-pixel convention (the feature cell (r, c) center sits
at continuous (c + 0.5, r + 0.5)) with zero padding outside the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Box, Pose
from .similarity import iou

LABEL_BG = -1
LABEL_IGNORE = -2


@dataclass(frozen=True)
class Tube:
    boxes: tuple[Box, ...]

    def __post_init__(self):
        if len(self.boxes) < 1:
            raise ValueError("a tube needs at least one box")

    @property
    def length(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class TubeAnchor:
    """One canonical box replicated across the clip."""

    base: Box
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("anchor length must be >= 1")
        if self.base.width <= 0 or self.base.height <= 0:
            raise ValueError("anchor box must have positive width and height")

    def as_tube(self) -> Tube:
        return Tube((self.base,) * self.length)


@dataclass(frozen=True)
class TubeDeltas:
    values: tuple[float, ...]  # 4T floats, frame-major (tx, ty, tw, th)

    def __post_init__(self):
        if len(self.values) == 0 or len(self.values) % 4 != 0:
            raise ValueError("delta vector length must be a positive multiple of 4")

    @property
    def length(self) -> int:
        return len(self.values) // 4


@dataclass(frozen=True, eq=False)
class FeatureVolume:
    data: np.ndarray  # (T, C, H, W)
    stride: int = 8

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 4:
            raise ValueError("feature volume must have shape (T, C, H, W)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature volume entries must be finite")
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class AnchorGrid:
    scales: tuple[float, ...]
    aspects: tuple[float, ...]
    stride: int = 8

    def __post_init__(self):
        if not self.scales or not self.aspects:
            raise ValueError("anchor grid needs at least one scale and one aspect")

    @property
    def anchors_per_position(self) -> int:
        return len(self.scales) * len(self.aspects)


# defaults give 4 x 3 = 12 anchors per position
DEFAULT_GRID = AnchorGrid(scales=(32.0, 64.0, 128.0, 256.0), aspects=(0.5, 1.0, 2.0))


def generate_anchors(grid: AnchorGrid, image_w: int, image_h: int, length: int = 1) -> list[TubeAnchor]:
    """All tube anchors for an image: one per (cell, scale, aspect).

    Cells tile the image at the grid stride; anchors sit on cell centers with
    area scale**2 and width/height ratio equal to the aspect. Enumeration is
    row-major over cells, then scales, then aspects.
    """
    nx = math.ceil(image_w / grid.stride)
    ny = math.ceil(image_h / grid.stride)
    anchors = []
    for gy in range(ny):
        cy = (gy + 0.5) * grid.stride
        for gx in range(nx):
            cx = (gx + 0.5) * grid.stride
            for scale in grid.scales:
                for aspect in grid.aspects:
                    w = scale * math.sqrt(aspect)
                    h = scale / math.sqrt(aspect)
                    base = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
                    anchors.append(TubeAnchor(base, length))
    return anchors


def encode_tube_deltas(target: Tube, anchor: TubeAnchor) -> TubeDeltas:
    """Anchor-relative encoding of a target tube."""
    if target.length != anchor.length:
        raise ValueError(f"tube length {target.length} != anchor length {anchor.length}")
    xa, ya = anchor.base.center
    wa, ha = anchor.base.width, anchor.base.height
    values = []
    for box in target.boxes:
        w, h = box.width, box.height
        if w <= 0 or h <= 0:
            raise ValueError("target boxes must have positive width and height")
        x, y = box.center
        values += [(x - xa) / wa, (y - ya) / ha, math.log(w / wa), math.log(h / ha)]
    return TubeDeltas(tuple(values))


def decode_tube_deltas(deltas: TubeDeltas, anchor: TubeAnchor) -> Tube:
    """Exact inverse of encode_tube_deltas."""
    if deltas.length != anchor.length:
        raise ValueError(f"delta length {deltas.length} != anchor length {anchor.length}")
    xa, ya = anchor.base.center
    wa, ha = anchor.base.width, anchor.base.height
    boxes = []
    for t in range(deltas.length):
        tx, ty, tw, th = deltas.values[4 * t : 4 * t + 4]
        x = tx * wa + xa
        y = ty * ha + ya
        w = wa * math.exp(tw)
        h = ha * math.exp(th)
        boxes.append(Box(x - w / 2, y - h / 2, x + w / 2, y + h / 2))
    return Tube(tuple(boxes))


def tube_overlap(a: Tube, b: Tube) -> float:
    """Mean per-frame IoU; equals plain IoU for single-frame tubes."""
    if a.length != b.length:
        raise ValueError(f"tube lengths differ: {a.length} vs {b.length}")
    return sum(iou(x, y) for x, y in zip(a.boxes, b.boxes)) / a.length


def assign_anchors(
    anchors: Sequence[TubeAnchor],
    gt_tubes: Sequence[Tube],
    fg_thresh: float = 0.7,
    bg_thresh: float = 0.3,
) -> np.ndarray:
    """Foreground/background/ignore labels per anchor.

    Returns an int array: a matched ground-truth index for foreground, else
    LABEL_BG or LABEL_IGNORE. Anchors at or above fg_thresh overlap are
    foreground, at or below bg_thresh background, in between ignored. The
    best-overlapping anchor of each ground-truth tube is forced foreground
    (ties to the lowest anchor index) as long as its overlap is positive.
    """
    if not (0.0 <= bg_thresh < fg_thresh <= 1.0):
        raise ValueError("thresholds must satisfy 0 <= bg < fg <= 1")
    n = len(anchors)
    labels = np.full(n, LABEL_BG, dtype=int)
    if not gt_tubes or n == 0:
        return labels
    overlaps = np.zeros((n, len(gt_tubes)))
    for i, anchor in enumerate(anchors):
        tube = anchor.as_tube()
        for k, gt in enumerate(gt_tubes):
            overlaps[i, k] = tube_overlap(tube, gt)
    best = overlaps.max(axis=1)
    best_gt = overlaps.argmax(axis=1)
    labels[(best > bg_thresh) & (best < fg_thresh)] = LABEL_IGNORE
    fg = best >= fg_thresh
    labels[fg] = best_gt[fg]
    for k in range(len(gt_tubes)):
        i = int(overlaps[:, k].argmax())
        if overlaps[i, k] > 0:
            labels[i] = k
    return labels


def smooth_l1(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def tracking_loss(
    pred_deltas: np.ndarray,   # (N, 4T)
    target_deltas: np.ndarray,  # (N, 4T)
    cls_logits: np.ndarray,    # (N, 2) background/foreground logits
    cls_labels: np.ndarray,    # (N,) labels from assign_anchors
    length: int,
) -> tuple[float, float]:
    """Classification and box-regression loss over a set of anchors.

    cls: mean softmax cross-entropy over non-ignored anchors. reg: smooth-L1
    summed over the 4T coordinates of foreground anchors, averaged over the
    foreground count, then scaled by 1/T so values stay comparable to the
    single-frame case. Either loss is 0 when it has no anchors to score.
    """
    pred = np.asarray(pred_deltas, dtype=float)
    target = np.asarray(target_deltas, dtype=float)
    logits = np.asarray(cls_logits, dtype=float)
    labels = np.asarray(cls_labels, dtype=int)
    if pred.shape != target.shape or pred.shape[1] != 4 * length:
        raise ValueError("delta arrays must both have shape (N, 4T)")
    if logits.shape != (labels.shape[0], 2) or pred.shape[0] != labels.shape[0]:
        raise ValueError("logit/label shapes inconsistent with anchor count")

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


def _bilinear_sample(plane: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Zero-padded bilinear lookup of a (C, H, W) plane at continuous points.

    xs/ys are broadcast grids in the half-pixel convention described in the
    module docstring; returns (C,) + xs.shape.
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


def spatiotemporal_roi_align(
    vol: FeatureVolume,
    tube: Tube,
    resolution: int,
    samples_per_bin: int = 2,
) -> np.ndarray:
    """RoIAlign each temporal slice with its frame's box; concatenate in time.

    Boxes are given in image coordinates and divided by the volume stride.
    Each of the resolution x resolution bins averages samples_per_bin**2
    bilinear samples; points outside the feature extent read as zero.
    Returns an array of shape (T, C, resolution, resolution).
    """
    if resolution <= 0:
        raise ValueError("output resolution must be positive")
    if samples_per_bin <= 0:
        raise ValueError("samples_per_bin must be positive")
    t_len, channels = vol.data.shape[0], vol.data.shape[1]
    if tube.length != t_len:
        raise ValueError(f"tube length {tube.length} != volume length {t_len}")

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


def decode_keypoint_heatmap(heatmap: np.ndarray, box: Box) -> Pose:
    """Peak-decode a (J, R, R) heatmap into a pose inside the given box.

    Each joint takes the argmax bin (ties resolve to the lowest row-major
    index), placed at that bin's center within the box; the score is the
    softmax probability of the winning bin over the joint's full heatmap.
    """
    maps = np.asarray(heatmap, dtype=float)
    if maps.ndim != 3 or maps.shape[1] != maps.shape[2] or maps.shape[1] < 1:
        raise ValueError("heatmap must have shape (J, R, R) with R >= 1")
    if not np.all(np.isfinite(maps)):
        raise ValueError("heatmap entries must be finite")
    r = maps.shape[1]
    flat = maps.reshape(len(maps), -1)
    idx = flat.argmax(axis=1)
    row, col = np.divmod(idx, r)
    shifted = np.exp(flat - flat.max(axis=1, keepdims=True))
    prob = shifted[np.arange(len(flat)), idx] / shifted.sum(axis=1)
    xy = np.column_stack((
        box.x_min + (col + 0.5) * (box.width / r),
        box.y_min + (row + 0.5) * (box.height / r),
    ))
    return Pose(xy, prob, np.ones(len(flat), dtype=bool))


def inflate_2d_filter(weights2d: np.ndarray, k_t: int, mode: str) -> np.ndarray:
    """Expand (C_out, C_in, K, K) conv weights to (C_out, C_in, K_T, K, K).

    center: the middle temporal slice holds the 2D filter, the rest are zero
    (K_T must be odd). mean: every slice holds the filter divided by K_T, so
    the temporal sum reproduces the original weights.
    """
    w = np.asarray(weights2d, dtype=float)
    if w.ndim != 4:
        raise ValueError("weights must have shape (C_out, C_in, K, K)")
    if k_t < 1:
        raise ValueError("temporal extent must be >= 1")
    if mode == "center":
        if k_t % 2 == 0:
            raise ValueError("center mode needs an odd temporal extent")
        out = np.zeros(w.shape[:2] + (k_t,) + w.shape[2:], dtype=float)
        out[:, :, k_t // 2] = w
        return out
    if mode == "mean":
        out = np.repeat(w[:, :, None], k_t, axis=2)
        return out / k_t
    raise ValueError(f"unknown inflation mode {mode!r}")
