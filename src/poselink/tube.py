"""Geometry kernels for clip-level person tubes.

A tube is a sequence of T boxes, one per clip frame, following one person.
Tube anchors replicate a canonical box (scale x aspect, centered on a feature
cell) across the clip, and targets are regressed as a 4T vector of per-frame
deltas, ordered frame-major as (tx, ty, tw, th):

    tx = (x - xa) / wa      tw = log(w / wa)
    ty = (y - ya) / ha      th = log(h / ha)

The anchors of one image are one (A, 4) corner array with their clip length
(TubeAnchors), and assignment computes all anchor x ground-truth overlaps at
once (pairwise_tube_overlap), each overlap equal to the scalar tube_overlap
bit for bit.

Region features are pulled from a T x C x H x W volume by RoIAlign on every
temporal slice with that frame's box, all T slices sampled in one pass.
Sampling uses the half-pixel convention (the feature cell (r, c) center sits
at continuous (c + 0.5, r + 0.5)) with zero padding outside the grid.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import Box
from .similarity import iou, pairwise_iou

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


@dataclass(frozen=True, eq=False)
class TubeAnchors(Sequence):
    """Anchors of one clip length as a read-only (A, 4) corner array.

    Rows are [x_min, y_min, x_max, y_max]. Indexing (numpy integers too) and
    iteration build TubeAnchor views on demand; the checks are TubeAnchor's,
    run once over the whole array.
    """

    corners: np.ndarray
    length: int

    def __post_init__(self):
        arr = np.array(self.corners, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError("anchor corners must have shape (A, 4)")
        if not np.isfinite(arr).all():
            raise ValueError("box coordinate is not finite")
        if self.length < 1:
            raise ValueError("anchor length must be >= 1")
        if not ((arr[:, 2] - arr[:, 0] > 0) & (arr[:, 3] - arr[:, 1] > 0)).all():
            raise ValueError("anchor box must have positive width and height")
        arr.flags.writeable = False
        object.__setattr__(self, "corners", arr)

    def __len__(self) -> int:
        return len(self.corners)

    def __getitem__(self, index) -> TubeAnchor:
        return TubeAnchor(Box(*self.corners[operator.index(index)].tolist()), self.length)

    def __iter__(self):
        for row in self.corners.tolist():
            yield TubeAnchor(Box(*row), self.length)


@dataclass(frozen=True)
class TubeDeltas:
    values: tuple[float, ...]  # 4T floats, frame-major (tx, ty, tw, th)

    def __post_init__(self):
        if len(self.values) == 0 or len(self.values) % 4 != 0:
            raise ValueError("delta vector length must be a positive multiple of 4")
        for i, v in enumerate(self.values):
            if not math.isfinite(v):
                raise ValueError(f"delta value {i} is not finite: {v}")

    @property
    def length(self) -> int:
        return len(self.values) // 4


def _check_stride(stride) -> None:
    if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")


@dataclass(frozen=True, eq=False)
class FeatureVolume:
    data: np.ndarray  # (T, C, H, W)
    stride: int = 8

    def __post_init__(self):
        _check_stride(self.stride)
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
        _check_stride(self.stride)
        for name in ("scales", "aspects"):
            values = getattr(self, name)
            if not all(isinstance(v, numbers.Real) and 0 < v < math.inf for v in values):
                raise ValueError(f"{name} must be finite and positive, got {values!r}")

    @property
    def anchors_per_position(self) -> int:
        return len(self.scales) * len(self.aspects)


# defaults give 4 x 3 = 12 anchors per position
DEFAULT_GRID = AnchorGrid(scales=(32.0, 64.0, 128.0, 256.0), aspects=(0.5, 1.0, 2.0))


def generate_anchors(grid: AnchorGrid, image_w: int, image_h: int, length: int = 1) -> TubeAnchors:
    """All tube anchors for an image: one per (cell, scale, aspect).

    Cells tile the image at the grid stride; anchors sit on cell centers with
    area scale**2 and width/height ratio equal to the aspect. Enumeration is
    row-major over cells, then scales, then aspects. Returns a TubeAnchors:
    one (A, 4) corner array in that order plus the clip length, whose items
    are TubeAnchor views.
    """
    cx = (np.arange(math.ceil(image_w / grid.stride)) + 0.5) * grid.stride
    cy = (np.arange(math.ceil(image_h / grid.stride)) + 0.5) * grid.stride
    root = np.sqrt(np.array(grid.aspects, dtype=float))
    scales = np.array(grid.scales, dtype=float)[:, None]
    with np.errstate(over="ignore"):  # an infinite size fails TubeAnchors' check
        half_w = scales * root / 2  # (scale, aspect)
        half_h = scales / root / 2
    cx = cx[None, :, None, None]  # (row, column, scale, aspect)
    cy = cy[:, None, None, None]
    corners = np.empty((cy.shape[0], cx.shape[1]) + half_w.shape + (4,))
    corners[..., 0] = cx - half_w
    corners[..., 1] = cy - half_h
    corners[..., 2] = cx + half_w
    corners[..., 3] = cy + half_h
    return TubeAnchors(corners.reshape(-1, 4), length)


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
        try:
            w = wa * math.exp(tw)
            h = ha * math.exp(th)
        except OverflowError:
            w = h = math.inf
        corners = (x - w / 2, y - h / 2, x + w / 2, y + h / 2)
        if not all(map(math.isfinite, corners)):
            raise ValueError(f"deltas of frame {t} decode to a box beyond the float range")
        boxes.append(Box(*corners))
    return Tube(tuple(boxes))


def _corners(boxes: Sequence[Box]) -> np.ndarray:
    """(N, 4) corners [x_min, y_min, x_max, y_max] of a sequence of boxes."""
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes], dtype=float).reshape(-1, 4)


def tube_overlap(a: Tube, b: Tube) -> float:
    """Mean per-frame IoU; equals plain IoU for single-frame tubes."""
    if a.length != b.length:
        raise ValueError(f"tube lengths differ: {a.length} vs {b.length}")
    return sum(iou(x, y) for x, y in zip(a.boxes, b.boxes)) / a.length


def pairwise_tube_overlap(anchors: TubeAnchors, gt_tubes: Sequence[Tube]) -> np.ndarray:
    """(A, G) tube overlap of every anchor with every ground-truth tube.

    The float operations of tube_overlap in the same order (per-frame IoU,
    summed in frame order from 0, divided by T), so every entry equals
    tube_overlap(anchor.as_tube(), gt) bit for bit.
    """
    corners, length = anchors.corners, anchors.length
    for gt in gt_tubes:
        if gt.length != length:
            raise ValueError(f"tube lengths differ: {length} vs {gt.length}")
    if not gt_tubes or len(corners) == 0:
        return np.zeros((len(corners), len(gt_tubes)))
    gt_corners = np.stack([_corners(gt.boxes) for gt in gt_tubes])  # (G, T, 4)
    return sum(pairwise_iou(corners, gt_corners[:, t]) for t in range(length)) / length


def assign_anchors(
    anchors: TubeAnchors,
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
    overlaps = pairwise_tube_overlap(anchors, gt_tubes)
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


def _bilinear_taps(lo: np.ndarray, hi: np.ndarray, n: int, size: int) -> list:
    """The two bilinear taps along one feature axis of n samples spread evenly
    over each row's [lo, hi] (lo and hi are (T, 1), in cell units).

    Returns [(index, weight), (index + 1, weight)] for the lower and upper
    neighbour, each (T, n): indices clamped into [0, size), weights zeroed
    where the neighbour lies outside the grid. Sample points are clamped to
    [-2, size + 1] first, where both neighbours are already outside, so that
    far-away boxes floor to small integers.
    """
    p = np.minimum(np.maximum(lo + (np.arange(n) + 0.5) * (hi - lo) / n - 0.5, -2.0), size + 1.0)
    p0 = np.floor(p)
    frac = p - p0
    i0 = p0.astype(int)
    return [
        (np.minimum(np.maximum(i, 0), size - 1), np.where((i >= 0) & (i < size), weight, 0.0))
        for i, weight in ((i0, 1 - frac), (i0 + 1, frac))
    ]


def spatiotemporal_roi_align(
    vol: FeatureVolume,
    tube: Tube,
    resolution: int,
    samples_per_bin: int = 2,
) -> np.ndarray:
    """RoIAlign every frame of the volume with that frame's box of the tube.

    Boxes are given in image coordinates and divided by the volume stride.
    Each of the resolution x resolution bins averages samples_per_bin**2
    bilinear samples; points outside the feature extent read as zero. All T
    frames are sampled together, one gather per bilinear corner, and every
    output equals 2D RoIAlign of its frame alone bit for bit. Returns an
    array of shape (T, C, resolution, resolution).
    """
    if resolution <= 0:
        raise ValueError("output resolution must be positive")
    if samples_per_bin <= 0:
        raise ValueError("samples_per_bin must be positive")
    t_len, channels, h, w = vol.data.shape
    if tube.length != t_len:
        raise ValueError(f"tube length {tube.length} != volume length {t_len}")

    r, s = resolution, samples_per_bin
    x1, y1, x2, y2 = (_corners(tube.boxes) / vol.stride).T[:, :, None]
    rows, cols = _bilinear_taps(y1, y2, r * s, h), _bilinear_taps(x1, x2, r * s, w)
    frames = np.arange(t_len)[:, None, None]
    out = None
    for (yi, wy), (xi, wx) in itertools.product(rows, cols):  # corners 00, 01, 10, 11
        # (T, r*s, r*s, C): channels last, the memory order of a one-frame
        # gather, so that the mean below sums each bin in that frame's order
        weight = wy[:, :, None] * wx[:, None, :]
        vals = vol.data[frames, :, yi[:, :, None], xi[:, None, :]] * weight[..., None]
        out = vals if out is None else out + vals
    return np.moveaxis(out, 3, 1).reshape(t_len, channels, r, s, r, s).mean(axis=(3, 5))


def decode_keypoint_heatmap(heatmap: np.ndarray, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Peak-decode a (J, R, R) heatmap into a pose inside the given box: the
    joint coordinates xy (J, 2) and scores (J,); every joint is present.

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
    return xy, prob


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
