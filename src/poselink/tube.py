"""Geometry kernels for clip-level person tubes.

A tube is a sequence of T boxes, one per clip frame, following one person.
Tube anchors replicate a canonical box (scale x aspect, centered on a feature
cell) across the clip, and targets are regressed as a 4T vector of per-frame
deltas, ordered frame-major as (tx, ty, tw, th):

    tx = (x - xa) / wa      tw = log(w / wa)
    ty = (y - ya) / ha      th = log(h / ha)

The anchors of one image are one (A, 4) corner array with their clip length
(TubeAnchors), and assignment computes all anchor x ground-truth overlaps at
once (pairwise_tube_overlap), each overlap the mean per-frame IoU and equal
to the scalar reference tube_overlap in tests/helpers.py bit for bit. The
overlaps are one (G, A) array of zeros, in which each tube computes only the
anchors that can meet the box spanning its frames; assign_anchors takes each
anchor's best tube by a running comparison over its G rows. The loss works
on the two logit columns.

Region features are pulled from a T x C x H x W volume by RoIAlign on every
temporal slice with that frame's box. The volume keeps its cells channels
last, so all T slices and bilinear corners are one gather of C-channel rows.
Sampling uses the half-pixel convention (the feature cell (r, c) center sits
at continuous (c + 0.5, r + 0.5)) with zero padding outside the grid.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import Box, _check_int, _is_real
from .similarity import _areas, _iou_into

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
        _check_int("anchor length", self.length, below="anchor length must be >= 1")
        if self.base.width <= 0 or self.base.height <= 0:
            raise ValueError("anchor box must have positive width and height")


@dataclass(frozen=True, eq=False)
class TubeAnchors(Sequence):
    """Anchors of one clip length as a read-only (A, 4) corner array.

    Rows are [x_min, y_min, x_max, y_max], held in Fortran order, so that
    each corner of all anchors is one contiguous column. Indexing (numpy
    integers too) and iteration build TubeAnchor views on demand; the checks
    are TubeAnchor's, run once over the whole array.
    """

    corners: np.ndarray
    length: int

    def __post_init__(self):
        arr = np.array(self.corners, dtype=float, order="F")
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError("anchor corners must have shape (A, 4)")
        if not np.isfinite(arr).all():
            raise ValueError("box coordinate is not finite")
        _check_int("anchor length", self.length, below="anchor length must be >= 1")
        with np.errstate(over="ignore"):  # a side of a huge box may overflow to inf, still positive
            positive = ((arr[:, 2] - arr[:, 0] > 0) & (arr[:, 3] - arr[:, 1] > 0)).all()
        if not positive:
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


@dataclass(frozen=True, eq=False)
class FeatureVolume:
    """A (T, C, H, W) feature volume and the stride of its cells in pixels.

    The cells are copied once, channels last, into a read-only (T, H, W, C)
    buffer, so that RoIAlign reads a sample's C channels as one row; data is
    the (T, C, H, W) view of that buffer.
    """

    data: np.ndarray  # (T, C, H, W)
    stride: int = 8

    def __post_init__(self):
        _check_int("stride", self.stride)
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 4:
            raise ValueError("feature volume must have shape (T, C, H, W)")
        cells = arr.transpose(0, 2, 3, 1).copy()
        if not np.all(np.isfinite(cells)):
            raise ValueError("feature volume entries must be finite")
        cells.flags.writeable = False
        object.__setattr__(self, "data", cells.transpose(0, 3, 1, 2))


@dataclass(frozen=True)
class AnchorGrid:
    scales: tuple[float, ...]
    aspects: tuple[float, ...]
    stride: int = 8

    def __post_init__(self):
        if not self.scales or not self.aspects:
            raise ValueError("anchor grid needs at least one scale and one aspect")
        _check_int("stride", self.stride)
        for name in ("scales", "aspects"):
            values = getattr(self, name)
            if not all(_is_real(v) and 0 < v < math.inf for v in values):
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
    _check_int("image_w", image_w, 0)
    _check_int("image_h", image_h, 0)
    cx = (np.arange(math.ceil(image_w / grid.stride)) + 0.5) * grid.stride
    cy = (np.arange(math.ceil(image_h / grid.stride)) + 0.5) * grid.stride
    root = np.sqrt(np.array(grid.aspects, dtype=float))
    scales = np.array(grid.scales, dtype=float)[:, None]
    with np.errstate(over="ignore"):  # an infinite size fails TubeAnchors' check
        half_w = scales * root / 2  # (scale, aspect)
        half_h = scales / root / 2
    cx = cx[None, :, None, None]  # (row, column, scale, aspect)
    cy = cy[:, None, None, None]
    corners = np.empty((4, cy.shape[0], cx.shape[1]) + half_w.shape)
    corners[0] = cx - half_w
    corners[1] = cy - half_h
    corners[2] = cx + half_w
    corners[3] = cy + half_h
    return TubeAnchors(corners.reshape(4, -1).T, length)


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


def pairwise_tube_overlap(anchors: TubeAnchors, gt_tubes: Sequence[Tube]) -> np.ndarray:
    """(A, G) tube overlap of every anchor with every ground-truth tube.

    The float operations of the scalar reference tube_overlap in
    tests/helpers.py in the same order (per-frame IoU, summed in frame order
    from 0.0, divided by T), so every entry equals tube_overlap of the
    anchor's box replicated over T frames and gt, bit for bit. Only the pairs
    that can meet are computed: for each tube, the anchors whose box overlaps,
    with positive width and height, the box spanning the tube's frames. Every
    other anchor lies clear of the tube, or touches it, along x or y in every
    frame, so each IoU is 0.0 and so is the overlap, the value the array
    starts at. That needs every side and area of the tube's frames to be
    finite, since an intersection can be no larger than the frame: a frame of
    width 0 and infinite height has a NaN area, and an intersection of width
    0 and infinite height is 0 * inf, NaN. Such a tube meets every anchor.
    The result is the (A, G) transpose of a (G, A) array, a view.
    """
    length = anchors.length
    for gt in gt_tubes:
        if gt.length != length:
            raise ValueError(f"tube lengths differ: {length} vs {gt.length}")
    total = np.zeros((len(gt_tubes), len(anchors)))
    x0, y0, x1, y1 = columns = anchors.corners.T  # contiguous rows
    for row, gt in zip(total, gt_tubes):
        frames = _corners(gt.boxes)
        (lo_x, lo_y), (hi_x, hi_y) = frames[:, :2].min(axis=0), frames[:, 2:].max(axis=0)
        if np.isfinite(_areas(frames)).all():
            meet = np.flatnonzero((x0 < hi_x) & (x1 > lo_x) & (y0 < hi_y) & (y1 > lo_y))
        else:
            meet = np.arange(len(anchors))
        box, sums, scratch = columns.take(meet, axis=1).T, np.zeros(len(meet)), np.empty((3, 1, len(meet)))
        area = _areas(box)
        for frame in frames:
            sums += _iou_into(frame[None], box, area, *scratch)[0]
        sums /= length
        row[meet] = sums
    return total.T


def assign_anchors(
    anchors: TubeAnchors,
    gt_tubes: Sequence[Tube],
    fg_thresh: float = 0.7,
    bg_thresh: float = 0.3,
) -> np.ndarray:
    """Foreground/background/ignore labels per anchor.

    Returns an int array: a matched ground-truth index for foreground, else
    LABEL_BG or LABEL_IGNORE. Anchors at or above fg_thresh overlap are
    foreground for their best tube (ties to the lowest tube index), at or
    below bg_thresh background, in between ignored. The best-overlapping
    anchor of each ground-truth tube is forced foreground (ties to the lowest
    anchor index) as long as its overlap is positive. A NaN overlap, from
    areas that overflow, wins every max and argmax: its anchor is background
    and its tube forces nothing.
    """
    if not (0.0 <= bg_thresh < fg_thresh <= 1.0):
        raise ValueError("thresholds must satisfy 0 <= bg < fg <= 1")
    n = len(anchors)
    labels = np.full(n, LABEL_BG, dtype=int)
    if not gt_tubes or n == 0:
        return labels
    overlaps = pairwise_tube_overlap(anchors, gt_tubes).T  # (G, A) rows
    best, best_gt = _best_rows(overlaps)
    labels[(best > bg_thresh) & (best < fg_thresh)] = LABEL_IGNORE
    fg = best >= fg_thresh
    labels[fg] = best_gt[fg]
    for k in range(len(gt_tubes)):
        i = int(overlaps[k].argmax())
        if overlaps[k, i] > 0:
            labels[i] = k
    return labels


def _best_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max and argmax over axis 0, one row at a time; as in argmax, ties go low and NaN wins."""
    best, best_row = rows[0].copy(), np.zeros(rows.shape[1], dtype=np.intp)
    for k, row in enumerate(rows[1:], 1):
        wins = ~(row <= best) & (best == best)  # greater, or NaN over a number
        best_row[wins], best[wins] = k, row[wins]
    return best, best_row


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
    labels = np.asarray(cls_labels)
    _check_int("length", length, below=f"length must be >= 1, got {length!r}")
    if labels.ndim != 1 or not (labels.dtype.kind in "iu" or labels.size == 0):  # [] reads as floats
        raise ValueError("cls_labels must be a 1-D integer array")
    if labels.size and labels.min() < LABEL_IGNORE:
        raise ValueError(f"cls_labels must be LABEL_IGNORE (-2), LABEL_BG (-1) or a tube index >= 0, "
                         f"got {labels.min()}")
    if pred.ndim != 2 or pred.shape != target.shape or pred.shape[1] != 4 * length:
        raise ValueError("delta arrays must both have shape (N, 4T)")
    if logits.shape != (labels.shape[0], 2) or pred.shape[0] != labels.shape[0]:
        raise ValueError("logit/label shapes inconsistent with anchor count")
    with np.errstate(over="ignore", invalid="ignore"):
        for name, arr in (("pred_deltas", pred), ("target_deltas", target), ("cls_logits", logits)):
            # a NaN or infinite entry makes the sum non-finite; the mask is built only to tell
            # such an entry from a sum of finite entries that overflows
            if not (np.isfinite(arr.sum()) or np.isfinite(arr).all()):
                raise ValueError(f"{name} has a non-finite entry")

    keep = labels != LABEL_IGNORE
    fg = labels >= 0
    if np.any(keep):  # log-softmax on the two logit columns, shifted by their maximum
        top = np.maximum(logits[:, 0], logits[:, 1])
        bg_shift, fg_shift = logits[:, 0] - top, np.subtract(logits[:, 1], top, out=top)
        logprob = np.where(fg, fg_shift, bg_shift)
        logprob -= np.log(np.exp(bg_shift, out=bg_shift) + np.exp(fg_shift, out=fg_shift))
        cls_loss = float(-logprob[keep].mean())
    else:
        cls_loss = 0.0

    rows = np.flatnonzero(fg)
    if len(rows):
        reg_loss = float(smooth_l1(pred[rows] - target[rows]).sum() / len(rows) / length)
    else:
        reg_loss = 0.0
    return cls_loss, reg_loss


def _bilinear_taps(lo: np.ndarray, hi: np.ndarray, n: int, size: np.ndarray) -> tuple:
    """The two bilinear taps of n samples spread evenly over each row's
    [lo, hi] (K, T, 1), in cell units, along K feature axes of size (K, 1, 1).

    Returns (index, weight), each (2, K, T, n), the lower neighbour first:
    indices clamped into [0, size), weights zeroed where the neighbour lies
    outside the grid. Sample points are clamped to [-2, size + 1] first,
    where both neighbours are already outside, so far-away boxes floor small.
    """
    p = np.minimum(np.maximum(lo + (np.arange(n) + 0.5) * (hi - lo) / n - 0.5, -2.0), size + 1.0)
    p0 = np.floor(p)
    frac = p - p0
    i = p0.astype(int) + np.arange(2)[:, None, None, None]
    weight = np.stack((1 - frac, frac))
    return np.minimum(np.maximum(i, 0), size - 1), np.where((i >= 0) & (i < size), weight, 0.0)


def spatiotemporal_roi_align(
    vol: FeatureVolume,
    tube: Tube,
    resolution: int,
    samples_per_bin: int = 2,
) -> np.ndarray:
    """RoIAlign every frame of the volume with that frame's box of the tube.

    Boxes are given in image coordinates and divided by the volume stride.
    Each of the resolution x resolution bins averages samples_per_bin**2
    bilinear samples; points outside the feature extent read as zero. The
    four bilinear corners of every sample of all T frames are gathered from
    the channels-last cells as rows of C channels, weighted and summed in
    the corner order 00, 01, 10, 11. Each bin then adds its samples in
    row-major order from 0.0 and divides once, so every output equals 2D
    RoIAlign of its frame alone bit for bit. Returns an array of shape
    (T, C, resolution, resolution).
    """
    _check_int("output resolution", resolution, below="output resolution must be positive")
    _check_int("samples_per_bin", samples_per_bin, below="samples_per_bin must be positive")
    t_len, channels, h, w = vol.data.shape
    if tube.length != t_len:
        raise ValueError(f"tube length {tube.length} != volume length {t_len}")

    r, s = resolution, samples_per_bin
    lo, hi = (_corners(tube.boxes) / vol.stride).T.reshape(2, 2, t_len, 1)[:, ::-1]  # rows y, x
    index, weight = _bilinear_taps(lo, hi, r * s, np.array([h, w])[:, None, None])
    # the flat (t, y, x) cell of each corner, (row tap, column tap, T, r*s, r*s)
    rows = (np.arange(t_len)[:, None] * h + index[:, 0]) * w
    cells = rows[:, None, :, :, None] + index[None, :, 1, :, None, :]
    vals = vol.data.transpose(0, 2, 3, 1).reshape(-1, channels).take(cells, axis=0)
    vals *= (weight[:, None, 0, :, :, None] * weight[None, :, 1, :, None, :])[..., None]
    samples = np.add.reduce(vals.reshape((4,) + vals.shape[2:]), axis=0).reshape(t_len, r, s, r, s, channels)
    bins = np.zeros((t_len, r, r, channels))
    for i in range(s):
        for j in range(s):
            bins += samples[:, :, i, :, j]
    bins /= s * s
    return np.ascontiguousarray(bins.transpose(0, 3, 1, 2))


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
    _check_int("temporal extent", k_t, below="temporal extent must be >= 1")
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
