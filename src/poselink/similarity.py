"""Pairwise similarity criteria between detections and cost-matrix construction.

Edge costs are the negated similarity, so minimizing total cost maximizes the
total likelihood that linked detections belong to the same person. Available
criteria:

  bbox_iou        box intersection over union
  pose_pckh       fraction of jointly present joints within a distance
                  threshold proportional to the earlier detection's box
                  diagonal (predictions carry no annotated head box)
  feature_cosine  cosine similarity of appearance embeddings
  combined        weighted mean of the three above; the cosine term is
                  rescaled from [-1, 1] to [0, 1] before mixing, and a
                  zero-weight term is never computed
  external        scores supplied from a side file, e.g. a learned matcher

External score files are a JSON list of
{"frame": int, "prev_index": int, "curr_index": int, "similarity": float},
keyed by the current frame's frame_index and by indices into the candidate
pools handed to build_cost_matrix. curr_index is the detection index in the
current frame. prev_index counts the lookback pool, which holds the most
recent detection of every track seen within the last `lookback` frames:
oldest frame first, then by detection index within a frame. For lookback 1,
prev_index is simply the detection index in the previous frame. Missing
entries default to 0; a repeated key or a non-integer index is an error.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import Detections, _is_real, box_diagonals, read_json

CRITERION_KINDS = ("bbox_iou", "pose_pckh", "feature_cosine", "combined", "external")


@dataclass(frozen=True)
class SimilarityCriterion:
    kind: str = "bbox_iou"
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)  # (iou, pckh, cosine), combined only
    pckh_alpha: float = 0.5
    pckh_norm_scale: float = 0.1
    external_scores: Optional[Mapping[tuple[int, int, int], float]] = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        for name in ("pckh_alpha", "pckh_norm_scale"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not isinstance(self.weights, Sequence) or len(self.weights) != 3:
            raise ValueError(f"weights must hold three values (iou, pckh, cosine), got {self.weights!r}")
        if not all(map(_is_real, self.weights)):
            raise ValueError(f"weights must be real numbers, got {self.weights!r}")
        if not all(map(math.isfinite, self.weights)):
            raise ValueError(f"weights must be finite, got {self.weights!r}")
        if self.kind == "combined":
            if any(w < 0 for w in self.weights):
                raise ValueError("combined weights must be non-negative")
            if sum(self.weights) <= 0:
                raise ValueError("combined weights must sum to a positive value")


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense link costs between two detection sets; cost is minus similarity."""

    similarity: np.ndarray  # shape (rows, cols)

    def __post_init__(self):
        sim = np.asarray(self.similarity, dtype=float)
        if sim.ndim != 2:
            raise ValueError("similarity must be a 2-d matrix")
        if not np.all(np.isfinite(sim)):
            raise ValueError("cost matrix entries must be finite")
        sim.flags.writeable = False
        object.__setattr__(self, "similarity", sim)

    @property
    def cost(self) -> np.ndarray:
        return -self.similarity

    @property
    def rows(self) -> int:
        return self.similarity.shape[0]

    @property
    def cols(self) -> int:
        return self.similarity.shape[1]


def load_external_scores(path: str) -> dict[tuple[int, int, int], float]:
    """Read an external-score file into a lookup keyed (frame, prev, curr).

    frame, prev_index and curr_index must be non-negative integers and
    similarity a finite number; a key may appear once.
    """
    entries = read_json(path)
    if not isinstance(entries, list):
        raise ValueError("external score file must hold a JSON list")
    index_keys = ("frame", "prev_index", "curr_index")
    table = {}
    for n, e in enumerate(entries):
        where = f"external score entry {n}"
        if not isinstance(e, dict) or not {*index_keys, "similarity"} <= e.keys():
            raise ValueError(f"{where}: needs frame, prev_index, curr_index and similarity")
        key = tuple(e[k] for k in index_keys)
        if not all(type(v) is int for v in key):
            raise ValueError(f"{where}: frame, prev_index and curr_index must be integers")
        if min(key) < 0:
            raise ValueError(f"{where}: frame, prev_index and curr_index must be non-negative")
        similarity = e["similarity"]
        try:
            finite = type(similarity) in (int, float) and math.isfinite(similarity)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{where}: similarity must be a finite number")
        if key in table:
            raise ValueError(f"{where}: repeats (frame, prev_index, curr_index) {key}")
        table[key] = float(similarity)
    return table


def _require_features(dets: Detections, side: str) -> None:
    missing = np.flatnonzero(~dets.has_feature)
    if len(missing):
        raise ValueError(
            f"criterion requires a feature vector on every detection; "
            f"{side} detection {missing[0]} has none"
        )


def keypoint_array(dets: Detections) -> np.ndarray:
    """(N, J, 2) joint coordinates of dets; absent joints are NaN.

    Present joints are always finite, so ~isnan(out[..., 0]) is the presence
    mask. Absent joints may hold any coordinates, and NaN keeps them out of
    every comparison.
    """
    return np.where(dets.present[..., None], dets.xy, math.nan)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every box in a (N, 4) against every box in b (M, 4).

    The same float operations in the same order as the scalar reference
    `iou` in tests/helpers.py, so every entry equals it bit for bit, and
    pairwise_iou(b, a) is the transpose of pairwise_iou(a, b) bit for bit.
    The intersection is made +0.0 where np.maximum(0.0, -0.0) kept a -0.0
    (Python's max keeps the 0.0), so no entry is -0.0. Sides beyond about
    1e154 overflow without a warning, as Python floats do; an infinite area
    may then make the union and the entry NaN, as in `iou`. The body is
    _iou_into, on three fresh (N, M) buffers.
    """
    return _iou_into(a, b, _areas(b), *(np.empty((len(a), len(b))) for _ in range(3)))


def _areas(corners: np.ndarray) -> np.ndarray:
    """Box areas over the last axis of [x_min, y_min, x_max, y_max] corners."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (corners[..., 2] - corners[..., 0]) * (corners[..., 3] - corners[..., 1])


def _iou_into(a, b, area_b, out, ih, low) -> np.ndarray:
    """pairwise_iou(a, b) into out, given the areas of b's boxes and two
    scratch buffers of out's shape; returns out."""
    ax0, ay0, ax1, ay1 = a.T[:, :, None]
    bx0, by0, bx1, by1 = b.T[:, None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        inter = np.minimum(ax1, bx1, out=out)
        inter -= np.maximum(ax0, bx0, out=low)  # iw
        np.maximum(0.0, inter, out=inter)
        np.minimum(ay1, by1, out=ih)
        ih -= np.maximum(ay0, by0, out=low)
        inter *= np.maximum(0.0, ih, out=ih)
        inter += 0.0  # -0.0 + 0.0 is +0.0; every other value stays
        union = np.add((ax1 - ax0) * (ay1 - ay0), area_b, out=ih)
        union -= inter
        inter /= union
        np.copyto(inter, 0.0, where=union <= 0.0)
        return inter


_SQUARE_BAND = 1e-9  # relative half-width, around limit**2, of the math.hypot band
_SQUARED_LIMITS = (1e-150, 1e150)  # limits whose squares, band included, are normal floats


def joints_within(a: np.ndarray, b: np.ndarray, limits: Sequence[float] | np.ndarray) -> np.ndarray:
    """(..., N, M, J) mask: joint j is present in a[..., i, :] and b[..., k, :]
    and their distance is at most limits[..., i].

    a (..., N, J, 2) and b (..., M, J, 2) come from keypoint_array, and
    limits has shape (..., N); an optional leading axis batches frames, each
    compared with itself only, with one body for both. The decisions equal
    the scalar test math.hypot(dx, dy) <= limit of the references
    `pckh_correct` and `pose_pckh_similarity` in tests/helpers.py, and are
    made on squares: dx*dx + dy*dy <= limit*limit. Both squares are within
    a few ulps of the exact ones, so a square more than 1e-9 (relative) from
    limit*limit decides as math.hypot does, and every entry inside that band
    is settled with math.hypot. Squaring is safe for a limit in [1e-150,
    1e150]; for any other, where limit*limit may be zero, subnormal or
    overflow, every entry of the row present on both sides is settled with
    math.hypot. Squares of far-apart joints may overflow to inf, which
    decides them correctly, so that overflow raises no warning.
    """
    dx = a[..., :, None, :, 0] - b[..., None, :, :, 0]
    dy = a[..., :, None, :, 1] - b[..., None, :, :, 1]
    lim = np.asarray(limits, dtype=float)
    safe = (lim >= _SQUARED_LIMITS[0]) & (lim <= _SQUARED_LIMITS[1])
    with np.errstate(over="ignore"):
        lim2 = (lim * lim)[..., None, None]
        d2 = dx * dx + dy * dy
    within = d2 < lim2 * (1.0 - _SQUARE_BAND)
    band = (d2 <= lim2 * (1.0 + _SQUARE_BAND)) ^ within
    if not safe.all():
        band[~safe] = ~np.isnan(d2[~safe])  # absent joints are NaN
    if band.any():
        for entry in map(tuple, np.argwhere(band).tolist()):
            within[entry] = math.hypot(dx[entry], dy[entry]) <= lim[entry[:-2]]
    return within


def pairwise_pckh(prev: Detections, curr: Detections, alpha: float, norm_scale: float) -> np.ndarray:
    """The scalar reference `pose_pckh_similarity` of tests/helpers.py, bit
    for bit, of every prev x curr pair of non-empty sides."""
    limits = [alpha * norm_scale * diagonal for diagonal in box_diagonals(prev.boxes)]
    within = joints_within(keypoint_array(prev), keypoint_array(curr), limits)
    shared = prev.present.astype(float) @ curr.present.T.astype(float)  # exact counts
    correct = np.count_nonzero(within, axis=2)
    return np.where(shared > 0, correct / np.maximum(shared, 1), 0.0)


def pairwise_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of every row of a (N, D) against every row of b (M, D).

    The sums run in another order than in the scalar reference
    `feature_cosine` in tests/helpers.py, so entries agree with it to within
    1e-12; a pair with a zero-norm vector is 0, with the same warning.
    Features so large that the products overflow give inf or NaN entries,
    without a numpy warning.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dimension mismatch: {a.shape[1:]} vs {b.shape[1:]}")
    with np.errstate(over="ignore", invalid="ignore"):
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        zero = (na == 0.0)[:, None] | (nb == 0.0)[None, :]
        if zero.any():
            warnings.warn("zero-norm feature vector; cosine similarity set to 0")
        denom = np.where(zero, 1.0, na[:, None] * nb[None, :])
        return np.where(zero, 0.0, (a @ b.T) / denom)


def _kernel(prev: Detections, curr: Detections, key, kernels: Optional[dict]) -> np.ndarray:
    """The kernel matrix named by key: "iou", ("pckh", alpha, norm_scale) or
    "cos". One that kernels holds is returned, and one computed is stored there."""
    if kernels is not None and key in kernels:
        return kernels[key]
    if key == "iou":
        matrix = pairwise_iou(prev.boxes, curr.boxes)
    elif key == "cos":
        matrix = pairwise_cosine(prev.features, curr.features)
    else:
        matrix = pairwise_pckh(prev, curr, *key[1:])
    if kernels is not None:
        kernels[key] = matrix
    return matrix


def build_cost_matrix(
    prev: Detections,
    curr: Detections,
    criterion: SimilarityCriterion,
    frame_index: Optional[int] = None,
    kernels: Optional[dict] = None,
) -> CostMatrix:
    """Similarity (and negated cost) for every prev x curr pair.

    frame_index keys the lookup for the external criterion and is ignored
    otherwise. Each criterion is one array kernel over the sides' columns.

    kernels, when given, holds the kernel matrices of this one pair of sides
    for every call over them, whatever its criterion: "iou", the IoU matrix,
    ("pckh", alpha, norm_scale), the PCKh matrix at those settings, and "cos",
    the cosine matrix. A matrix it holds is read, one it lacks is computed and
    stored, so each is computed once. The caller keeps one such mapping per
    pair of sides (`linking.KernelMemo` keys them on the frame and the rows of
    its candidate pool). External scores and empty sides are never stored;
    the feature check runs on every call, and the zero-norm warning only
    when the cosine is computed.
    """
    rows, cols = len(prev), len(curr)
    kind = criterion.kind

    if kind == "external":
        if criterion.external_scores is None:
            raise ValueError("external criterion requires a score table")
        if frame_index is None:
            raise ValueError("external criterion requires the current frame_index")
        table = criterion.external_scores
        sim = np.zeros((rows, cols), dtype=float)
        for i in range(rows):
            for j in range(cols):
                sim[i, j] = table.get((frame_index, i, j), 0.0)
        return CostMatrix(sim)
    if rows == 0 or cols == 0:
        return CostMatrix(np.zeros((rows, cols), dtype=float))

    pckh = ("pckh", criterion.pckh_alpha, criterion.pckh_norm_scale)
    if kind == "bbox_iou":
        return CostMatrix(_kernel(prev, curr, "iou", kernels))
    if kind == "pose_pckh":
        return CostMatrix(_kernel(prev, curr, pckh, kernels))
    if kind == "feature_cosine":
        _require_features(prev, "previous")
        _require_features(curr, "current")
        return CostMatrix(_kernel(prev, curr, "cos", kernels))

    # combined, summed in the scalar order: s = 0.0, s += w * term, s / total
    w_iou, w_pckh, w_cos = criterion.weights
    sim = np.zeros((rows, cols), dtype=float)
    if w_iou > 0:
        sim += w_iou * _kernel(prev, curr, "iou", kernels)
    if w_pckh > 0:
        sim += w_pckh * _kernel(prev, curr, pckh, kernels)
    if w_cos > 0:
        _require_features(prev, "previous")
        _require_features(curr, "current")
        cosine = _kernel(prev, curr, "cos", kernels)
        sim += w_cos * 0.5 * (cosine + 1.0)
    return CostMatrix(sim / (w_iou + w_pckh + w_cos))
