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

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .model import Box, Detections, Pose, box_diagonals

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


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 when the union has zero area."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def pose_pckh_similarity(
    a: Pose, b: Pose, a_box: Box, alpha: float = 0.5, norm_scale: float = 0.1
) -> float:
    """Fraction of jointly present joints within alpha * (norm_scale * diag of a_box),
    where a_box is the box of the detection that pose a belongs to.

    Returns 0 when the poses share no present joints.
    """
    threshold = alpha * norm_scale * a_box.diagonal
    shared = 0
    correct = 0
    for (xa, ya), (xb, yb), present_a, present_b in zip(
        a.xy.tolist(), b.xy.tolist(), a.present.tolist(), b.present.tolist()
    ):
        if not (present_a and present_b):
            continue
        shared += 1
        if math.hypot(xa - xb, ya - yb) <= threshold:
            correct += 1
    if shared == 0:
        return 0.0
    return correct / shared


def feature_cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity in [-1, 1]; a zero vector yields 0 with a warning."""
    va = np.asarray(a, dtype=float)
    vb = np.asarray(b, dtype=float)
    if va.shape != vb.shape:
        raise ValueError(f"feature dimension mismatch: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        warnings.warn("zero-norm feature vector; cosine similarity set to 0")
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


def load_external_scores(path: str) -> dict[tuple[int, int, int], float]:
    """Read an external-score file into a lookup keyed (frame, prev, curr).

    frame, prev_index and curr_index must be integers and similarity a finite
    number; a key may appear once.
    """
    with open(path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
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

    The same float operations in the same order as `iou`, so every entry
    equals the scalar value bit for bit.
    """
    a = a[:, None, :]
    b = b[None, :, :]
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(0.0, iw) * np.maximum(0.0, ih)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    positive = union > 0.0
    return np.where(positive, inter / np.where(positive, union, 1.0), 0.0)


def joints_within(a: np.ndarray, b: np.ndarray, limits: Sequence[float]) -> np.ndarray:
    """(N, M, J) mask: joint j is present in a[i] and b[k] and their distance
    is at most limits[i].

    a (N, J, 2) and b (M, J, 2) come from keypoint_array. The decisions equal
    the scalar test math.hypot(dx, dy) <= limit: np.hypot may round the last
    bit differently, so distances that close to their limit are settled with
    math.hypot.
    """
    dx = a[:, None, :, 0] - b[None, :, :, 0]
    dy = a[:, None, :, 1] - b[None, :, :, 1]
    lim = np.asarray(limits, dtype=float)[:, None, None]
    dist = np.hypot(dx, dy)
    within = dist <= lim
    for i, k, j in np.argwhere(np.abs(dist - lim) <= 1e-12 * np.abs(lim)):
        within[i, k, j] = math.hypot(dx[i, k, j], dy[i, k, j]) <= limits[i]
    return within


def pairwise_pckh(prev: Detections, curr: Detections, alpha: float, norm_scale: float) -> np.ndarray:
    """`pose_pckh_similarity` of every prev x curr pair of non-empty sides."""
    limits = [alpha * norm_scale * diagonal for diagonal in box_diagonals(prev.boxes)]
    within = joints_within(keypoint_array(prev), keypoint_array(curr), limits)
    shared = (prev.present[:, None, :] & curr.present[None, :, :]).sum(axis=2)
    correct = within.sum(axis=2)
    return np.where(shared > 0, correct / np.maximum(shared, 1), 0.0)


def pairwise_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`feature_cosine` of every row of a (N, D) against every row of b (M, D).

    The sums run in another order, so entries agree with the scalar function
    to within 1e-12; a pair with a zero-norm vector is 0, with the same warning.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dimension mismatch: {a.shape[1:]} vs {b.shape[1:]}")
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    zero = (na == 0.0)[:, None] | (nb == 0.0)[None, :]
    if zero.any():
        warnings.warn("zero-norm feature vector; cosine similarity set to 0")
    denom = np.where(zero, 1.0, na[:, None] * nb[None, :])
    return np.where(zero, 0.0, (a @ b.T) / denom)


def build_cost_matrix(
    prev: Detections,
    curr: Detections,
    criterion: SimilarityCriterion,
    frame_index: Optional[int] = None,
) -> CostMatrix:
    """Similarity (and negated cost) for every prev x curr pair.

    frame_index keys the lookup for the external criterion and is ignored
    otherwise. Each criterion is one array kernel over the sides' columns.
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

    alpha, norm_scale = criterion.pckh_alpha, criterion.pckh_norm_scale
    if kind == "bbox_iou":
        return CostMatrix(pairwise_iou(prev.boxes, curr.boxes))
    if kind == "pose_pckh":
        return CostMatrix(pairwise_pckh(prev, curr, alpha, norm_scale))
    if kind == "feature_cosine":
        _require_features(prev, "previous")
        _require_features(curr, "current")
        return CostMatrix(pairwise_cosine(prev.features, curr.features))

    # combined, summed in the scalar order: s = 0.0, s += w * term, s / total
    w_iou, w_pckh, w_cos = criterion.weights
    sim = np.zeros((rows, cols), dtype=float)
    if w_iou > 0:
        sim += w_iou * pairwise_iou(prev.boxes, curr.boxes)
    if w_pckh > 0:
        sim += w_pckh * pairwise_pckh(prev, curr, alpha, norm_scale)
    if w_cos > 0:
        _require_features(prev, "previous")
        _require_features(curr, "current")
        cosine = pairwise_cosine(prev.features, curr.features)
        sim += w_cos * 0.5 * (cosine + 1.0)
    return CostMatrix(sim / (w_iou + w_pckh + w_cos))
