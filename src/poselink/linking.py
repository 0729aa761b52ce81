"""Bipartite matching of detections across frames and track-id propagation.

`link_frame_pair` links each detection of a frame to a row of the candidate
pool, or to none: a link needs similarity strictly above `min_similarity`.
The pool holds the most recent detection of every track seen within the last
`lookback` frames, oldest frame first, then by detection index.
`track_video_with_stats` runs the step once per frame, on the sequence's
frame views, and owns the ids: a linked detection inherits its row's track id
and the others start new tracks, numbered in detection order; they are written
as one id column. It keeps one (frame position, detection index, track id)
row per pool detection in a list. The whole pass is deterministic,
including the random-id baseline under a fixed seed.

Passes over one sequence with other configurations (the rows of a sweep) can
share a `KernelMemo`, so that each frame pair's IoU, PCKh and cosine matrices
are computed once. Its entries are keyed on the current frame's position and
the (frame position, detection index) of every candidate-pool row, so two
passes share an entry exactly when their pools hold the same detections,
whatever their algorithm, criterion or lookback. A memo is bound to the one
`VideoSequence` it was made for, since the key names no detection values;
passing it with another sequence is an error.

`linear_sum_assignment` is the package's one call into scipy's solver, for
`hungarian_assign` and `metrics.match_poses_frame`, which
`metrics.match_sequence` runs on each labeled frame's view of its block's
correct-joint counts. It imports scipy.optimize at its first call, so
importing poselink loads numpy only: scipy.optimize adds about 0.45 s and
47 MB, which the tube kernels, the loader and synth never need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import NO_DETECTIONS, Detections, VideoSequence, _INT64_MAX, _check_int, _is_real
from .similarity import CostMatrix, SimilarityCriterion, build_cost_matrix

ALGORITHMS = ("hungarian", "greedy", "random")


@dataclass(frozen=True)
class Assignment:
    """Row/col index pairs of a one-to-one matching plus its summed cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


@dataclass(frozen=True)
class LinkerConfig:
    algorithm: str = "hungarian"
    criterion: SimilarityCriterion = SimilarityCriterion()
    min_similarity: float = 0.0  # exclusive: a link needs similarity > this
    lookback: int = 1
    random_max_id: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        _check_int("lookback", self.lookback, below="lookback must be >= 1")
        if not _is_real(self.min_similarity):
            raise ValueError(f"min_similarity must be a real number, got {self.min_similarity!r}")
        if np.isnan(self.min_similarity):
            raise ValueError(f"min_similarity must not be NaN, got {self.min_similarity!r}")
        for name in ("random_max_id", "rng_seed"):
            value = getattr(self, name)
            _check_int(name, value, 0, below=f"{name} must be non-negative, got {value!r}")
        if int(self.random_max_id) > _INT64_MAX:
            raise ValueError(f"random_max_id must be <= {_INT64_MAX}, got {self.random_max_id!r}")


@dataclass(frozen=True)
class TrackStats:
    """Per-video totals logged while tracking."""

    frames: int
    total_assignment_cost: float
    links: int
    new_tracks: int


class KernelMemo:
    """The kernel matrices of one sequence's frame pairs, for track passes to share.

    `entry` gives the mapping that `build_cost_matrix` reads and fills (see
    its `kernels` argument) for the frame at position pos and the candidate
    pool whose rows are the detections at the (frame position, detection
    index) pairs of pool, in order. Drop the memo when the passes are done.
    """

    def __init__(self, seq: VideoSequence):
        self.seq = seq
        self._entries: dict = {}

    def entry(self, pos: int, pool: list[tuple[int, int]]) -> dict:
        return self._entries.setdefault((pos, tuple(pool)), {})


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.optimize.linear_sum_assignment of cost, its result unchanged."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def hungarian_assign(cost: CostMatrix) -> Assignment:
    """Exact minimum-total-cost assignment of min(rows, cols) pairs."""
    costs = cost.cost
    rows, cols = linear_sum_assignment(costs)
    return Assignment(tuple(zip(rows.tolist(), cols.tolist())), float(costs[rows, cols].sum()))


def greedy_assign(cost: CostMatrix) -> Assignment:
    """Repeatedly take the lowest-cost remaining edge and retire its endpoints.

    Ties break toward the lexicographically smallest (row, col): one stable
    sort of the row-major costs gives the order, and the walk along it takes
    every edge whose row and column are both free until min(rows, cols) are
    taken. total_cost sums the taken costs in that order.
    """
    if cost.rows == 0 or cost.cols == 0:
        return Assignment((), 0.0)
    costs = cost.cost
    order = np.argsort(costs, axis=None, kind="stable")  # row-major indices
    n_pairs = min(cost.rows, cost.cols)
    row_free, col_free = [True] * cost.rows, [True] * cost.cols
    pairs = []
    for i, j in zip(*(index.tolist() for index in np.divmod(order, cost.cols))):
        if row_free[i] and col_free[j]:
            row_free[i] = col_free[j] = False
            pairs.append((i, j))
            if len(pairs) == n_pairs:
                break
    total = 0.0
    for value in costs[tuple(zip(*pairs))].tolist():
        total += value
    return Assignment(tuple(pairs), total)


def _assign(cost: CostMatrix, algorithm: str) -> Assignment:
    if algorithm == "hungarian":
        return hungarian_assign(cost)
    if algorithm == "greedy":
        return greedy_assign(cost)
    raise ValueError(f"algorithm {algorithm!r} cannot assign a single frame pair")


def link_frame_pair(
    prev: Detections,
    curr: Detections,
    cfg: LinkerConfig,
    frame_index: Optional[int] = None,
    kernels: Optional[dict] = None,
) -> tuple[np.ndarray, float]:
    """Link each detection of curr to a row of prev, or to none.

    kernels is this frame pair's `KernelMemo` entry, passed on to
    `build_cost_matrix`. Returns (parent, summed cost of the frame's
    assignment): parent[j] is the row of prev that detection j links to, or
    -1. A detection links to the row it is assigned when their similarity is
    strictly above cfg.min_similarity. Track ids are neither read nor written.

    Ties are settled by order: among assignments of equal total, scipy's
    solver decides for hungarian and the lowest (row, col) wins for greedy.
    Where similarities tie, as PCKh ratios often do, reordering detections
    may change the links and the tracked partition, not the hungarian total.
    """
    cost = build_cost_matrix(prev, curr, cfg.criterion, frame_index=frame_index, kernels=kernels)
    assignment = _assign(cost, cfg.algorithm)
    parent = [-1] * len(curr)
    for i, j in assignment.pairs:
        if cost.similarity[i, j] > cfg.min_similarity:
            parent[j] = i
    return np.array(parent, dtype=int), assignment.total_cost


def track_video(seq: VideoSequence, cfg: LinkerConfig) -> VideoSequence:
    """Assign a track id to every detection in the video."""
    return track_video_with_stats(seq, cfg)[0]


def track_video_with_stats(
    seq: VideoSequence, cfg: LinkerConfig, memo: Optional[KernelMemo] = None
) -> tuple[VideoSequence, TrackStats]:
    """Like track_video, also returning assignment-cost and track-count totals.

    memo, a `KernelMemo` made for seq, shares kernel matrices with the other
    passes over seq that are given it.
    """
    if memo is not None and memo.seq is not seq:
        raise ValueError("kernel memo was made for another sequence")
    if cfg.algorithm == "random":
        return _track_random(seq, cfg)

    next_id = 0
    total_cost = 0.0
    links = 0
    # the candidate pool: the latest detection of every live track, oldest
    # frame first, then by detection index; rows holds each row's (frame
    # position, detection index in that frame, track id)
    pool, rows = NO_DETECTIONS, []
    track_ids = []  # of every row of the sequence
    for pos, frame in enumerate(seq.frames):
        dets = frame.detections
        kernels = None if memo is None else memo.entry(pos, [row[:2] for row in rows])
        parent, cost = link_frame_pair(pool, dets, cfg, frame_index=frame.frame_index, kernels=kernels)
        total_cost += cost
        ids, linked = [], set()
        for row in parent.tolist():
            if row < 0:  # a new track, numbered in detection order
                ids.append(next_id)
                next_id += 1
            else:
                ids.append(rows[row][2])
                linked.add(row)
        links += len(linked)
        track_ids += ids
        # a row stays while no detection linked to it and it is within the next frame's lookback
        stays = [i for i, row in enumerate(rows) if i not in linked and row[0] > pos - cfg.lookback]
        pool = Detections.concat([pool.take(stays), dets]) if stays else dets
        rows = [rows[i] for i in stays] + [(pos, j, tid) for j, tid in enumerate(ids)]

    tracked = replace(seq, detections=replace(seq.detections, track_ids=tuple(track_ids)))
    return tracked, TrackStats(len(seq.frame_indices), total_cost, links, next_id)


def _track_random(seq: VideoSequence, cfg: LinkerConfig) -> tuple[VideoSequence, TrackStats]:
    # baseline mode: ids drawn uniformly from [0, random_max_id], matching ignored
    rng = np.random.default_rng(cfg.rng_seed)
    n = len(seq.detections)
    ids = [int(rng.integers(0, cfg.random_max_id + 1)) for _ in range(n)]
    stats = TrackStats(frames=len(seq.frame_indices), total_assignment_cost=0.0, links=0, new_tracks=n)
    return replace(seq, detections=replace(seq.detections, track_ids=tuple(ids))), stats
