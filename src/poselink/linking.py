"""Bipartite matching of detections across frames and track-id propagation.

Tracks are initialized on the first frame and labels are carried forward one
frame at a time. Frame t is matched against a candidate pool holding one
representative per live track: the most recent detection of every track seen
within the last `lookback` frames (lookback 1 is plain adjacent-frame
matching). Matched detections inherit the track id when their similarity
strictly exceeds `min_similarity`; everything else starts a new track, with
fresh ids handed out in detection order. The whole pass is deterministic,
including the random-id baseline mode under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import Detection, VideoSequence
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
        if self.lookback < 1:
            raise ValueError("lookback must be >= 1")


@dataclass(frozen=True)
class TrackStats:
    """Per-video totals logged while tracking."""

    frames: int
    total_assignment_cost: float
    links: int
    new_tracks: int


def hungarian_assign(cost: CostMatrix) -> Assignment:
    """Exact minimum-total-cost assignment of min(rows, cols) pairs."""
    if cost.rows == 0 or cost.cols == 0:
        return Assignment((), 0.0)
    rows, cols = linear_sum_assignment(cost.cost)
    pairs = tuple(zip(rows.tolist(), cols.tolist()))
    total = float(cost.cost[rows, cols].sum())
    return Assignment(pairs, total)


def greedy_assign(cost: CostMatrix) -> Assignment:
    """Repeatedly take the lowest-cost remaining edge and retire its endpoints.

    Ties break toward the lexicographically smallest (row, col).
    """
    if cost.rows == 0 or cost.cols == 0:
        return Assignment((), 0.0)
    work = cost.cost.copy()
    n_pairs = min(cost.rows, cost.cols)
    pairs = []
    total = 0.0
    for _ in range(n_pairs):
        flat = int(np.argmin(work))  # first minimum in row-major order
        i, j = divmod(flat, cost.cols)
        pairs.append((i, j))
        total += float(cost.cost[i, j])
        work[i, :] = np.inf
        work[:, j] = np.inf
    return Assignment(tuple(pairs), total)


def _assign(cost: CostMatrix, algorithm: str) -> Assignment:
    if algorithm == "hungarian":
        return hungarian_assign(cost)
    if algorithm == "greedy":
        return greedy_assign(cost)
    raise ValueError(f"algorithm {algorithm!r} cannot assign a single frame pair")


def link_frame_pair(
    prev: Sequence[Detection],
    curr: Sequence[Detection],
    cfg: LinkerConfig,
    next_id: int,
    frame_index: Optional[int] = None,
) -> tuple[tuple[Detection, ...], int, float]:
    """Propagate track ids from prev onto curr and mint ids for the rest.

    Returns (curr with every detection carrying a track id, next unused id,
    summed cost of the frame's assignment).
    """
    for i, det in enumerate(prev):
        if det.track_id is None:
            raise ValueError(f"previous detection {i} carries no track_id")

    cost = build_cost_matrix(prev, curr, cfg.criterion, frame_index=frame_index)
    assignment = _assign(cost, cfg.algorithm)

    inherited: dict[int, int] = {}
    for i, j in assignment.pairs:
        if cost.similarity[i, j] > cfg.min_similarity:
            inherited[j] = prev[i].track_id

    out = []
    for j, det in enumerate(curr):
        if j in inherited:
            out.append(det.with_track_id(inherited[j]))
        else:
            out.append(det.with_track_id(next_id))
            next_id += 1
    return tuple(out), next_id, assignment.total_cost


def track_video(seq: VideoSequence, cfg: LinkerConfig) -> VideoSequence:
    """Assign a track id to every detection in the video."""
    return track_video_with_stats(seq, cfg)[0]


def track_video_with_stats(seq: VideoSequence, cfg: LinkerConfig) -> tuple[VideoSequence, TrackStats]:
    """Like track_video, also returning assignment-cost and track-count totals."""
    if cfg.algorithm == "random":
        return _track_random(seq, cfg)

    next_id = 0
    total_cost = 0.0
    links = 0
    # track_id -> (position in frames list, detection index there, detection)
    pool: dict[int, tuple[int, int, Detection]] = {}
    out_frames = []
    for pos, frame in enumerate(seq.frames):
        pool = {tid: rep for tid, rep in pool.items() if pos - rep[0] <= cfg.lookback}
        reps = sorted(pool.values(), key=lambda rep: (rep[0], rep[1]))
        prev = [rep[2] for rep in reps]

        minted_from = next_id
        linked, next_id, cost = link_frame_pair(
            prev, frame.detections, cfg, next_id, frame_index=frame.frame_index
        )
        total_cost += cost
        links += len(linked) - (next_id - minted_from)
        for j, det in enumerate(linked):
            pool[det.track_id] = (pos, j, det)
        out_frames.append(replace(frame, detections=linked))

    stats = TrackStats(
        frames=len(seq.frames),
        total_assignment_cost=total_cost,
        links=links,
        new_tracks=next_id,
    )
    return seq.with_frames(out_frames), stats


def _track_random(seq: VideoSequence, cfg: LinkerConfig) -> tuple[VideoSequence, TrackStats]:
    # baseline mode: ids drawn uniformly from [0, random_max_id], matching ignored
    rng = np.random.default_rng(cfg.rng_seed)
    out_frames = []
    n = 0
    for frame in seq.frames:
        linked = tuple(
            det.with_track_id(int(rng.integers(0, cfg.random_max_id + 1)))
            for det in frame.detections
        )
        n += len(linked)
        out_frames.append(replace(frame, detections=linked))
    stats = TrackStats(frames=len(seq.frames), total_assignment_cost=0.0, links=0, new_tracks=n)
    return seq.with_frames(out_frames), stats
