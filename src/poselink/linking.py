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
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import NO_DETECTIONS, Detections, Frame, VideoSequence
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
    prev: Detections,
    curr: Detections,
    cfg: LinkerConfig,
    next_id: int,
    frame_index: Optional[int] = None,
) -> tuple[Detections, int, float]:
    """Propagate track ids from prev onto curr and mint ids for the rest.

    Returns (curr with every detection carrying a track id, next unused id,
    summed cost of the frame's assignment).
    """
    if None in prev.track_ids:
        raise ValueError(f"previous detection {prev.track_ids.index(None)} carries no track_id")

    cost = build_cost_matrix(prev, curr, cfg.criterion, frame_index=frame_index)
    assignment = _assign(cost, cfg.algorithm)

    ids: list[Optional[int]] = [None] * len(curr)
    for i, j in assignment.pairs:
        if cost.similarity[i, j] > cfg.min_similarity:
            ids[j] = prev.track_ids[i]
    for j, track_id in enumerate(ids):
        if track_id is None:
            ids[j] = next_id
            next_id += 1
    return replace(curr, track_ids=tuple(ids)), next_id, assignment.total_cost


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
    # the candidate pool: the latest detection of every live track, oldest
    # frame first, then by detection index; pool_pos holds each row's frame position
    pool, pool_pos = NO_DETECTIONS, np.empty(0, dtype=int)
    out_frames = []
    for pos, frame in enumerate(seq.frames):
        minted_from = next_id
        linked, next_id, cost = link_frame_pair(
            pool, frame.detections, cfg, next_id, frame_index=frame.frame_index
        )
        total_cost += cost
        links += len(linked) - (next_id - minted_from)
        out_frames.append(Frame(frame.frame_index, frame.labeled, linked))
        # a row stays while its track is not relinked and it is within the next frame's lookback
        relinked = set(linked.track_ids)
        stays = (pos + 1 - pool_pos <= cfg.lookback) & np.array(
            [track_id not in relinked for track_id in pool.track_ids], dtype=bool
        )
        if stays.any():
            pool = Detections.concat([pool.take(stays), linked])
            pool_pos = np.concatenate([pool_pos[stays], np.full(len(linked), pos)])
        else:
            pool, pool_pos = linked, np.full(len(linked), pos)

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
        dets = frame.detections
        ids = [int(rng.integers(0, cfg.random_max_id + 1)) for _ in range(len(dets))]
        n += len(ids)
        out_frames.append(Frame(frame.frame_index, frame.labeled, replace(dets, track_ids=tuple(ids))))
    stats = TrackStats(frames=len(seq.frames), total_assignment_cost=0.0, links=0, new_tracks=n)
    return seq.with_frames(out_frames), stats
