import json

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from hypothesis.extra import numpy as npst

from poselink.linking import (
    LinkerConfig,
    greedy_assign,
    hungarian_assign,
    link_frame_pair,
    track_video,
    track_video_with_stats,
)
from poselink.model import Detections
from poselink.similarity import CostMatrix, SimilarityCriterion, load_external_scores
from poselink.synth import NoiseModel, OcclusionModel, ScenarioConfig, generate_scenario

from helpers import brute_force_min_cost, person, sequence


cost_matrices = npst.arrays(
    np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
)


class TestHungarian:
    def test_two_by_two(self):
        # similarity [[-4,-1],[-2,-3]] gives cost [[4,1],[2,3]]
        a = hungarian_assign(CostMatrix(np.array([[-4.0, -1.0], [-2.0, -3.0]])))
        assert set(a.pairs) == {(0, 1), (1, 0)}
        assert a.total_cost == 3.0

    def test_singleton(self):
        a = hungarian_assign(CostMatrix(np.array([[0.0]])))
        assert a.pairs == ((0, 0),) and a.total_cost == 0.0

    def test_wide_matrix(self):
        a = hungarian_assign(CostMatrix(np.array([[-5.0, -1.0, -3.0]])))
        assert a.pairs == ((0, 1),) and a.total_cost == 1.0

    def test_empty(self):
        a = hungarian_assign(CostMatrix(np.zeros((0, 3))))
        assert a.pairs == () and a.total_cost == 0.0

    @settings(max_examples=100)
    @given(cost_matrices)
    def test_matches_brute_force(self, cost):
        result = hungarian_assign(CostMatrix(-cost))
        assert len(result.pairs) == min(cost.shape)
        assert result.total_cost == pytest.approx(brute_force_min_cost(cost), abs=1e-9)


class TestGreedy:
    def test_greedy_is_myopic(self):
        sim = np.array([[0.9, 0.85], [0.8, 0.0]])
        a = greedy_assign(CostMatrix(sim))
        assert a.pairs == ((0, 0), (1, 1))
        assert a.total_cost == pytest.approx(-0.9)
        h = hungarian_assign(CostMatrix(sim))
        assert h.total_cost == pytest.approx(-1.65)

    def test_diagonal_dominant_equals_hungarian(self):
        sim = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert set(greedy_assign(CostMatrix(sim)).pairs) == set(
            hungarian_assign(CostMatrix(sim)).pairs
        )

    def test_tie_break_is_lexicographic(self):
        sim = np.ones((3, 3))
        assert greedy_assign(CostMatrix(sim)).pairs == ((0, 0), (1, 1), (2, 2))

    @settings(max_examples=100)
    @given(cost_matrices)
    def test_hungarian_dominates_greedy(self, cost):
        m = CostMatrix(-cost)
        assert hungarian_assign(m).total_cost <= greedy_assign(m).total_cost + 1e-9


def _drifting_box_frames(offsets, start=0):
    frames = []
    for t, off in enumerate(offsets):
        coords = [(10 + off, 10), (20 + off, 30), (30 + off, 10)]
        frames.append((start + t, True, [person(coords, head_box=None)]))
    return frames


class TestLinkFramePair:
    def test_single_obvious_match_inherits_id(self):
        prev = person([(0, 0), (5, 5), (10, 10)], track_id=7)
        curr = person([(1, 0), (6, 5), (11, 10)])
        out, next_id, _ = link_frame_pair(prev, curr, LinkerConfig(), next_id=8)
        assert out.track_ids == (7,)
        assert next_id == 8

    def test_zero_similarity_never_links(self):
        prev = person([(0, 0), (5, 5), (10, 10)], track_id=0)
        curr = person([(500, 500), (505, 505), (510, 510)])
        out, next_id, _ = link_frame_pair(prev, curr, LinkerConfig(), next_id=1)
        assert out.track_ids == (1,)
        assert next_id == 2

    def test_unmatched_detection_gets_next_id(self):
        prev = Detections.concat([
            person([(0, 0), (5, 5), (10, 10)], track_id=0),
            person([(100, 0), (105, 5), (110, 10)], track_id=1),
        ])
        curr = Detections.concat([
            person([(1, 0), (6, 5), (11, 10)]),
            person([(101, 0), (106, 5), (111, 10)]),
            person([(300, 300), (305, 305), (310, 310)]),
        ])
        out, next_id, _ = link_frame_pair(prev, curr, LinkerConfig(), next_id=2)
        assert out.track_ids == (0, 1, 2)
        assert next_id == 3

    def test_requires_prev_track_ids(self):
        prev = person([(0, 0), (5, 5), (10, 10)])
        with pytest.raises(ValueError, match="track_id"):
            link_frame_pair(prev, prev, LinkerConfig(), next_id=0)


class TestTrackVideo:
    def test_drifting_box_stays_one_track(self):
        seq = sequence(_drifting_box_frames([0, 2, 4, 6, 8]))
        tracked = track_video(seq, LinkerConfig())
        ids = {f.detections.track_ids[0] for f in tracked.frames}
        assert ids == {0}

    def test_gap_bridged_only_with_lookback(self):
        frames = _drifting_box_frames([0, 2]) + [(2, True, [])] + _drifting_box_frames(
            [6, 8], start=3
        )
        seq = sequence(frames)
        ids_k1 = {
            tid
            for f in track_video(seq, LinkerConfig(lookback=1)).frames
            for tid in f.detections.track_ids
        }
        ids_k2 = {
            tid
            for f in track_video(seq, LinkerConfig(lookback=2)).frames
            for tid in f.detections.track_ids
        }
        assert len(ids_k1) == 2
        assert len(ids_k2) == 1

    def test_empty_video(self):
        seq = sequence([])
        assert track_video(seq, LinkerConfig()) == seq

    def test_every_detection_tracked_and_ids_contiguous(self):
        cfg = ScenarioConfig(
            seed=5, frames=25, actors=4,
            occlusion=OcclusionModel(probability=0.05, duration_range=(1, 4)),
            noise=NoiseModel(keypoint_jitter=2.0, miss_probability=0.1, false_positive_rate=0.5),
        )
        _, pred = generate_scenario(cfg)
        tracked = track_video(pred, LinkerConfig())
        seen = []
        for frame in tracked.frames:
            frame_ids = list(frame.detections.track_ids)
            assert len(frame_ids) == len(set(frame_ids))  # unique within a frame
            for tid in frame_ids:
                if tid not in seen:
                    seen.append(tid)
        assert seen == list(range(len(seen)))  # contiguous, first-appearance order

    def test_deterministic(self):
        cfg = ScenarioConfig(seed=9, frames=15, actors=3,
                             noise=NoiseModel(keypoint_jitter=1.0, false_positive_rate=0.5))
        _, pred = generate_scenario(cfg)
        for algo in ("hungarian", "greedy", "random"):
            lcfg = LinkerConfig(algorithm=algo, rng_seed=42)
            assert track_video(pred, lcfg) == track_video(pred, lcfg)

    def test_random_mode_id_range(self):
        cfg = ScenarioConfig(seed=2, frames=10, actors=3)
        _, pred = generate_scenario(cfg)
        tracked = track_video(pred, LinkerConfig(algorithm="random", random_max_id=50, rng_seed=1))
        ids = [tid for f in tracked.frames for tid in f.detections.track_ids]
        assert all(0 <= tid <= 50 for tid in ids)
        assert len(set(ids)) > 1

    def test_lookback_monotone_on_occlusion_suite(self):
        for seed in range(4):
            cfg = ScenarioConfig(
                seed=seed, frames=30, actors=3,
                occlusion=OcclusionModel(probability=0.08, duration_range=(1, 3)),
            )
            gt, _ = generate_scenario(cfg)
            counts = []
            for k in (1, 2, 3, 4):
                tracked = track_video(gt, LinkerConfig(lookback=k))
                counts.append(len({tid for f in tracked.frames for tid in f.detections.track_ids}))
            assert counts == sorted(counts, reverse=True)

    def test_external_scores_drive_linking(self):
        frames = [
            (0, True, [person([(0, 0), (5, 5), (10, 10)])]),
            (1, True, [person([(0, 0), (5, 5), (10, 10)]),
                       person([(100, 100), (105, 105), (110, 110)])]),
        ]
        seq = sequence(frames)
        # force the link onto the far detection despite zero overlap
        crit = SimilarityCriterion("external", external_scores={(1, 0, 1): 0.9})
        tracked = track_video(seq, LinkerConfig(criterion=crit))
        assert tracked.frames[1].detections.track_ids == (1, 0)

    def test_external_prev_index_counts_the_pool_oldest_frame_first(self, tmp_path):
        # lookback 2; track B skips frame 1, so frame 2's pool holds B from
        # frame 0 ahead of A from frame 1
        a = person([(0, 0), (5, 5), (10, 10)])
        b = person([(100, 100), (105, 105), (110, 110)])
        seq = sequence([(0, True, [a, b]), (1, True, [a]), (2, True, [a, b])])
        path = tmp_path / "scores.json"
        path.write_text(json.dumps([
            {"frame": 1, "prev_index": 0, "curr_index": 0, "similarity": 0.9},  # A <- A
            {"frame": 2, "prev_index": 0, "curr_index": 1, "similarity": 0.9},  # B (frame 0) <- B
            {"frame": 2, "prev_index": 1, "curr_index": 0, "similarity": 0.9},  # A (frame 1) <- A
        ]))
        crit = SimilarityCriterion("external", external_scores=load_external_scores(str(path)))
        tracked = track_video(seq, LinkerConfig(criterion=crit, lookback=2))
        ids = [list(f.detections.track_ids) for f in tracked.frames]
        assert ids == [[0, 1], [0], [0, 1]]

    def test_stats_accumulate_costs(self):
        seq = sequence(_drifting_box_frames([0, 2, 4]))
        _, stats = track_video_with_stats(seq, LinkerConfig())
        assert stats.frames == 3
        assert stats.new_tracks == 1
        assert stats.links == 2
        assert stats.total_assignment_cost < 0  # all matched edges have high IoU

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinkerConfig(algorithm="simulated-annealing")
        with pytest.raises(ValueError):
            LinkerConfig(lookback=0)

    @pytest.mark.parametrize("algorithm", ["hungarian", "greedy"])
    @pytest.mark.parametrize("lookback", [1, 3])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), actors=st.integers(0, 5))
    def test_links_count_detections_with_earlier_ids(self, algorithm, lookback, seed, actors):
        cfg = ScenarioConfig(
            seed=seed, frames=12, actors=actors,
            occlusion=OcclusionModel(probability=0.1, duration_range=(1, 4)),
            noise=NoiseModel(keypoint_jitter=3.0, box_jitter=3.0, miss_probability=0.1,
                             false_positive_rate=0.5),
        )
        _, pred = generate_scenario(cfg)
        tracked, stats = track_video_with_stats(pred, LinkerConfig(algorithm=algorithm, lookback=lookback))
        detections = sum(len(f.detections) for f in tracked.frames)
        assert stats.links + stats.new_tracks == detections
        seen, reused = set(), 0
        for frame in tracked.frames:
            ids = frame.detections.track_ids
            reused += sum(tid in seen for tid in ids)
            seen.update(ids)
        assert stats.links == reused
