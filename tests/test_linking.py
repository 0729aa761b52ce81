import json
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
import hypothesis.strategies as st
from hypothesis.extra import numpy as npst

from poselink.linking import (
    KernelMemo,
    LinkerConfig,
    greedy_assign,
    hungarian_assign,
    link_frame_pair,
    track_video,
    track_video_with_stats,
)
from poselink.model import Detections, filter_detections
from poselink.similarity import CostMatrix, SimilarityCriterion, build_cost_matrix, load_external_scores
from poselink.synth import MotionModel, NoiseModel, OcclusionModel, ScenarioConfig, generate_scenario

from helpers import brute_force_min_cost, person, reference_greedy_assign, reference_track, sequence


cost_matrices = npst.arrays(
    np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
)

# integer-valued similarities, full of ties, with zeros of both signs
tied_matrices = npst.arrays(
    np.float64,
    shape=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    elements=st.integers(-2, 2).map(float) | st.just(-0.0),
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

    @settings(max_examples=300)
    @given(tied_matrices | cost_matrices)
    def test_equals_the_argmin_loop(self, sim):
        got, want = greedy_assign(CostMatrix(sim)), reference_greedy_assign(CostMatrix(sim))
        assert got.pairs == want.pairs
        assert got.total_cost.hex() == want.total_cost.hex()

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


# joints on a coarse grid, so that IoU and PCKh similarities tie often
grid_joints = st.lists(st.tuples(*[st.integers(0, 40).map(float)] * 2), min_size=3, max_size=3)
# small integer features, never of zero norm
small_features = st.tuples(st.integers(1, 2), st.integers(-2, 2), st.integers(-2, 2)).map(
    lambda f: tuple(map(float, f)))
frame_sides = st.lists(st.tuples(grid_joints, small_features), max_size=5).map(
    lambda rows: Detections.concat([person(coords, feature=feature) for coords, feature in rows]))


@st.composite
def noisy_scenes(draw):
    """Predictions of a drawn synth scene with occlusion, misses, false
    positives and features, filtered at a drawn score threshold."""
    cfg = ScenarioConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        frames=draw(st.integers(1, 12)),
        actors=draw(st.integers(0, 5)),
        motion=MotionModel(kind=draw(st.sampled_from(["linear", "sinusoidal"]))),
        occlusion=OcclusionModel(probability=draw(st.floats(0, 0.3)), duration_range=(1, 4)),
        noise=NoiseModel(keypoint_jitter=draw(st.floats(0, 8)), box_jitter=draw(st.floats(0, 4)),
                         miss_probability=draw(st.floats(0, 0.5)),
                         false_positive_rate=draw(st.floats(0, 2)), feature_dim=draw(st.integers(1, 8))),
    )
    _, pred = generate_scenario(cfg)
    return filter_detections(pred, draw(st.floats(0, 1)), 0.0)


linker_configs = st.builds(
    LinkerConfig,
    algorithm=st.sampled_from(["hungarian", "greedy"]),
    criterion=st.sampled_from(["bbox_iou", "pose_pckh", "feature_cosine", "combined"]).map(SimilarityCriterion),
    min_similarity=st.sampled_from([0.0, 0.3, 0.9]),
    lookback=st.sampled_from([1, 2, 3, 4, 10**20]),  # the last reaches back past the first frame
)


class TestLinkFramePair:
    def test_single_obvious_match_links(self):
        prev = person([(0, 0), (5, 5), (10, 10)], track_id=7)
        curr = person([(1, 0), (6, 5), (11, 10)])
        parent, _ = link_frame_pair(prev, curr, LinkerConfig())
        assert parent.tolist() == [0]

    def test_zero_similarity_never_links(self):
        prev = person([(0, 0), (5, 5), (10, 10)], track_id=0)
        curr = person([(500, 500), (505, 505), (510, 510)])
        parent, _ = link_frame_pair(prev, curr, LinkerConfig())
        assert parent.tolist() == [-1]

    def test_unmatched_detection_links_to_no_row(self):
        prev = Detections.concat([
            person([(0, 0), (5, 5), (10, 10)]),
            person([(100, 0), (105, 5), (110, 10)]),
        ])
        curr = Detections.concat([
            person([(101, 0), (106, 5), (111, 10)]),
            person([(300, 300), (305, 305), (310, 310)]),
            person([(1, 0), (6, 5), (11, 10)]),
        ])
        parent, _ = link_frame_pair(prev, curr, LinkerConfig())
        assert parent.tolist() == [1, -1, 0]

    @pytest.mark.parametrize("algorithm", ["hungarian", "greedy"])
    @pytest.mark.parametrize("kind", ["bbox_iou", "pose_pckh", "feature_cosine", "combined"])
    # no shrink phase: shrinking a failure here takes about 40 s per case, and
    # a drawn pair of at most five detections a side reads well unshrunk
    @settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(prev=frame_sides, curr=frame_sides, min_similarity=st.sampled_from([-1.0, 0.0, 0.25, 0.5]))
    def test_links_are_the_assignment_pairs_above_min_similarity(self, algorithm, kind, prev, curr,
                                                                 min_similarity):
        cfg = LinkerConfig(algorithm, SimilarityCriterion(kind), min_similarity)
        parent, total = link_frame_pair(prev, curr, cfg)
        cost = build_cost_matrix(prev, curr, cfg.criterion)
        assignment = {"hungarian": hungarian_assign, "greedy": greedy_assign}[algorithm](cost)
        assert parent.shape == (len(curr),)
        linked = np.flatnonzero(parent >= 0)
        assert set(parent.tolist()) <= {-1, *range(len(prev))}
        assert len(set(parent[linked].tolist())) == len(linked)  # distinct rows
        assert {(parent[j], j) for j in linked} == {
            (i, j) for i, j in assignment.pairs if cost.similarity[i, j] > min_similarity}
        assert total == assignment.total_cost


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

    def test_random_mode_draws_up_to_the_int64_limit(self):
        _, pred = generate_scenario(ScenarioConfig(seed=2, frames=10, actors=3))
        tracked = track_video(pred, LinkerConfig(algorithm="random", random_max_id=2**63 - 1, rng_seed=1))
        ids = [tid for f in tracked.frames for tid in f.detections.track_ids]
        assert all(0 <= tid <= 2**63 - 1 for tid in ids)
        assert len(set(ids)) == len(ids)

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

    @pytest.mark.parametrize("algorithm", ["hungarian", "greedy", "random"])
    def test_memo_of_another_sequence_is_an_error(self, algorithm):
        seq = sequence(_drifting_box_frames([0, 2, 4]))
        memo = KernelMemo(seq)
        cfg = LinkerConfig(algorithm=algorithm)
        assert track_video_with_stats(seq, cfg, memo) == track_video_with_stats(seq, cfg)
        equal_but_another = sequence(_drifting_box_frames([0, 2, 4]))
        with pytest.raises(ValueError, match="^kernel memo was made for another sequence$"):
            track_video_with_stats(equal_but_another, cfg, memo)

    def test_memo_entries_are_keyed_on_the_frame_and_every_pool_row(self):
        memo = KernelMemo(sequence([]))
        shared = memo.entry(2, [1, 3])
        assert memo.entry(2, [1, 3]) is shared
        # another frame, another first row, another last row, a shorter pool
        for other in [(3, [1, 3]), (2, [0, 3]), (2, [1, 2]), (2, [3])]:
            assert memo.entry(*other) is not shared

    # no shrink phase, as in TestLinkFramePair: a scene of at most 12 frames reads well unshrunk
    @settings(max_examples=150, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(pred=noisy_scenes(), cfgs=st.lists(linker_configs, min_size=1, max_size=2), share=st.booleans())
    def test_equals_the_reference_pool_rule(self, pred, cfgs, share):
        # with share, the passes of every config share one kernel memo
        memo = KernelMemo(pred) if share else None
        for cfg in cfgs:
            tracked, stats = track_video_with_stats(pred, cfg, memo)
            want, want_stats = reference_track(pred, cfg)
            assert [f.detections.track_ids for f in tracked.frames] == [
                f.detections.track_ids for f in want.frames]
            assert stats == want_stats
            assert stats.total_assignment_cost.hex() == want_stats.total_assignment_cost.hex()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinkerConfig(algorithm="simulated-annealing")
        with pytest.raises(ValueError):
            LinkerConfig(lookback=0)

    @pytest.mark.parametrize("setting, value, message", [
        ("lookback", 2.5, "lookback must be an integer >= 1, got 2.5"),
        ("lookback", True, "lookback must be an integer >= 1, got True"),
        ("lookback", 0, "lookback must be >= 1"),
        ("random_max_id", 10.5, "random_max_id must be an integer >= 0, got 10.5"),
        ("random_max_id", True, "random_max_id must be an integer >= 0, got True"),
        ("random_max_id", -1, "random_max_id must be non-negative, got -1"),
        ("random_max_id", 2**63, f"random_max_id must be <= {2**63 - 1}, got {2**63}"),
        ("random_max_id", np.uint64(2**63), f"random_max_id must be <= {2**63 - 1}, got {np.uint64(2**63)!r}"),
        ("rng_seed", 1.5, "rng_seed must be an integer >= 0, got 1.5"),
        ("rng_seed", -1, "rng_seed must be non-negative, got -1"),
        ("min_similarity", "0.1", "min_similarity must be a real number, got '0.1'"),
        ("min_similarity", True, "min_similarity must be a real number, got True"),
        ("min_similarity", None, "min_similarity must be a real number, got None"),
        ("min_similarity", float("nan"), "min_similarity must not be NaN, got nan"),
    ])
    def test_bad_setting_is_one_value_error_naming_it(self, setting, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinkerConfig(**{setting: value})

    def test_numpy_numbers_are_settings(self):
        seq = sequence(_drifting_box_frames([0, 2]) + [(2, True, [])] + _drifting_box_frames([6, 8], start=3))
        cfg = LinkerConfig(min_similarity=np.float32(0.1), lookback=np.int64(2))
        assert track_video_with_stats(seq, cfg) == track_video_with_stats(seq, LinkerConfig(
            min_similarity=float(np.float32(0.1)), lookback=2))
        random = LinkerConfig("random", random_max_id=np.int32(9), rng_seed=np.uint8(3))
        assert track_video(seq, random) == track_video(seq, LinkerConfig("random", random_max_id=9, rng_seed=3))
        # past frame 128, with gaps: the lookback arithmetic neither wraps (uint64) nor overflows (int8)
        _, long = generate_scenario(ScenarioConfig(
            seed=1, frames=200, actors=4, occlusion=OcclusionModel(probability=0.2, duration_range=(1, 3)),
            noise=NoiseModel(miss_probability=0.2, false_positive_rate=1)))
        want = track_video_with_stats(long, LinkerConfig(lookback=3))
        for lookback in (np.uint64(3), np.int8(3)):
            assert track_video_with_stats(long, LinkerConfig(lookback=lookback)) == want

    @pytest.mark.parametrize("algorithm", ["hungarian", "greedy"])
    @pytest.mark.parametrize("kind", ["bbox_iou", "pose_pckh", "combined"])
    @pytest.mark.parametrize("lookback", [1, 3])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), actors=st.integers(0, 5),
           min_similarity=st.sampled_from([0.0, 0.3, 0.9]))
    def test_links_count_detections_with_earlier_ids(self, algorithm, kind, lookback, seed, actors,
                                                     min_similarity):
        cfg = ScenarioConfig(
            seed=seed, frames=12, actors=actors,
            occlusion=OcclusionModel(probability=0.1, duration_range=(1, 4)),
            noise=NoiseModel(keypoint_jitter=3.0, box_jitter=3.0, miss_probability=0.1,
                             false_positive_rate=0.5, feature_dim=4),
        )
        _, pred = generate_scenario(cfg)
        linker = LinkerConfig(algorithm, SimilarityCriterion(kind), min_similarity, lookback)
        tracked, stats = track_video_with_stats(pred, linker)
        detections = sum(len(f.detections) for f in tracked.frames)
        assert stats.links + stats.new_tracks == detections
        seen, reused = set(), 0
        for frame in tracked.frames:
            ids = frame.detections.track_ids
            reused += sum(tid in seen for tid in ids)
            seen.update(ids)
        assert stats.links == reused
