from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from poselink.linking import LinkerConfig, track_video, track_video_with_stats
from poselink.metrics import (
    correct_joint_mask,
    evaluate,
    evaluate_map,
    evaluate_mot,
    match_poses_frame,
    match_sequence,
)
from poselink.model import Box, Detections, Frame, filter_detections
from poselink.similarity import SimilarityCriterion
from poselink.synth import (
    MotionModel,
    NoiseModel,
    OcclusionModel,
    ScenarioConfig,
    generate_ground_truth,
    generate_scenario,
)

from helpers import (
    PCKH_LIMIT,
    clear_mot_counts,
    head_size,
    pckh_correct,
    person,
    scale_sequence,
    sequence,
    three_frame_pair,
    unmatched,
)


class TestHeadSize:
    def test_three_four_five_triangle(self):
        assert head_size(Box(0, 0, 3, 4)) == pytest.approx(3.0)

    def test_degenerate_head_box(self):
        with pytest.raises(ValueError, match="degenerate"):
            head_size(Box(0, 0, 0, 0))

    def test_linear_in_scale(self):
        assert head_size(Box(0, 0, 6, 8)) == pytest.approx(2 * head_size(Box(0, 0, 3, 4)))


class TestPckhCorrect:
    def test_zero_distance(self):
        xy = (5.0, 5.0)
        assert pckh_correct(xy, xy, head=10.0)

    def test_boundary_is_closed(self):
        gt = (0.0, 0.0)
        pred = (5.0, 0.0)
        assert pckh_correct(gt, pred, head=10.0, alpha=0.5)

    def test_just_beyond_boundary(self):
        gt = (0.0, 0.0)
        pred = (5.005, 0.0)
        assert not pckh_correct(gt, pred, head=10.0, alpha=0.5)


class TestMatchPoses:
    def test_perfect_prediction_matches(self):
        gt = person([(0, 0), (5, 5), (10, 10)], track_id=0)
        pred = person([(0, 0), (5, 5), (10, 10)])
        pairs = match_poses_frame(gt, pred)
        assert pairs == ((0, 0),)
        assert unmatched(pairs, 1, 1) == ((), ())

    def test_two_people_matched_to_nearest(self):
        gt = Detections.concat([
            person([(0, 0), (5, 5), (10, 10)], track_id=0),
            person([(100, 100), (105, 105), (110, 110)], track_id=1),
        ])
        pred = Detections.concat([
            person([(101, 101), (106, 106), (111, 111)]),
            person([(1, 1), (6, 6), (11, 11)]),
        ])
        pairs = match_poses_frame(gt, pred)
        assert set(pairs) == {(0, 1), (1, 0)}

    @pytest.mark.parametrize("head_box, message", [
        (Box(5, 5, 5, 5), "degenerate head box"),
        (None, "a ground-truth detection has no head box"),
        (Box(-1e308, 0, 1e308, 40), "head box diagonal is beyond the float range"),
    ])
    def test_bad_ground_truth_head_box_is_one_line_error(self, head_box, message):
        coords = [(0, 0), (5, 5), (10, 10)]
        gt = Detections.concat([person(coords, track_id=0), person(coords, track_id=1, head_box=head_box)])
        for match in (correct_joint_mask, match_poses_frame):
            with pytest.raises(ValueError) as exc:
                match(gt, person(coords))
            assert str(exc.value) == message

    def test_alpha_whose_limits_overflow_is_one_line_error(self):
        coords = [(0, 0), (5, 5), (10, 10)]
        gt, pred = person(coords, track_id=0), person(coords)
        for match in (correct_joint_mask, match_poses_frame):
            with pytest.raises(ValueError) as exc:
                match(gt, pred, 1e308)
            assert str(exc.value) == "alpha 1e+308 times a head size is beyond the float range"

    def test_zero_width_head_box_has_a_size(self):
        coords = [(0, 0), (5, 5), (10, 10)]
        gt = person(coords, track_id=0, head_box=Box(5, 5, 5, 45))
        pred = person(coords)
        pairs = match_poses_frame(gt, pred)
        correct = correct_joint_mask(gt, pred)
        assert pairs == ((0, 0),) and correct.all()

    def test_zero_correct_joints_discarded(self):
        gt = person([(0, 0), (5, 5), (10, 10)], track_id=0)
        pred = person([(500, 500), (505, 505), (510, 510)])
        pairs = match_poses_frame(gt, pred)
        assert pairs == ()
        assert unmatched(pairs, 1, 1) == ((0,), (0,))


class TestEvaluateMot:
    def test_perfect_tracking_scores_100(self):
        gt, pred = three_frame_pair()
        report = evaluate(gt, pred)
        assert report.mota_total == 100.0
        assert report.motp_total == 100.0
        assert all(v == 100.0 for v in report.mota_per_joint)
        assert sum(report.fp) == sum(report.fn) == sum(report.idsw) == 0

    def test_single_id_switch(self):
        gt, pred = three_frame_pair(pred_track_ids=(0, 0, 1))
        report = evaluate(gt, pred)
        assert sum(report.idsw) == 3  # one switch per joint
        for value in report.mota_per_joint:
            assert value == pytest.approx(100 * (1 - 1 / 3), abs=1e-9)
        assert report.mota_total == pytest.approx(66.6667, abs=0.05)

    def test_fp_heavy_scene_goes_negative(self):
        gt, pred = three_frame_pair(extra_fp_per_frame=3)
        report = evaluate(gt, pred)
        assert report.mota_total < 0

    def test_id_switch_tracked_per_joint_presence(self):
        # joint 2 is labeled only in frames 0 and 2; the id flips at frame 1 and
        # flips back at frame 2, so joint 2 never observes a changed id
        base = [(10.0, 10.0), (20.0, 30.0), (30.0, 10.0)]
        gt_frames, pred_frames = [], []
        for t, pid in enumerate((0, 1, 0)):
            present = [True, True, t != 1]
            gt_frames.append((t, True, [person(base, track_id=0, present=present)]))
            pred_frames.append((t, True, [person(base, track_id=pid, head_box=None, present=present)]))
        report = evaluate(sequence(gt_frames), sequence(pred_frames))
        assert report.idsw[0] == 2 and report.idsw[1] == 2
        assert report.idsw[2] == 0

    @pytest.mark.parametrize("pred_ids, idsw", [((0, 1), (1, 1, 0)), ((0, 1, 0), (2, 2, 0))])
    def test_id_switch_counted_on_tp_joints_only(self, pred_ids, idsw):
        # frame 1 brings a new id and misses joint 2 by more than the PCKh limit:
        # joint 2 is FN there, so it neither switches nor takes the new id, and
        # its TP at frame 2 has the id of its previous TP again
        base = [(10.0, 10.0), (20.0, 30.0), (30.0, 10.0)]
        off = base[:2] + [(30.0 + 3 * PCKH_LIMIT, 10.0)]
        gt = sequence([(t, True, [person(base, track_id=0)]) for t in range(len(pred_ids))])
        pred = sequence([(t, True, [person(off if t == 1 else base, track_id=pid, head_box=None)])
                         for t, pid in enumerate(pred_ids)])
        report = evaluate(gt, pred)
        assert report.fn == report.fp == (0, 0, 1)
        assert report.idsw == idsw
        frames = [([1, 1, 1], [1, 1, 1], [(0, j, pid) for j in range(3) if t != 1 or j != 2])
                  for t, pid in enumerate(pred_ids)]
        reference = clear_mot_counts(frames, 3)
        assert reference == {"tp": report.tp, "fp": report.fp, "fn": report.fn, "idsw": idsw}

    def test_counts_rederive_rates(self):
        cfg = ScenarioConfig(
            seed=3, frames=20, actors=3,
            noise=NoiseModel(keypoint_jitter=4.0, miss_probability=0.1,
                             false_positive_rate=1.0, tp_score_range=(0.95, 1.0)),
        )
        gt, pred = generate_scenario(cfg)
        tracked = track_video(filter_detections(pred, 0.0, 0.0), LinkerConfig())
        report = evaluate(gt, tracked)
        for j in range(len(report.joint_names)):
            if report.gt[j] > 0:
                expected = 100 * (1 - (report.fn[j] + report.fp[j] + report.idsw[j]) / report.gt[j])
                assert report.mota_per_joint[j] == pytest.approx(expected, abs=1e-9)
        tp, fp, fn = sum(report.tp), sum(report.fp), sum(report.fn)
        assert report.precision_total == pytest.approx(100 * tp / (tp + fp))
        assert report.recall_total == pytest.approx(100 * tp / (tp + fn))

    def test_perfect_input_property(self):
        for seed in (0, 1, 2):
            gt = generate_ground_truth(ScenarioConfig(seed=seed, frames=8, actors=3))
            report = evaluate(gt, gt)
            assert report.mota_total == 100.0
            assert report.map_total == 100.0
            assert report.motp_total == 100.0
            assert report.precision_total == 100.0
            assert report.recall_total == 100.0

    def test_scale_invariance(self):
        cfg = ScenarioConfig(seed=4, frames=10, actors=3,
                             noise=NoiseModel(keypoint_jitter=3.0, false_positive_rate=0.5))
        gt, pred = generate_scenario(cfg)
        tracked = track_video(pred, LinkerConfig())
        base = evaluate(gt, tracked)
        scaled = evaluate(scale_sequence(gt, 2.0), scale_sequence(tracked, 2.0))
        assert scaled.tp == base.tp and scaled.fp == base.fp and scaled.fn == base.fn
        assert scaled.mota_total == pytest.approx(base.mota_total)
        assert scaled.map_total == pytest.approx(base.map_total)
        assert scaled.motp_total == pytest.approx(base.motp_total)

    def test_unlabeled_frames_are_ignored(self):
        gt, pred = three_frame_pair()
        noisy_frames = [
            (0, True, [pred.frames[0].detections]),
            (1, True, [pred.frames[1].detections]),
            (2, True, [pred.frames[2].detections]),
            (3, False, [person([(500, 0), (505, 5), (510, 10)], track_id=9, head_box=None)]),
        ]
        gt_frames = [(f.frame_index, f.labeled, [f.detections]) for f in gt.frames]
        gt_frames.append((3, False, []))
        report = evaluate(sequence(gt_frames), sequence(noisy_frames))
        assert report.mota_total == 100.0

    def test_video_id_mismatch_rejected(self):
        from dataclasses import replace

        gt, pred = three_frame_pair()
        with pytest.raises(ValueError, match="video id"):
            evaluate(gt, replace(pred, video_id="other"))

    def test_untracked_predictions_rejected(self):
        from dataclasses import replace

        gt, pred = three_frame_pair()
        frames = [
            (f.frame_index, f.labeled, [replace(f.detections, track_ids=(None,) * len(f.detections))])
            for f in pred.frames
        ]
        with pytest.raises(ValueError, match="track_id"):
            evaluate(gt, sequence(frames))


class TestEvaluateMotOfAMatch:
    @pytest.mark.parametrize("frame, kept, message", [
        (1, 1, "prediction frame 1 has 1 detections, the match has 2"),
        (2, None, "prediction frame 2 has 0 detections, the match has 2"),
    ])
    def test_other_detections_than_the_match_name_the_frame(self, frame, kept, message):
        gt, pred = three_frame_pair(extra_fp_per_frame=1)
        match = match_sequence(gt, pred)
        frames = [
            (f.frame_index, f.labeled,
             [f.detections.take(slice(kept)) if f.frame_index == frame else f.detections])
            for f in pred.frames
            if kept is not None or f.frame_index != frame
        ]
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_mot(match, sequence(frames), evaluate_map(match))


class TestEvaluateMap:
    def test_perfect_predictions(self):
        gt, pred = three_frame_pair()
        ap, map_total = evaluate_map(match_sequence(gt, pred))
        assert map_total == 100.0
        assert all(v == 100.0 for v in ap)

    def test_no_predictions(self):
        gt, _ = three_frame_pair()
        empty = sequence([(t, True, []) for t in range(3)])
        assert evaluate_map(match_sequence(gt, empty))[1] == 0.0

    def test_duplicate_below_correct_does_not_hurt(self):
        gt_seq = sequence([(0, True, [person([(10, 10), (20, 30), (30, 10)], track_id=0)])])
        correct = person([(10, 10), (20, 30), (30, 10)], score=0.9, head_box=None)
        duplicate = person([(11, 10), (21, 30), (31, 10)], score=0.8, head_box=None)
        pred_seq = sequence([(0, True, [correct, duplicate])])
        ap, _ = evaluate_map(match_sequence(gt_seq, pred_seq))
        assert all(v == pytest.approx(100.0) for v in ap)

    def test_half_recall_gives_half_ap(self):
        coords = [(10, 10), (20, 30), (30, 10)]
        gt_seq = sequence([(0, True, [person(coords, track_id=0)]),
                           (1, True, [person(coords, track_id=0)])])
        pred_seq = sequence([(0, True, [person(coords, score=0.9, head_box=None)]),
                             (1, True, [])])
        ap, _ = evaluate_map(match_sequence(gt_seq, pred_seq))
        assert all(v == pytest.approx(50.0) for v in ap)

    def test_joints_without_labels_are_excluded_from_mean(self):
        coords = [(10, 10), (20, 30), (30, 10)]
        gt_seq = sequence([(0, True, [person(coords, track_id=0, present=[True, True, False])])])
        pred_seq = sequence([(0, True, [person(coords, score=1.0, head_box=None,
                                               present=[True, True, False])])])
        ap, map_total = evaluate_map(match_sequence(gt_seq, pred_seq))
        assert ap[2] is None
        assert map_total == 100.0


class TestReportPlumbing:
    def test_json_and_csv_round_trip(self, tmp_path):
        gt, pred = three_frame_pair()
        report = evaluate(gt, pred)
        path = tmp_path / "report.json"
        report.save_json(str(path), extra={"alpha": 0.5})
        import json

        doc = json.loads(path.read_text())
        assert doc["mota"]["total"] == 100.0
        assert doc["map"]["total"] == 100.0
        assert doc["counts"]["tp"] == list(report.tp)
        assert doc["alpha"] == 0.5

    def test_non_finite_value_is_not_saved(self, tmp_path):
        gt, pred = three_frame_pair()
        with pytest.raises(ValueError, match="not JSON compliant"):
            evaluate(gt, pred).save_json(str(tmp_path / "report.json"), extra={"alpha": float("nan")})
        assert list(tmp_path.iterdir()) == []

    def test_summary_line_format(self):
        gt, pred = three_frame_pair()
        line = evaluate(gt, pred).summary_line()
        assert "mAP 100.0" in line and "MOTA 100.0" in line


@st.composite
def filtered_scenes(draw):
    """(gt, pred): a drawn synth scene with features, its predictions
    filtered at drawn thresholds."""
    noise = NoiseModel(
        keypoint_jitter=draw(st.floats(0, 8)),
        box_jitter=draw(st.floats(0, 4)),
        miss_probability=draw(st.floats(0, 0.5)),
        false_positive_rate=draw(st.floats(0, 2)),
        feature_dim=draw(st.integers(1, 8)),  # the combined cost reads features
        feature_noise=draw(st.floats(0, 0.5)),
    )
    cfg = ScenarioConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        frames=draw(st.integers(1, 12)),
        actors=draw(st.integers(1, 5)),
        motion=MotionModel(kind=draw(st.sampled_from(["linear", "sinusoidal"]))),
        occlusion=OcclusionModel(probability=draw(st.floats(0, 0.3))),
        noise=noise,
        label_every=draw(st.integers(1, 3)),
    )
    gt, pred = generate_scenario(cfg)
    return gt, filter_detections(pred, draw(st.floats(0, 1)), draw(st.floats(0, 3)))


@st.composite
def tracked_scenes(draw, kind: str):
    """(gt, tracked): a drawn filtered scene tracked with the criterion `kind`."""
    gt, pred = draw(filtered_scenes())
    return gt, track_video(pred, LinkerConfig(criterion=SimilarityCriterion(kind)))


def reindexed(seq, index):
    """seq with each frame_index i replaced by index(i)."""
    return seq.with_frames([replace(f, frame_index=index(f.frame_index)) for f in seq.frames])


COSTS = ["bbox_iou", "pose_pckh", "combined"]


class TestMetamorphicReport:
    """evaluate gives an equal report under changes the metric definitions
    ignore: the names of the predicted ids, where frame numbering starts, and
    ground-truth frames that are not labeled."""

    @pytest.mark.parametrize("kind", COSTS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_injective_renaming_of_predicted_ids(self, kind, data):
        gt, tracked = data.draw(tracked_scenes(kind))
        ids = sorted({t for f in tracked.frames for t in f.detections.track_ids})
        # ids of any size, some above 2**63
        new_ids = data.draw(st.lists(st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**70)),
                                     min_size=len(ids), max_size=len(ids), unique=True))
        name = dict(zip(ids, new_ids))
        renamed = tracked.with_frames([
            replace(f, detections=replace(f.detections, track_ids=tuple(name[t] for t in f.detections.track_ids)))
            for f in tracked.frames
        ])
        assert evaluate(gt, renamed) == evaluate(gt, tracked)

    @pytest.mark.parametrize("kind", COSTS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_common_shift_of_every_frame_index(self, kind, data):
        gt, tracked = data.draw(tracked_scenes(kind))
        shift = data.draw(st.integers(1, 2**70))
        shifted = [reindexed(seq, lambda i: i + shift) for seq in (gt, tracked)]
        assert evaluate(*shifted) == evaluate(gt, tracked)

    @pytest.mark.parametrize("kind", COSTS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_unlabeled_ground_truth_frames_inserted(self, kind, data):
        gt, tracked = data.draw(tracked_scenes(kind))
        # every index doubled on both sides frees an odd index after each frame,
        # where an unlabeled copy of the frame's ground truth may go
        inserted = data.draw(st.lists(st.booleans(), min_size=len(gt.frames), max_size=len(gt.frames)))
        frames = []
        for f, insert in zip(gt.frames, inserted):
            frames.append(replace(f, frame_index=2 * f.frame_index))
            if insert:
                frames.append(Frame(2 * f.frame_index + 1, False, f.detections))
        spread = reindexed(tracked, lambda i: 2 * i)
        assert evaluate(gt.with_frames(frames), spread) == evaluate(gt, tracked)


def track_ids(seq):
    return [f.detections.track_ids for f in seq.frames]


class TestMetamorphicTracking:
    """Tracking, and the report of what it tracks, under changes that the
    criteria and the metric definitions ignore: the scale of every coordinate,
    and, for hungarian's total cost, the order of each frame's detections."""

    @pytest.mark.parametrize("scale", [0.25, 4.0])
    @pytest.mark.parametrize("kind", COSTS)
    @settings(max_examples=20, deadline=None)
    @given(scene=filtered_scenes())
    def test_power_of_two_scale_is_bit_identical(self, kind, scale, scene):
        gt, pred = scene
        linker = LinkerConfig(criterion=SimilarityCriterion(kind))
        tracked = track_video(pred, linker)
        scaled = track_video(scale_sequence(pred, scale), linker)
        assert track_ids(scaled) == track_ids(tracked)
        assert evaluate(scale_sequence(gt, scale), scaled) == evaluate(gt, tracked)

    @pytest.mark.parametrize("kind", COSTS)
    @settings(max_examples=20, deadline=None)
    @given(scene=filtered_scenes())
    def test_scale_three_keeps_ids_and_counts(self, kind, scene):
        gt, pred = scene
        linker = LinkerConfig(criterion=SimilarityCriterion(kind))
        tracked = track_video(pred, linker)
        scaled = track_video(scale_sequence(pred, 3.0), linker)
        assert track_ids(scaled) == track_ids(tracked)
        base, report = evaluate(gt, tracked), evaluate(scale_sequence(gt, 3.0), scaled)
        assert (report.tp, report.fp, report.fn, report.idsw, report.gt) == (
            base.tp, base.fp, base.fn, base.idsw, base.gt)
        assert report.motp_total == pytest.approx(base.motp_total, rel=1e-12)

    @pytest.mark.parametrize("kind", COSTS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_hungarian_total_cost_ignores_detection_order(self, kind, data):
        # at lookback 1 each frame's pool is the previous frame, whatever was linked;
        # ties may pick other links (see link_frame_pair), but never another total
        _, pred = data.draw(filtered_scenes())
        shuffled = pred.with_frames([
            replace(f, detections=f.detections.take(
                np.array(data.draw(st.permutations(range(len(f.detections)))), dtype=int)))
            for f in pred.frames
        ])
        linker = LinkerConfig(criterion=SimilarityCriterion(kind))
        _, stats = track_video_with_stats(pred, linker)
        _, shuffled_stats = track_video_with_stats(shuffled, linker)
        assert shuffled_stats.total_assignment_cost == pytest.approx(stats.total_assignment_cost, rel=1e-9)
