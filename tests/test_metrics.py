import pytest

from poselink.linking import LinkerConfig, track_video
from poselink.metrics import (
    evaluate,
    evaluate_map,
    evaluate_mot,
    head_size,
    match_poses_frame,
    match_sequence,
    pckh_correct,
)
from poselink.model import Box, Detections, filter_detections
from poselink.synth import NoiseModel, ScenarioConfig, generate_scenario, generate_ground_truth

from helpers import PCKH_LIMIT, clear_mot_counts, person, scale_sequence, sequence, three_frame_pair, unmatched


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
        pairs, _ = match_poses_frame(gt, pred)
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
        pairs, _ = match_poses_frame(gt, pred)
        assert set(pairs) == {(0, 1), (1, 0)}

    def test_zero_correct_joints_discarded(self):
        gt = person([(0, 0), (5, 5), (10, 10)], track_id=0)
        pred = person([(500, 500), (505, 505), (510, 510)])
        pairs, _ = match_poses_frame(gt, pred)
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
            evaluate_mot(match, sequence(frames))


class TestEvaluateMap:
    def test_perfect_predictions(self):
        gt, pred = three_frame_pair()
        report = evaluate_map(match_sequence(gt, pred))
        assert report.map_total == 100.0
        assert all(v == 100.0 for v in report.map_per_joint)

    def test_no_predictions(self):
        gt, _ = three_frame_pair()
        empty = sequence([(t, True, []) for t in range(3)])
        assert evaluate_map(match_sequence(gt, empty)).map_total == 0.0

    def test_duplicate_below_correct_does_not_hurt(self):
        gt_seq = sequence([(0, True, [person([(10, 10), (20, 30), (30, 10)], track_id=0)])])
        correct = person([(10, 10), (20, 30), (30, 10)], score=0.9, head_box=None)
        duplicate = person([(11, 10), (21, 30), (31, 10)], score=0.8, head_box=None)
        pred_seq = sequence([(0, True, [correct, duplicate])])
        report = evaluate_map(match_sequence(gt_seq, pred_seq))
        assert all(v == pytest.approx(100.0) for v in report.map_per_joint)

    def test_half_recall_gives_half_ap(self):
        coords = [(10, 10), (20, 30), (30, 10)]
        gt_seq = sequence([(0, True, [person(coords, track_id=0)]),
                           (1, True, [person(coords, track_id=0)])])
        pred_seq = sequence([(0, True, [person(coords, score=0.9, head_box=None)]),
                             (1, True, [])])
        report = evaluate_map(match_sequence(gt_seq, pred_seq))
        assert all(v == pytest.approx(50.0) for v in report.map_per_joint)

    def test_joints_without_labels_are_excluded_from_mean(self):
        coords = [(10, 10), (20, 30), (30, 10)]
        gt_seq = sequence([(0, True, [person(coords, track_id=0, present=[True, True, False])])])
        pred_seq = sequence([(0, True, [person(coords, score=1.0, head_box=None,
                                               present=[True, True, False])])])
        report = evaluate_map(match_sequence(gt_seq, pred_seq))
        assert report.map_per_joint[2] is None
        assert report.map_total == 100.0


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

    def test_summary_line_format(self):
        gt, pred = three_frame_pair()
        line = evaluate(gt, pred).summary_line()
        assert "mAP 100.0" in line and "MOTA 100.0" in line
