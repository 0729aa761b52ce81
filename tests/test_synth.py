import numpy as np
import pytest

from poselink.linking import LinkerConfig, track_video
from poselink.metrics import evaluate, evaluate_map, evaluate_mot
from poselink.model import derive_box_from_pose, filter_detections, save_sequence
from poselink.synth import (
    HEAD_JOINT_COUNT,
    JOINT_NAMES,
    NO_NOISE,
    MotionModel,
    NoiseModel,
    OcclusionModel,
    ScenarioConfig,
    corrupt_to_predictions,
    generate_ground_truth,
    generate_scenario,
)


class TestGroundTruth:
    def test_same_seed_is_identical(self, tmp_path):
        cfg = ScenarioConfig(seed=11, frames=12, actors=3,
                             occlusion=OcclusionModel(probability=0.1))
        a, b = generate_ground_truth(cfg), generate_ground_truth(cfg)
        assert a == b
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_sequence(a, str(pa))
        save_sequence(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        a = generate_ground_truth(ScenarioConfig(seed=1, frames=5, actors=2))
        b = generate_ground_truth(ScenarioConfig(seed=2, frames=5, actors=2))
        assert a != b

    def test_no_occlusion_means_always_present(self):
        cfg = ScenarioConfig(seed=0, frames=20, actors=4)
        gt = generate_ground_truth(cfg)
        assert all(len(f.detections) == 4 for f in gt.frames)

    def test_zero_actors_gives_empty_frames(self):
        gt = generate_ground_truth(ScenarioConfig(seed=0, frames=5, actors=0))
        assert all(len(f.detections) == 0 for f in gt.frames)

    def test_track_ids_stable_across_occlusion(self):
        cfg = ScenarioConfig(seed=3, frames=40, actors=3,
                             occlusion=OcclusionModel(probability=0.1, duration_range=(2, 4)))
        gt = generate_ground_truth(cfg)
        per_frame_counts = [len(f.detections) for f in gt.frames]
        assert min(per_frame_counts) < 3  # some occlusion actually happened
        ids = {d.track_id for f in gt.frames for d in f.detections}
        assert ids == {0, 1, 2}

    def test_boxes_follow_the_dilation_rule(self):
        gt = generate_ground_truth(ScenarioConfig(seed=4, frames=3, actors=2))
        det = gt.frames[0].detections[0]
        assert det.box == derive_box_from_pose(det.pose, 0.20)
        k = HEAD_JOINT_COUNT
        head_pose = type(det.pose)(det.pose.xy[:k], det.pose.score[:k], det.pose.present[:k])
        assert det.head_box == derive_box_from_pose(head_pose, 0.20)

    def test_label_every_marks_stride(self):
        gt = generate_ground_truth(ScenarioConfig(seed=0, frames=9, actors=1, label_every=4))
        labeled = [f.frame_index for f in gt.frames if f.labeled]
        assert labeled == [0, 4, 8]

    def test_geometry_stays_inside_image(self):
        cfg = ScenarioConfig(seed=6, frames=60, actors=4,
                             motion=MotionModel(kind="sinusoidal", speed_range=(4.0, 9.0)))
        gt = generate_ground_truth(cfg)
        for frame in gt.frames:
            for det in frame.detections:
                for x, y in det.pose.xy.tolist():
                    assert -1 <= x <= cfg.image_width + 1
                    assert -1 <= y <= cfg.image_height + 1

    def test_fifteen_named_joints(self):
        gt = generate_ground_truth(ScenarioConfig(seed=0, frames=1, actors=1))
        assert gt.joint_names == JOINT_NAMES
        assert len(JOINT_NAMES) == 15


class TestCorruption:
    def test_deterministic_under_seed(self):
        cfg = ScenarioConfig(seed=8, frames=10, actors=2,
                             noise=NoiseModel(keypoint_jitter=2.0, miss_probability=0.1,
                                              false_positive_rate=1.0))
        gt = generate_ground_truth(cfg)
        assert corrupt_to_predictions(gt, cfg) == corrupt_to_predictions(gt, cfg)

    def test_zero_noise_keeps_geometry_and_unit_score(self):
        cfg = ScenarioConfig(seed=9, frames=6, actors=2, noise=NO_NOISE)
        gt, pred = generate_scenario(cfg)
        for gf, pf in zip(gt.frames, pred.frames):
            assert len(gf.detections) == len(pf.detections)
            for gd, pd in zip(gf.detections, pf.detections):
                assert pd.box == gd.box
                assert pd.score == 1.0
                assert pd.track_id is None and pd.head_box is None
                for j in range(len(gd.pose)):
                    assert (pd.pose.xy[j].tolist(), pd.pose.present[j]) == (
                        gd.pose.xy[j].tolist(), gd.pose.present[j]
                    )

    def test_zero_noise_pipeline_closure(self):
        cfg = ScenarioConfig(seed=10, frames=12, actors=3, noise=NO_NOISE)
        gt, pred = generate_scenario(cfg)
        tracked = track_video(filter_detections(pred, 0.95, 1.95), LinkerConfig())
        report = evaluate(gt, tracked)
        assert report.mota_total == 100.0 and report.map_total == 100.0

    def test_certain_miss_removes_everything(self):
        cfg = ScenarioConfig(seed=1, frames=5, actors=3,
                             noise=NoiseModel(miss_probability=1.0))
        gt, pred = generate_scenario(cfg)
        assert all(len(f.detections) == 0 for f in pred.frames)
        empty_tracked = track_video(pred, LinkerConfig())
        assert evaluate_mot(gt, empty_tracked).recall_total == 0.0

    def test_false_positives_appear_with_low_scores(self):
        cfg = ScenarioConfig(seed=2, frames=20, actors=1,
                             noise=NoiseModel(false_positive_rate=2.0))
        gt, pred = generate_scenario(cfg)
        n_gt = sum(len(f.detections) for f in gt.frames)
        n_pred = sum(len(f.detections) for f in pred.frames)
        assert n_pred > n_gt
        extra_scores = [
            d.score for f in pred.frames for d in f.detections[len(gt.frames[0].detections):]
        ]
        assert all(0.3 <= s <= 0.7 for s in extra_scores)

    def test_feature_emission(self):
        cfg = ScenarioConfig(seed=3, frames=6, actors=2,
                             noise=NoiseModel(feature_dim=8, feature_noise=0.01))
        _, pred = generate_scenario(cfg)
        for frame in pred.frames:
            for det in frame.detections:
                assert det.feature is not None and len(det.feature) == 8
        # same actor's embeddings stay close across frames
        first = np.array(pred.frames[0].detections[0].feature)
        later = np.array(pred.frames[3].detections[0].feature)
        cos = float(first @ later / (np.linalg.norm(first) * np.linalg.norm(later)))
        assert cos > 0.9

    def test_noise_monotonicity_in_map(self):
        def mean_map(jitter):
            totals = []
            for seed in range(20):
                cfg = ScenarioConfig(seed=seed, frames=8, actors=2,
                                     noise=NoiseModel(keypoint_jitter=jitter))
                gt, pred = generate_scenario(cfg)
                totals.append(evaluate_map(gt, pred).map_total)
            return float(np.mean(totals))

        assert mean_map(0.0) >= mean_map(6.0) >= mean_map(20.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(frames=0)
        with pytest.raises(ValueError):
            NoiseModel(miss_probability=1.5)
        with pytest.raises(ValueError):
            OcclusionModel(probability=-0.1)
        with pytest.raises(ValueError):
            MotionModel(kind="brownian")

    @pytest.mark.parametrize("cls, kwargs, field", [
        (NoiseModel, {"keypoint_jitter": float("nan")}, "keypoint_jitter"),
        (NoiseModel, {"keypoint_jitter": -1.0}, "keypoint_jitter"),
        (NoiseModel, {"box_jitter": float("nan")}, "box_jitter"),
        (NoiseModel, {"box_jitter": -1.0}, "box_jitter"),
        (NoiseModel, {"feature_noise": -0.1}, "feature_noise"),
        (NoiseModel, {"feature_dim": -4}, "feature_dim"),
        (NoiseModel, {"tp_score_range": (1.0, 0.8)}, "tp_score_range"),
        (NoiseModel, {"fp_score_range": (0.7, 0.3)}, "fp_score_range"),
        (NoiseModel, {"keypoint_score_range": (3.0, 2.0)}, "keypoint_score_range"),
        (OcclusionModel, {"duration_range": (5, 1)}, "duration_range"),
        (OcclusionModel, {"duration_range": (-1, 2)}, "duration_range"),
        (MotionModel, {"speed_range": (6.0, 2.0)}, "speed_range"),
        (ScenarioConfig, {"image_width": 0}, "image_width"),
        (ScenarioConfig, {"image_height": 0}, "image_height"),
    ])
    def test_config_rejects_bad_value_naming_the_field(self, cls, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} ") as exc:
            cls(**kwargs)
        assert "\n" not in str(exc.value)

    def test_default_and_no_noise_configs_are_valid(self):
        ScenarioConfig()
        ScenarioConfig(noise=NO_NOISE, occlusion=OcclusionModel(duration_range=(0, 0)))
