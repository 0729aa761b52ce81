import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from poselink import cli
from poselink.linking import LinkerConfig, track_video
from poselink.metrics import evaluate, evaluate_map, match_sequence
from poselink.model import filter_detections, save_sequence
from poselink.synth import (
    HEAD_JOINT_COUNT,
    JOINT_NAMES,
    NO_NOISE,
    MotionModel,
    NoiseModel,
    OcclusionModel,
    ScenarioConfig,
    _POISSON_MAX,
    corrupt_to_predictions,
    dilated_boxes,
    generate_ground_truth,
    generate_scenario,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestDilatedBoxes:
    def test_two_joint_span_dilated(self):
        assert dilated_boxes(np.array([[10.0, 10.0], [20.0, 20.0]]), 0.2).tolist() == [9.0, 9.0, 21.0, 21.0]

    def test_zero_dilation_is_exact_span(self):
        assert dilated_boxes(np.array([[10.0, 10.0], [20.0, 20.0]]), 0.0).tolist() == [10.0, 10.0, 20.0, 20.0]

    def test_single_joint_stays_a_point(self):
        assert dilated_boxes(np.array([[5.0, 5.0]])).tolist() == [5.0, 5.0, 5.0, 5.0]

    def test_leading_axes_are_kept(self):
        xy = np.arange(2 * 3 * 4 * 2, dtype=float).reshape(2, 3, 4, 2)
        boxes = dilated_boxes(xy)
        assert boxes.shape == (2, 3, 4)
        assert boxes[1, 2].tolist() == dilated_boxes(xy[1, 2]).tolist()

    @given(
        st.lists(st.tuples(coords, coords), min_size=1, max_size=6),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
    def test_translation_equivariance(self, pts, dx, dy):
        base = dilated_boxes(np.array(pts))
        shifted = dilated_boxes(np.array([(x + dx, y + dy) for x, y in pts]))
        assert shifted[0] == pytest.approx(base[0] + dx, abs=1e-6)
        assert shifted[3] == pytest.approx(base[3] + dy, abs=1e-6)


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
        ids = {tid for f in gt.frames for tid in f.detections.track_ids}
        assert ids == {0, 1, 2}

    def test_boxes_follow_the_dilation_rule(self):
        gt = generate_ground_truth(ScenarioConfig(seed=4, frames=3, actors=2))
        dets = gt.frames[0].detections
        xy = dets.xy[0]
        span = np.concatenate([xy.min(axis=0), xy.max(axis=0)])
        grow = 0.1 * (span[2:] - span[:2])
        assert dets.boxes[0].tolist() == np.concatenate([span[:2] - grow, span[2:] + grow]).tolist()
        assert np.array_equal(dets.boxes, dilated_boxes(dets.xy, 0.20))
        assert np.array_equal(dets.head_boxes, dilated_boxes(dets.xy[:, :HEAD_JOINT_COUNT], 0.20))

    def test_label_every_marks_stride(self):
        gt = generate_ground_truth(ScenarioConfig(seed=0, frames=9, actors=1, label_every=4))
        labeled = [f.frame_index for f in gt.frames if f.labeled]
        assert labeled == [0, 4, 8]

    def test_geometry_stays_inside_image(self):
        cfg = ScenarioConfig(seed=6, frames=60, actors=4,
                             motion=MotionModel(kind="sinusoidal", speed_range=(4.0, 9.0)))
        gt = generate_ground_truth(cfg)
        for frame in gt.frames:
            xy = frame.detections.xy
            assert (-1 <= xy[..., 0]).all() and (xy[..., 0] <= cfg.image_width + 1).all()
            assert (-1 <= xy[..., 1]).all() and (xy[..., 1] <= cfg.image_height + 1).all()

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
            gd, pd = gf.detections, pf.detections
            assert len(gd) == len(pd)
            assert pd.boxes.tolist() == gd.boxes.tolist()
            assert (pd.scores == 1.0).all()
            assert set(pd.track_ids) <= {None} and np.isnan(pd.head_boxes).all()
            assert pd.xy.tolist() == gd.xy.tolist()
            assert pd.present.tolist() == gd.present.tolist()

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
        assert evaluate(gt, empty_tracked).recall_total == 0.0

    def test_false_positives_appear_with_low_scores(self):
        cfg = ScenarioConfig(seed=2, frames=20, actors=1,
                             noise=NoiseModel(false_positive_rate=2.0))
        gt, pred = generate_scenario(cfg)
        n_gt = sum(len(f.detections) for f in gt.frames)
        n_pred = sum(len(f.detections) for f in pred.frames)
        assert n_pred > n_gt
        extra_scores = [
            s for f in pred.frames for s in f.detections.scores[len(gt.frames[0].detections):].tolist()
        ]
        assert all(0.3 <= s <= 0.7 for s in extra_scores)

    def test_feature_emission(self):
        cfg = ScenarioConfig(seed=3, frames=6, actors=2,
                             noise=NoiseModel(feature_dim=8, feature_noise=0.01))
        _, pred = generate_scenario(cfg)
        for frame in pred.frames:
            assert frame.detections.has_feature.all() and frame.detections.features.shape[1] == 8
        # same actor's embeddings stay close across frames
        first = pred.frames[0].detections.features[0]
        later = pred.frames[3].detections.features[0]
        cos = float(first @ later / (np.linalg.norm(first) * np.linalg.norm(later)))
        assert cos > 0.9

    def test_noise_monotonicity_in_map(self):
        def mean_map(jitter):
            totals = []
            for seed in range(20):
                cfg = ScenarioConfig(seed=seed, frames=8, actors=2,
                                     noise=NoiseModel(keypoint_jitter=jitter))
                gt, pred = generate_scenario(cfg)
                totals.append(evaluate_map(match_sequence(gt, pred))[1])
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
        (ScenarioConfig, {"seed": -1}, "seed"),
        (ScenarioConfig, {"image_width": 0}, "image_width"),
        (ScenarioConfig, {"image_height": 0}, "image_height"),
        (ScenarioConfig, {"image_width": 125, "image_height": 720}, "image_width"),
        (ScenarioConfig, {"image_width": 10**400}, "image_width"),
        (ScenarioConfig, {"image_height": 10**400}, "image_height"),
        (NoiseModel, {"keypoint_jitter": float("inf")}, "keypoint_jitter"),
        (NoiseModel, {"box_jitter": float("inf")}, "box_jitter"),
        (NoiseModel, {"feature_noise": float("inf")}, "feature_noise"),
        (NoiseModel, {"false_positive_rate": math.inf}, "false_positive_rate"),
        (NoiseModel, {"false_positive_rate": math.nan}, "false_positive_rate"),
        (NoiseModel, {"false_positive_rate": -1.0}, "false_positive_rate"),
        (NoiseModel, {"false_positive_rate": 1e19}, "false_positive_rate"),
        (NoiseModel, {"false_positive_rate": math.nextafter(_POISSON_MAX, math.inf)}, "false_positive_rate"),
        (NoiseModel, {"tp_score_range": (0.0, math.inf)}, "tp_score_range"),
        (NoiseModel, {"fp_score_range": (-math.inf, 1.0)}, "fp_score_range"),
        (NoiseModel, {"keypoint_score_range": (0, 1e400)}, "keypoint_score_range"),
        (NoiseModel, {"keypoint_score_range": (0, 10**400)}, "keypoint_score_range"),
        (NoiseModel, {"keypoint_score_range": (-1e308, 1e308)}, "keypoint_score_range"),
        (MotionModel, {"speed_range": (0.0, math.inf)}, "speed_range"),
        (MotionModel, {"speed_range": (-math.inf, math.inf)}, "speed_range"),
        (MotionModel, {"speed_range": (-1e308, 1e308)}, "speed_range"),
        (OcclusionModel, {"duration_range": (1, 2**63)}, "duration_range"),
        (OcclusionModel, {"duration_range": (1, 1e300)}, "duration_range"),
    ])
    def test_config_rejects_bad_value_naming_the_field(self, cls, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} ") as exc:
            cls(**kwargs)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("height", [7, 40, 360, 720, 1001])
    def test_narrowest_accepted_image_places_actors_and_false_positives(self, height):
        width = math.ceil(0.175 * height)
        with pytest.raises(ValueError, match="^image_width "):
            ScenarioConfig(image_width=width - 1, image_height=height)
        cfg = ScenarioConfig(seed=height, frames=2, actors=20, image_width=width, image_height=height,
                             noise=NoiseModel(false_positive_rate=10.0))
        gt, pred = generate_scenario(cfg)
        assert len(gt.frames[0].detections) == 20 and len(pred.frames[0].detections) > 20

    def test_widest_accepted_ranges_generate(self):
        widest = sys.float_info.max
        cfg = ScenarioConfig(frames=3, actors=2,
                             motion=MotionModel(speed_range=(-widest / 2, widest / 2)),
                             occlusion=OcclusionModel(probability=0.5, duration_range=(2**63 - 1, 2**63 - 1)),
                             noise=NoiseModel(false_positive_rate=1.0, tp_score_range=(0.0, widest),
                                              fp_score_range=(-widest, 0.0), keypoint_score_range=(0.0, widest)))
        gt, pred = generate_scenario(cfg)
        assert len(gt.frames) == len(pred.frames) == 3

    def test_false_positive_rate_bound_is_numpys_poisson_limit(self):
        assert NoiseModel(false_positive_rate=_POISSON_MAX).false_positive_rate == _POISSON_MAX
        rng = np.random.default_rng(0)
        rng.poisson(_POISSON_MAX)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(math.nextafter(_POISSON_MAX, math.inf))

    def test_false_positive_rate_beyond_the_limit_in_a_config_names_the_field(self, tmp_path, capsys):
        cfg, out = tmp_path / "scenario.json", tmp_path / "gt.json"
        cfg.write_text(json.dumps({"frames": 1, "noise": {"false_positive_rate": 1e19}}))
        assert cli.main(["synth", "--out-gt", str(out), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("poselink synth: config.noise: false_positive_rate must be at most ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_default_and_no_noise_configs_are_valid(self):
        ScenarioConfig()
        ScenarioConfig(noise=NO_NOISE, occlusion=OcclusionModel(duration_range=(0, 0)))

    def test_widest_accepted_image_generates(self):
        widest = int(sys.float_info.max)
        cfg = ScenarioConfig(frames=3, actors=2, image_width=widest, image_height=widest,
                             noise=NoiseModel(false_positive_rate=1.0))
        gt, pred = generate_scenario(cfg)
        assert len(gt.frames) == len(pred.frames) == 3

    @pytest.mark.parametrize("kind, speed", [("linear", 1e308), ("sinusoidal", -1e308), ("linear", 1e307)])
    def test_path_beyond_the_float_range_names_the_speed_range(self, kind, speed):
        # at 1e307 px a frame, one axis leaves the float range after 18 to 26 frames
        cfg = ScenarioConfig(frames=40, motion=MotionModel(kind, (speed, speed)))
        with pytest.raises(ValueError, match=r"^motion\.speed_range .* moves actor 0 ") as exc:
            generate_ground_truth(cfg)
        assert "\n" not in str(exc.value)

    def test_actors_beyond_any_memory_fail_before_the_first_draw(self):
        # the centers of 10**12 actors over 30 frames take 437 TiB, more than any
        # address space, so the request fails at once rather than drawing actors
        with pytest.raises(MemoryError, match="^Unable to allocate "):
            generate_ground_truth(ScenarioConfig(actors=10**12))


# SHA-256 of the saved (ground truth, predictions) files, recorded before synth
# built its columns directly
GOLDEN = {
    "defaults": (
        ScenarioConfig(),
        "44309281ce99eb004a96a16c86abb49163d093a9bd305e9a7d757ea7f69025fc",
        "fb36835b76e65a96fd33254c3bc85c88c7d4bfb0b48fce70d4127d66766cef68",
    ),
    "features_fp_occlusion": (
        ScenarioConfig(
            seed=5, frames=12, actors=3,
            occlusion=OcclusionModel(probability=0.15, duration_range=(1, 4)),
            noise=NoiseModel(keypoint_jitter=2.0, box_jitter=1.5, miss_probability=0.1,
                             false_positive_rate=1.5, feature_dim=6, feature_noise=0.05),
        ),
        "090c775e450551f21fe735f0d7442e70b66366683c01f97a12df62f2d85190aa",
        "e94e0f4acfca13248027950ccd5de7560433bc6f7b2e53f69211079556a2944c",
    ),
    "sinusoidal_label_every_3": (
        ScenarioConfig(seed=7, frames=15, actors=3, label_every=3,
                       motion=MotionModel(kind="sinusoidal", speed_range=(3.0, 8.0))),
        "821a4cdbe40ea37aabbd69f5339c0197408302fb504e4e84835f0baac35bf612",
        "b63a47142eff64409b2aa0144bb50db694138381421629f95e9070749a3aab27",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_saved_files_equal_the_golden_hashes(tmp_path, name):
    """The written files stay byte-identical. The hashes hold for numpy's PCG64
    streams as the module docstring describes them: a numpy release that
    changes those streams changes the scenes, and these hashes with them."""
    cfg, gt_hash, pred_hash = GOLDEN[name]
    got = []
    for role, seq in zip(("gt", "pred"), generate_scenario(cfg)):
        path = tmp_path / f"{role}.json"
        save_sequence(seq, str(path))
        got.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert got == [gt_hash, pred_hash]
