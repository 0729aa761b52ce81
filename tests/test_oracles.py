import pytest

from poselink.linking import LinkerConfig, track_video
from poselink.metrics import evaluate
from poselink.model import filter_detections
from poselink.oracles import apply_oracle, perfect_association, perfect_keypoints
from poselink.synth import NoiseModel, ScenarioConfig, generate_scenario

from helpers import person, sequence, three_frame_pair


NOISY = NoiseModel(
    keypoint_jitter=4.0,
    box_jitter=2.0,
    miss_probability=0.08,
    false_positive_rate=1.0,
    tp_score_range=(0.95, 1.0),
)


def _tracked_scenario(seed, frames=30, actors=4):
    cfg = ScenarioConfig(seed=seed, frames=frames, actors=actors, noise=NOISY)
    gt, pred = generate_scenario(cfg)
    tracked = track_video(filter_detections(pred, 0.95, 1.95), LinkerConfig())
    return gt, tracked


class TestPerfectAssociation:
    def test_consistent_ids_keep_their_mota(self):
        gt, pred = three_frame_pair(pred_track_ids=(5, 5, 5))
        fixed = perfect_association(gt, pred)
        before = evaluate(gt, pred)
        after = evaluate(gt, fixed)
        assert after.mota_total == before.mota_total == 100.0
        assert all(
            tid == 0 for f in fixed.frames for tid in f.detections.track_ids
        )  # relabeled onto the gt id

    def test_id_switch_repaired(self):
        gt, pred = three_frame_pair(pred_track_ids=(0, 0, 1))
        fixed = perfect_association(gt, pred)
        report = evaluate(gt, fixed)
        assert sum(report.idsw) == 0
        assert report.mota_total == 100.0

    def test_unmatched_ids_moved_above_gt_range(self):
        gt, pred = three_frame_pair(extra_fp_per_frame=2)
        fixed = perfect_association(gt, pred)
        max_gt = max(tid for f in gt.frames for tid in f.detections.track_ids)
        matched_ids = {f.detections.track_ids[0] for f in fixed.frames}
        fp_ids = {tid for f in fixed.frames for tid in f.detections.track_ids[1:]}
        assert matched_ids == {0}
        assert all(tid > max_gt for tid in fp_ids)

    def test_zero_idsw_on_noisy_suite(self):
        for seed in range(3):
            gt, tracked = _tracked_scenario(seed)
            report = evaluate(gt, perfect_association(gt, tracked))
            assert sum(report.idsw) == 0

    def test_requires_tracked_predictions(self):
        gt, pred = three_frame_pair()
        from dataclasses import replace

        frames = [
            (f.frame_index, f.labeled, [replace(f.detections, track_ids=(None,) * len(f.detections))])
            for f in pred.frames
        ]
        with pytest.raises(ValueError, match="track_id"):
            perfect_association(gt, sequence(frames))


class TestPerfectKeypoints:
    def test_identical_boxes_copy_poses_exactly(self):
        gt, pred = three_frame_pair(pred_track_ids=(0, 0, 0))
        # skew the predicted keypoints, keep boxes identical
        from dataclasses import replace

        frames = []
        for f in pred.frames:
            dets = replace(f.detections, xy=f.detections.xy + (3.0, 0.0))
            frames.append((f.frame_index, f.labeled, [dets]))
        skewed = sequence(frames)
        fixed = perfect_keypoints(gt, skewed)
        for gf, pf in zip(gt.frames, fixed.frames):
            gd, pd = gf.detections, pf.detections
            assert len(gd) == len(pd)
            assert pd.xy.tolist() == gd.xy.tolist()
            assert (pd.kp_score == 1.0).all()
            assert pd.present.tolist() == gd.present.tolist()

    def test_zero_overlap_leaves_predictions_untouched(self):
        gt, _ = three_frame_pair()
        far = sequence(
            [
                (t, True, [person([(900.0, 900.0), (910.0, 920.0), (920.0, 900.0)],
                                  track_id=0, head_box=None)])
                for t in range(3)
            ]
        )
        assert perfect_keypoints(gt, far) == far

    def test_a_side_without_detections_leaves_predictions_untouched(self):
        # a sequence built from frames without detections has columns of 0 joints
        gt, pred = three_frame_pair()
        empty = sequence([(t, True, []) for t in range(3)])
        assert perfect_keypoints(empty, pred) == pred
        assert perfect_keypoints(gt, empty) == empty

    def test_absent_gt_joints_stay_absent(self):
        coords = [(10, 10), (20, 30), (30, 10)]
        gt = sequence([(0, True, [person(coords, track_id=0, present=[True, False, True])])])
        pred = sequence([(0, True, [person(coords, track_id=0, head_box=None)])])
        fixed = perfect_keypoints(gt, pred)
        assert not fixed.frames[0].detections.present[0, 1]


class TestOrderingAndComposition:
    def test_mota_ordering_on_noisy_suite(self):
        for seed in range(4):
            gt, tracked = _tracked_scenario(seed)
            raw = evaluate(gt, tracked).mota_total
            pa = evaluate(gt, apply_oracle(gt, tracked, "perfect_association")).mota_total
            pk = evaluate(gt, apply_oracle(gt, tracked, "perfect_keypoints")).mota_total
            both = evaluate(gt, apply_oracle(gt, tracked, "both")).mota_total
            assert raw <= pa + 1e-9
            assert raw <= pk + 1e-9
            assert pk <= both + 1e-9

    def test_both_is_association_then_keypoints(self):
        gt, tracked = _tracked_scenario(7)
        composed = perfect_keypoints(gt, perfect_association(gt, tracked))
        assert apply_oracle(gt, tracked, "both") == composed

    def test_oracles_idempotent(self):
        gt, tracked = _tracked_scenario(2)
        pa = perfect_association(gt, tracked)
        assert perfect_association(gt, pa) == pa
        pk = perfect_keypoints(gt, tracked)
        assert perfect_keypoints(gt, pk) == pk

    def test_unknown_mode_rejected(self):
        gt, tracked = _tracked_scenario(1, frames=5, actors=2)
        with pytest.raises(ValueError, match="mode"):
            apply_oracle(gt, tracked, "psychic")

    @pytest.mark.parametrize("mode", ["perfect_association", "perfect_keypoints", "both"])
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0, -1.0])
    def test_every_mode_rejects_a_bad_alpha(self, mode, alpha):
        gt, pred = three_frame_pair()
        with pytest.raises(ValueError, match=f"^alpha must be finite and positive, got {alpha!r}$"):
            apply_oracle(gt, pred, mode, alpha)
