"""End-to-end acceptance suite; prints one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import contextlib
import time

import numpy as np
import pytest

from poselink.linking import (
    LinkerConfig,
    greedy_assign,
    hungarian_assign,
    track_video,
)
from poselink.metrics import evaluate
from poselink.model import Box, filter_detections
from poselink.oracles import apply_oracle
from poselink.similarity import CostMatrix, SimilarityCriterion
from poselink.synth import NO_NOISE, NoiseModel, ScenarioConfig, generate_scenario
from poselink.tube import (
    FeatureVolume,
    Tube,
    TubeAnchor,
    decode_tube_deltas,
    encode_tube_deltas,
    inflate_2d_filter,
    spatiotemporal_roi_align,
    tracking_loss,
)

from helpers import (
    brute_force_min_cost,
    correlate2d_multi,
    correlate3d_multi,
    roi_align_oracle,
    three_frame_pair,
)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:02d}: PASS - {description}")


# the noisy ablation suite: false positives score low, true positives high,
# so the detection threshold separates them the way the sweep expects
SWEEP_NOISE = NoiseModel(
    keypoint_jitter=1.5,
    box_jitter=1.5,
    miss_probability=0.05,
    false_positive_rate=1.0,
    tp_score_range=(0.95, 1.0),
    fp_score_range=(0.3, 0.7),
)

ORACLE_NOISE = NoiseModel(
    keypoint_jitter=4.0,
    box_jitter=2.0,
    miss_probability=0.08,
    false_positive_rate=1.0,
    tp_score_range=(0.95, 1.0),
)


def _random_integer_costs(rng):
    rows = int(rng.integers(1, 7))
    cols = int(rng.integers(1, 7))
    return rng.integers(-50, 51, size=(rows, cols)).astype(float)


def test_criterion_1_hungarian_optimality():
    with criterion(1, "hungarian equals brute force on 1000 matrices in under 5 s"):
        rng = np.random.default_rng(123)
        matrices = [_random_integer_costs(rng) for _ in range(1000)]
        start = time.perf_counter()
        totals = [hungarian_assign(CostMatrix(-cost)).total_cost for cost in matrices]
        elapsed = time.perf_counter() - start
        for cost, total in zip(matrices, totals):
            assert total == brute_force_min_cost(cost)
        assert elapsed < 5.0, f"hungarian over the suite took {elapsed:.2f}s"


def test_criterion_2_greedy_dominance():
    with criterion(2, "hungarian total cost <= greedy total cost on all 1000 matrices"):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            m = CostMatrix(-_random_integer_costs(rng))
            assert hungarian_assign(m).total_cost <= greedy_assign(m).total_cost


def test_criterion_3_mot_hand_fixtures():
    with criterion(3, "hand fixtures score MOTA 100 / 66.7 / negative"):
        gt, perfect = three_frame_pair()
        assert evaluate(gt, perfect).mota_total == 100.0
        gt, switched = three_frame_pair(pred_track_ids=(0, 0, 1))
        assert evaluate(gt, switched).mota_total == pytest.approx(66.7, abs=0.05)
        gt, crowded = three_frame_pair(extra_fp_per_frame=3)
        assert evaluate(gt, crowded).mota_total < 0.0


def _sweep_metrics(seed):
    cfg = ScenarioConfig(seed=seed, frames=40, actors=4, noise=SWEEP_NOISE)
    gt, pred = generate_scenario(cfg)
    rows = []
    for thr in (0.0, 0.5, 0.95):
        tracked = track_video(filter_detections(pred, thr, 1.95), LinkerConfig())
        report = evaluate(gt, tracked)
        rows.append((report.mota_total, report.recall_total, report.map_total))
    return rows


def test_criterion_4_threshold_sweep_trend():
    with criterion(4, "detection-threshold sweep: MOTA up, recall down, mAP(0) >= mAP(0.95)"):
        good = 0
        for seed in range(20):
            rows = _sweep_metrics(seed)
            motas = [r[0] for r in rows]
            recalls = [r[1] for r in rows]
            if motas == sorted(motas) and recalls == sorted(recalls, reverse=True):
                good += 1
            assert rows[0][2] >= rows[2][2] - 1e-9  # mAP at 0 vs 0.95, every seed
        assert good >= 19, f"monotone trend held on only {good}/20 seeds"


def test_criterion_5_oracle_ordering():
    with criterion(5, "oracle ordering raw <= assoc, raw <= kpts <= both; assoc has 0 IDSW"):
        for seed in range(5):
            cfg = ScenarioConfig(seed=seed, frames=30, actors=4, noise=ORACLE_NOISE)
            gt, pred = generate_scenario(cfg)
            tracked = track_video(filter_detections(pred, 0.95, 1.95), LinkerConfig())
            raw = evaluate(gt, tracked)
            assoc = evaluate(gt, apply_oracle(gt, tracked, "perfect_association"))
            kpts = evaluate(gt, apply_oracle(gt, tracked, "perfect_keypoints"))
            both = evaluate(gt, apply_oracle(gt, tracked, "both"))
            assert raw.mota_total <= assoc.mota_total + 1e-9
            assert raw.mota_total <= kpts.mota_total + 1e-9
            assert kpts.mota_total <= both.mota_total + 1e-9
            assert sum(assoc.idsw) == 0


def test_criterion_6_cost_criterion_suite():
    with criterion(6, "iou/pckh/cosine/combined all track; combined(1,0,0) matches iou ids"):
        cfg = ScenarioConfig(
            seed=4, frames=25, actors=4,
            noise=NoiseModel(
                keypoint_jitter=1.5, miss_probability=0.05, false_positive_rate=0.5,
                tp_score_range=(0.95, 1.0), feature_dim=8, feature_noise=0.05,
            ),
        )
        gt, pred = generate_scenario(cfg)
        filtered = filter_detections(pred, 0.95, 1.95)
        criteria = {
            "iou": SimilarityCriterion("bbox_iou"),
            "pckh": SimilarityCriterion("pose_pckh"),
            "cosine": SimilarityCriterion("feature_cosine"),
            "combined": SimilarityCriterion("combined"),
        }
        outputs = {}
        for name, crit in criteria.items():
            tracked = track_video(filtered, LinkerConfig(criterion=crit))
            outputs[name] = [
                list(f.detections.track_ids) for f in tracked.frames
            ]
            assert evaluate(gt, tracked).mota_total is not None
        iou_weighted = track_video(
            filtered,
            LinkerConfig(criterion=SimilarityCriterion("combined", weights=(1.0, 0.0, 0.0))),
        )
        ids = [list(f.detections.track_ids) for f in iou_weighted.frames]
        assert ids == outputs["iou"]


def test_criterion_7_linear_runtime():
    with criterion(7, "tracking wall time: 100 frames < 1 s, linear in frame count"):
        lcfg = LinkerConfig()
        inputs = []
        for frames in (100, 200, 400):
            cfg = ScenarioConfig(seed=0, frames=frames, actors=10, noise=NO_NOISE)
            _, pred = generate_scenario(cfg)
            inputs.append((frames, filter_detections(pred, 0.95, 1.95)))
        for _, seq in inputs:
            track_video(seq, lcfg)  # warmup
        times = {frames: [] for frames, _ in inputs}
        for _ in range(5):
            for frames, seq in inputs:
                start = time.perf_counter()
                track_video(seq, lcfg)
                times[frames].append(time.perf_counter() - start)
        medians = [float(np.median(times[frames])) for frames, _ in inputs]
        assert medians[0] < 1.0, f"100-frame tracking took {medians[0]:.3f}s"
        for before, after in zip(medians, medians[1:]):
            ratio = after / before
            assert 1.6 <= ratio <= 2.6, f"doubling ratio {ratio:.2f} outside [1.6, 2.6]"
        xs = np.array([100.0, 200.0, 400.0])
        ys = np.array(medians)
        slope, intercept = np.polyfit(xs, ys, 1)
        ss_res = float(((ys - (slope * xs + intercept)) ** 2).sum())
        ss_tot = float(((ys - ys.mean()) ** 2).sum())
        r_squared = 1.0 - ss_res / ss_tot
        assert r_squared >= 0.98, f"linear fit R^2 {r_squared:.4f} < 0.98"


def test_criterion_8_lookback_gap_fixture():
    with criterion(8, "gap at frame 2 yields 2 tracks at K=1 and 1 track at K=2"):
        from helpers import person, sequence

        def frames_with_gap():
            frames = []
            for t, present in enumerate((True, True, False, True, True)):
                dets = []
                if present:
                    off = 2.0 * t
                    dets = [person([(10 + off, 10), (20 + off, 30), (30 + off, 10)],
                                   head_box=None)]
                frames.append((t, True, dets))
            return sequence(frames)

        seq = frames_with_gap()
        for lookback, expected in ((1, 2), (2, 1)):
            tracked = track_video(seq, LinkerConfig(lookback=lookback))
            distinct = {tid for f in tracked.frames for tid in f.detections.track_ids}
            assert len(distinct) == expected, (lookback, distinct)


def test_criterion_9_tube_geometry():
    with criterion(9, "tube kernels: round trip 1e-9, 1/T loss rule, RoIAlign and conv 1e-6"):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            t = int(rng.integers(1, 4))
            cx, cy = rng.uniform(-200, 200, size=2)
            w, h = rng.uniform(0.5, 150, size=2)
            anchor = TubeAnchor(Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), t)
            boxes = []
            for _ in range(t):
                bx, by = rng.uniform(-200, 200, size=2)
                bw, bh = rng.uniform(0.5, 150, size=2)
                boxes.append(Box(bx - bw / 2, by - bh / 2, bx + bw / 2, by + bh / 2))
            tube = Tube(tuple(boxes))
            back = decode_tube_deltas(encode_tube_deltas(tube, anchor), anchor)
            for orig, dec in zip(tube.boxes, back.boxes):
                for a, b in zip(
                    (orig.x_min, orig.y_min, orig.x_max, orig.y_max),
                    (dec.x_min, dec.y_min, dec.x_max, dec.y_max),
                ):
                    assert abs(b - a) <= 1e-9 * max(1.0, abs(a))

        # replicated half-pixel error: 1/T cancels the replication
        single = np.zeros((1, 4))
        single[0, 0] = 0.5
        _, reg1 = tracking_loss(single, np.zeros((1, 4)), np.array([[0.0, 1.0]]),
                                np.array([0]), length=1)
        triple = np.zeros((1, 12))
        triple[0, 0] = triple[0, 4] = triple[0, 8] = 0.5
        _, reg3 = tracking_loss(triple, np.zeros((1, 12)), np.array([[0.0, 1.0]]),
                                np.array([0]), length=3)
        assert reg1 == pytest.approx(0.125, abs=1e-12)
        assert reg3 == pytest.approx(0.125, abs=1e-12)

        for _ in range(100):
            t = int(rng.integers(1, 4))
            c = int(rng.integers(1, 3))
            h = int(rng.integers(4, 12))
            w = int(rng.integers(4, 12))
            stride = int(rng.choice([1, 2, 8]))
            vol = FeatureVolume(rng.normal(size=(t, c, h, w)), stride=stride)
            boxes = []
            for _ in range(t):
                x1, x2 = np.sort(rng.uniform(-2 * stride, (w + 2) * stride, size=2))
                y1, y2 = np.sort(rng.uniform(-2 * stride, (h + 2) * stride, size=2))
                boxes.append(Box(float(x1), float(y1), float(x2), float(y2)))
            tube = Tube(tuple(boxes))
            r = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            mine = spatiotemporal_roi_align(vol, tube, r, s)
            oracle = roi_align_oracle(vol, tube, r, s)
            assert np.max(np.abs(mine - oracle)) < 1e-6

        w2d = rng.normal(size=(2, 3, 3, 3))
        w3d = inflate_2d_filter(w2d, 3, "center")
        frame = rng.normal(size=(3, 9, 9))
        clip = np.repeat(frame[:, None], 4, axis=1)
        out3d = correlate3d_multi(clip, w3d, t_pad=1)
        out2d = correlate2d_multi(frame, w2d)
        for t in range(out3d.shape[1]):
            assert np.max(np.abs(out3d[:, t] - out2d)) < 1e-6


def test_criterion_10_pipeline_closure():
    with criterion(10, "generate -> corrupt(zero noise) -> track -> evaluate scores 100"):
        for seed in range(5):
            cfg = ScenarioConfig(seed=seed, frames=15, actors=3, noise=NO_NOISE)
            gt, pred = generate_scenario(cfg)
            tracked = track_video(filter_detections(pred, 0.95, 1.95), LinkerConfig())
            report = evaluate(gt, tracked)
            assert report.map_total == 100.0
            assert report.mota_total == 100.0
            assert report.motp_total == 100.0
            assert report.precision_total == 100.0
            assert report.recall_total == 100.0
