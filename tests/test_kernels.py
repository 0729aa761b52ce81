"""Differential tests: the array kernels against the scalar functions they replace.

The scalar functions (iou, pose_pckh_similarity, feature_cosine, pckh_correct
and _correct_joint_count) stay in the package as the oracles. IoU and every
PCKh decision must agree exactly; cosine terms agree to 1e-12.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.optimize import linear_sum_assignment

from poselink.metrics import (
    _average_precision,
    _correct_joint_count,
    correct_joint_mask,
    evaluate_map,
    head_size,
    match_poses_frame,
    pckh_correct,
)
from poselink.model import Box, Detection, Keypoint, Pose
from poselink.oracles import perfect_keypoints
from poselink.similarity import (
    SimilarityCriterion,
    box_array,
    build_cost_matrix,
    feature_cosine,
    iou,
    joints_within,
    keypoint_array,
    pairwise_iou,
    pose_pckh_similarity,
)

from helpers import sequence

J = 4
# a coarse grid makes shared edges, zero-area boxes and exact PCKh ties common
grid = st.integers(min_value=0, max_value=40).map(float)
fine = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
coord = st.one_of(grid, fine)
junk = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 0.0])


@st.composite
def boxes(draw):
    x1, x2 = sorted([draw(coord), draw(coord)])
    y1, y2 = sorted([draw(coord), draw(coord)])
    return Box(x1, y1, x2, y2)


@st.composite
def keypoints(draw):
    if draw(st.booleans()):
        return Keypoint(draw(coord), draw(coord), 2.0, True)
    # absent joints may hold any coordinates, non-finite ones included
    return Keypoint(draw(st.one_of(coord, junk)), draw(st.one_of(coord, junk)), 0.0, False)


features = st.one_of(
    st.just((0.0, 0.0, 0.0)),
    st.tuples(*[st.integers(-3, 3).map(float)] * 3),
    st.tuples(*[fine] * 3),
)


@st.composite
def detections(draw, gt=False):
    head = draw(boxes().filter(lambda b: b.diagonal > 0)) if gt else None
    return Detection(
        box=draw(boxes()),
        score=draw(st.sampled_from([0.5, 0.75, 1.0])),
        pose=Pose(tuple(draw(keypoints()) for _ in range(J))),
        feature=draw(features),
        track_id=draw(st.integers(0, 3)) if gt else None,
        head_box=head,
    )


sides = st.lists(detections(), max_size=4)
gt_sides = st.lists(detections(gt=True), max_size=4)


def scalar_similarity(p, c, crit):
    """One entry of the cost matrix, the way the scalar criteria define it."""
    pckh = lambda: pose_pckh_similarity(p, c, crit.pckh_alpha, crit.pckh_norm_scale)
    if crit.kind == "bbox_iou":
        return iou(p.box, c.box)
    if crit.kind == "pose_pckh":
        return pckh()
    if crit.kind == "feature_cosine":
        return feature_cosine(p.feature, c.feature)
    w_iou, w_pckh, w_cos = crit.weights
    s = 0.0
    if w_iou > 0:
        s += w_iou * iou(p.box, c.box)
    if w_pckh > 0:
        s += w_pckh * pckh()
    if w_cos > 0:
        s += w_cos * 0.5 * (feature_cosine(p.feature, c.feature) + 1.0)
    return s / (w_iou + w_pckh + w_cos)


def scalar_matrix(prev, curr, crit):
    """(matrix, warned) of the scalar criteria over every prev x curr pair."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sim = np.array(
            [[scalar_similarity(p, c, crit) for c in curr] for p in prev], dtype=float
        ).reshape(len(prev), len(curr))
    return sim, bool(caught)


class TestCostMatrixKernels:
    @settings(max_examples=75)
    @given(sides, sides)
    def test_iou_is_bit_exact(self, prev, curr):
        sim = pairwise_iou(box_array(prev), box_array(curr))
        expected, _ = scalar_matrix(prev, curr, SimilarityCriterion("bbox_iou"))
        assert sim.shape == expected.shape
        assert np.array_equal(sim, expected)

    @settings(max_examples=75)
    @given(sides, sides, st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([0.1, 0.25]))
    def test_pckh_is_exact(self, prev, curr, alpha, norm_scale):
        crit = SimilarityCriterion("pose_pckh", pckh_alpha=alpha, pckh_norm_scale=norm_scale)
        sim = build_cost_matrix(prev, curr, crit).similarity
        expected, _ = scalar_matrix(prev, curr, crit)
        assert np.array_equal(sim, expected)

    @settings(max_examples=75)
    @given(
        sides, sides,
        st.sampled_from([
            ("feature_cosine", (1.0, 1.0, 1.0)),
            ("combined", (1.0, 1.0, 1.0)),
            ("combined", (2.0, 0.5, 1.0)),
            ("combined", (0.0, 1.0, 3.0)),
            ("combined", (1.0, 1.0, 0.0)),
        ]),
    )
    def test_cosine_and_combined_within_1e12(self, prev, curr, kind_weights):
        kind, weights = kind_weights
        crit = SimilarityCriterion(kind, weights=weights)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sim = build_cost_matrix(prev, curr, crit).similarity
        expected, scalar_warned = scalar_matrix(prev, curr, crit)
        assert sim.shape == expected.shape
        assert np.allclose(sim, expected, rtol=0.0, atol=1e-12)
        # a zero-norm vector still gives 0 and the same warning
        assert bool(caught) == scalar_warned
        assert all("zero-norm" in str(w.message) for w in caught)

    def test_empty_sides(self):
        det = Detection(Box(0, 0, 1, 1), 1.0, Pose((Keypoint(0, 0, 1.0),) * J), feature=(1.0, 0, 0))
        for kind in ("bbox_iou", "pose_pckh", "feature_cosine", "combined"):
            crit = SimilarityCriterion(kind)
            assert build_cost_matrix([], [det], crit).similarity.shape == (0, 1)
            assert build_cost_matrix([det, det], [], crit).similarity.shape == (2, 0)
            assert build_cost_matrix([], [], crit).similarity.shape == (0, 0)


class TestNearThreshold:
    def test_decisions_follow_math_hypot(self):
        # np.hypot and math.hypot may round differently in the last bit
        rng = np.random.default_rng(0)
        d = rng.uniform(-50.0, 50.0, size=(20_000, 2))
        vec = np.hypot(d[:, 0], d[:, 1])
        differ = [
            (dx, dy) for (dx, dy), v in zip(d.tolist(), vec.tolist()) if math.hypot(dx, dy) != v
        ]
        if not differ:
            pytest.skip("np.hypot equals math.hypot on every sample of this platform")
        for dx, dy in differ[:50]:
            exact = math.hypot(dx, dy)
            for limit in (exact, math.nextafter(exact, 0.0), math.nextafter(exact, math.inf)):
                a = np.array([[[0.0, 0.0]]])
                b = np.array([[[-dx, -dy]]])
                assert joints_within(a, b, [limit])[0, 0, 0] == (exact <= limit)


class TestMetricKernels:
    @settings(max_examples=75)
    @given(gt_sides.filter(bool), sides.filter(bool), st.sampled_from([0.2, 0.5, 1.0]))
    def test_correct_joint_mask_is_exact(self, gt, pred, alpha):
        mask = correct_joint_mask(gt, pred, alpha)
        assert mask.shape == (len(gt), len(pred), J)
        for i, g in enumerate(gt):
            head = head_size(g.head_box)
            for k, p in enumerate(pred):
                assert mask[i, k].sum() == _correct_joint_count(g, p, alpha)
                for j, (gj, pj) in enumerate(zip(g.pose.joints, p.pose.joints)):
                    expected = gj.present and pj.present and pckh_correct(gj, pj, head, alpha)
                    assert mask[i, k, j] == expected

    @settings(max_examples=75)
    @given(gt_sides, sides)
    def test_match_poses_frame_equals_scalar_counts(self, gt, pred):
        result = match_poses_frame(gt, pred)
        if not gt or not pred:
            assert result.pairs == ()
            assert result.unmatched_gt == tuple(range(len(gt)))
            assert result.unmatched_pred == tuple(range(len(pred)))
            return
        counts = np.array([[_correct_joint_count(g, p, 0.5) for p in pred] for g in gt], dtype=float)
        rows, cols = linear_sum_assignment(-counts)
        expected = tuple((int(i), int(j)) for i, j in zip(rows, cols) if counts[i, j] > 0)
        assert result.pairs == expected

    @settings(max_examples=50)
    @given(st.lists(st.tuples(gt_sides, sides), min_size=1, max_size=3))
    def test_evaluate_map_equals_scalar_greedy(self, frames):
        names = tuple(f"j{k}" for k in range(J))
        gt = sequence([(t, True, g) for t, (g, _) in enumerate(frames)], joint_names=names)
        pred = sequence([(t, True, p) for t, (_, p) in enumerate(frames)], joint_names=names)
        assert evaluate_map(gt, pred).map_per_joint == scalar_map(gt, pred)

    @settings(max_examples=40)
    @given(gt_sides.filter(bool), sides.filter(bool))
    def test_perfect_keypoints_overlaps_are_scalar_iou(self, gt, pred):
        names = tuple(f"j{k}" for k in range(J))
        out = perfect_keypoints(
            sequence([(0, True, gt)], joint_names=names),
            sequence([(0, True, pred)], joint_names=names),
        )
        overlaps = np.array([[iou(g.box, p.box) for p in pred] for g in gt])
        rows, cols = linear_sum_assignment(-overlaps)
        replaced = {int(k): gt[int(i)] for i, k in zip(rows, cols) if overlaps[i, k] > 0}
        for k, det in enumerate(out.frames[0].detections):
            source = replaced.get(k)
            expected = pred[k].pose if source is None else Pose(
                tuple(Keypoint(g.x, g.y, 1.0, g.present) for g in source.pose.joints)
            )
            assert det.pose == expected


def scalar_map(gt, pred, alpha=0.5):
    """Per-joint AP with the scalar greedy claims: per prediction in score
    order, the first unclaimed ground-truth pose with the most correct joints."""
    scored = [[] for _ in range(J)]
    n_gt = [0] * J
    for g_frame, p_frame in zip(gt.frames, pred.frames):
        gts, preds = g_frame.detections, p_frame.detections
        for g in gts:
            for j, k in enumerate(g.pose.joints):
                n_gt[j] += k.present
        claimed, taken = {}, set()
        for pi in sorted(range(len(preds)), key=lambda k: (-preds[k].score, k)):
            best, best_overlap = None, 0
            for gi, g in enumerate(gts):
                overlap = 0 if gi in taken else _correct_joint_count(g, preds[pi], alpha)
                if overlap > best_overlap:
                    best, best_overlap = gi, overlap
            if best is not None:
                claimed[pi] = best
                taken.add(best)
        for pi, p in enumerate(preds):
            g = gts[claimed[pi]] if pi in claimed else None
            for j, pk in enumerate(p.pose.joints):
                if pk.present:
                    hit = g is not None and g.pose.joints[j].present and pckh_correct(
                        g.pose.joints[j], pk, head_size(g.head_box), alpha
                    )
                    scored[j].append((p.score, hit))
    return tuple(
        100.0 * _average_precision(scored[j], n_gt[j]) if n_gt[j] else None for j in range(J)
    )


def test_keypoint_array_masks_absent_joints():
    joints = (Keypoint(1.0, 2.0, 1.0), Keypoint(math.inf, math.nan, 0.0, False))
    arr = keypoint_array([Detection(Box(0, 0, 1, 1), 1.0, Pose(joints))])
    assert arr.shape == (1, 2, 2)
    assert arr[0, 0].tolist() == [1.0, 2.0]
    assert np.isnan(arr[0, 1]).all()
