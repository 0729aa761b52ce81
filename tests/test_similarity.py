import math
import re

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from poselink.model import Box, Detections
from poselink.similarity import (
    CRITERION_KINDS,
    CostMatrix,
    SimilarityCriterion,
    build_cost_matrix,
)

from helpers import box_of, feature_cosine, iou, person, pose_of, pose_pckh_similarity, translate


def pckh(a: Detections, b: Detections) -> float:
    """pose_pckh_similarity of two one-row detections."""
    return pose_pckh_similarity(*pose_of(a), *pose_of(b), box_of(a))


finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw, min_size=0.0):
    x1, x2 = sorted([draw(finite), draw(finite)])
    y1, y2 = sorted([draw(finite), draw(finite)])
    return Box(x1, y1, x2 + min_size, y2 + min_size)


class TestIou:
    def test_identical_boxes(self):
        b = Box(2, 3, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_partial_overlap_hand_value(self):
        # intersection 1, union 4 + 4 - 1 = 7
        assert iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1 / 7)

    def test_degenerate_boxes_return_zero(self):
        point = Box(1, 1, 1, 1)
        assert iou(point, point) == 0.0

    @given(boxes(), boxes())
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(boxes(min_size=0.01), boxes(min_size=0.01), st.floats(-100, 100, allow_nan=False))
    def test_translation_invariant(self, a, b, d):
        # spans below float resolution would be absorbed by the offset
        assert iou(translate(a, d, -d), translate(b, d, -d)) == pytest.approx(iou(a, b), abs=1e-6)

    @given(boxes(min_size=1.0), boxes(min_size=1.0), st.sampled_from([0.5, 2.0, 4.0]))
    def test_scale_invariant(self, a, b, s):
        def scaled(box):
            return Box(box.x_min * s, box.y_min * s, box.x_max * s, box.y_max * s)

        assert iou(scaled(a), scaled(b)) == pytest.approx(iou(a, b), abs=1e-9)

    @given(boxes(min_size=0.5))
    def test_unity_only_for_identical(self, a):
        shifted = translate(a, 0.1 * (a.width + 1), 0.0)
        assert iou(a, shifted) < 1.0


class TestPckhSimilarity:
    def test_identical_poses(self):
        a = person([(0, 0), (10, 10), (20, 20)])
        assert pckh(a, a) == 1.0

    def test_all_joints_far(self):
        a = person([(0, 0), (10, 10), (20, 20)])
        # threshold = 0.5 * 0.1 * diag; move everything 10x past it
        shift = 10 * 0.5 * 0.1 * math.hypot(box_of(a).width, box_of(a).height) + 1
        b = person([(x + shift, y) for x, y in [(0, 0), (10, 10), (20, 20)]])
        assert pckh(a, b) == 0.0

    def test_fraction_of_correct_joints(self):
        coords = [(float(10 * i), 0.0) for i in range(15)]
        a = person(coords)
        threshold = 0.5 * 0.1 * math.hypot(box_of(a).width, box_of(a).height)
        moved = [
            (x, y) if i < 9 else (x, y + 2 * threshold) for i, (x, y) in enumerate(coords)
        ]
        b = person(moved)
        assert pckh(a, b) == pytest.approx(0.6)

    def test_no_shared_joints_gives_zero(self):
        a = person([(0, 0), (1, 1)], present=[True, False])
        b = person([(0, 0), (1, 1)], present=[False, True])
        assert pckh(a, b) == 0.0

    @given(st.integers(1, 6), st.data())
    def test_value_is_a_joint_count_fraction(self, n, data):
        coords_a = [(data.draw(finite), data.draw(finite)) for _ in range(n)]
        coords_b = [(data.draw(finite), data.draw(finite)) for _ in range(n)]
        sim = pckh(person(coords_a), person(coords_b))
        assert any(math.isclose(sim, k / n) for k in range(n + 1))


class TestFeatureCosine:
    def test_self_similarity(self):
        assert feature_cosine((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert feature_cosine((1.0, 0.0), (0.0, 1.0)) == pytest.approx(0.0)

    def test_antiparallel(self):
        assert feature_cosine((1.0, 2.0), (-1.0, -2.0)) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            feature_cosine((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_zero_vector_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="zero-norm"):
            assert feature_cosine((0.0, 0.0), (1.0, 2.0)) == 0.0


class TestCostMatrix:
    def test_single_identical_detection(self):
        det = person([(0, 0), (5, 5), (10, 10)])
        m = build_cost_matrix(det, det, SimilarityCriterion("bbox_iou"))
        assert m.similarity[0, 0] == 1.0
        assert m.cost[0, 0] == -1.0

    def test_cost_is_negated_similarity(self):
        prev = Detections.concat([person([(0, 0), (5, 5), (9, 9)]), person([(50, 50), (55, 55), (60, 60)])])
        curr = person([(1, 1), (6, 6), (10, 10)])
        m = build_cost_matrix(prev, curr, SimilarityCriterion("bbox_iou"))
        assert np.array_equal(m.cost, -m.similarity)

    def test_combined_degenerate_weights_equal_iou(self):
        prev = Detections.concat([person([(0, 0), (5, 5), (9, 9)]), person([(50, 50), (55, 55), (60, 60)])])
        curr = Detections.concat([person([(1, 1), (6, 6), (10, 10)]), person([(48, 50), (56, 54), (61, 59)])])
        a = build_cost_matrix(prev, curr, SimilarityCriterion("bbox_iou"))
        b = build_cost_matrix(prev, curr, SimilarityCriterion("combined", weights=(1, 0, 0)))
        assert np.array_equal(a.similarity, b.similarity)

    def test_entries_match_direct_pairwise_ops(self):
        prev = [
            person([(0, 0), (5, 5), (9, 9)], feature=(1.0, 0.0)),
            person([(50, 50), (55, 55), (60, 60)], feature=(0.0, 1.0)),
        ]
        curr = [
            person([(1, 1), (6, 6), (10, 10)], feature=(1.0, 1.0)),
            person([(48, 50), (56, 54), (61, 59)], feature=(0.4, -0.3)),
            person([(100, 0), (105, 5), (110, 10)], feature=(-1.0, 0.2)),
        ]
        both = Detections.concat(prev), Detections.concat(curr)
        m_iou = build_cost_matrix(*both, SimilarityCriterion("bbox_iou"))
        m_pckh = build_cost_matrix(*both, SimilarityCriterion("pose_pckh"))
        m_cos = build_cost_matrix(*both, SimilarityCriterion("feature_cosine"))
        m_comb = build_cost_matrix(*both, SimilarityCriterion("combined", weights=(2, 1, 1)))
        assert m_iou.rows == 2 and m_iou.cols == 3
        for i, p in enumerate(prev):
            for j, c in enumerate(curr):
                s_iou = iou(box_of(p), box_of(c))
                s_pckh = pckh(p, c)
                s_cos = feature_cosine(p.features[0], c.features[0])
                assert m_iou.similarity[i, j] == s_iou
                assert m_pckh.similarity[i, j] == s_pckh
                assert m_cos.similarity[i, j] == s_cos
                expected = (2 * s_iou + s_pckh + 0.5 * (s_cos + 1)) / 4
                assert m_comb.similarity[i, j] == pytest.approx(expected)

    def test_iou_and_cosine_matrices_are_exact_transposes(self):
        a = person([(0, 0), (5, 5), (9, 9)], feature=(1.0, 0.5))
        b = Detections.concat([
            person([(1, 1), (6, 6), (10, 10)], feature=(0.2, 0.9)),
            person([(3, 3), (8, 8), (12, 12)], feature=(-0.5, 0.1)),
        ])
        for kind in ("bbox_iou", "feature_cosine"):
            fwd = build_cost_matrix(a, b, SimilarityCriterion(kind))
            rev = build_cost_matrix(b, a, SimilarityCriterion(kind))
            assert np.array_equal(fwd.similarity, rev.similarity.T)

    def test_combined_monotone_in_each_component(self):
        base = person([(0, 0), (5, 5), (9, 9)])
        near = person([(1, 1), (6, 6), (10, 10)])
        far = person([(30, 30), (35, 35), (39, 39)])
        crit = SimilarityCriterion("combined", weights=(1, 1, 0))
        s_near = build_cost_matrix(base, near, crit).similarity[0, 0]
        s_far = build_cost_matrix(base, far, crit).similarity[0, 0]
        assert s_near > s_far

    def test_missing_features_rejected(self):
        prev = person([(0, 0), (5, 5), (9, 9)])
        with pytest.raises(ValueError, match="feature"):
            build_cost_matrix(prev, prev, SimilarityCriterion("feature_cosine"))
        with pytest.raises(ValueError, match="feature"):
            build_cost_matrix(prev, prev, SimilarityCriterion("combined"))

    def test_zero_weight_skips_missing_features(self):
        prev = person([(0, 0), (5, 5), (9, 9)])
        m = build_cost_matrix(prev, prev, SimilarityCriterion("combined", weights=(1, 1, 0)))
        assert m.similarity[0, 0] == 1.0

    def test_external_lookup_and_default(self):
        prev = person([(0, 0), (5, 5), (9, 9)])
        curr = Detections.concat([person([(0, 0), (5, 5), (9, 9)]), person([(50, 50), (55, 55), (60, 60)])])
        crit = SimilarityCriterion("external", external_scores={(7, 0, 1): 0.25})
        m = build_cost_matrix(prev, curr, crit, frame_index=7)
        assert m.similarity[0, 1] == 0.25
        assert m.similarity[0, 0] == 0.0  # absent entries default to 0

    def test_external_requires_table_and_frame(self):
        prev = person([(0, 0), (5, 5), (9, 9)])
        with pytest.raises(ValueError, match="score table"):
            build_cost_matrix(prev, prev, SimilarityCriterion("external"), frame_index=0)
        crit = SimilarityCriterion("external", external_scores={})
        with pytest.raises(ValueError, match="frame_index"):
            build_cost_matrix(prev, prev, crit)

    def test_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            CostMatrix(np.array([[1.0, math.inf]]))

    def test_criterion_validation(self):
        with pytest.raises(ValueError):
            SimilarityCriterion("nope")
        with pytest.raises(ValueError):
            SimilarityCriterion("combined", weights=(-1, 1, 1))
        with pytest.raises(ValueError):
            SimilarityCriterion("combined", weights=(0, 0, 0))

    @pytest.mark.parametrize("kind", CRITERION_KINDS)
    @pytest.mark.parametrize("weights", [(), (1, 1), (1.0, 1.0, 1.0, 1.0)])
    def test_criterion_needs_three_weights(self, kind, weights):
        message = f"weights must hold three values (iou, pckh, cosine), got {weights!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimilarityCriterion(kind, weights=weights)

    @pytest.mark.parametrize("setting, value, message", [
        ("pckh_alpha", True, "pckh_alpha must be a real number, got True"),
        ("pckh_alpha", "0.5", "pckh_alpha must be a real number, got '0.5'"),
        ("pckh_alpha", None, "pckh_alpha must be a real number, got None"),
        ("pckh_norm_scale", np.bool_(True), "pckh_norm_scale must be a real number, got np.True_"),
        ("pckh_norm_scale", 1j, "pckh_norm_scale must be a real number, got 1j"),
        ("weights", 5, "weights must hold three values (iou, pckh, cosine), got 5"),
        ("weights", None, "weights must hold three values (iou, pckh, cosine), got None"),
        ("weights", {1: 1, 2: 2, 3: 3}, "weights must hold three values (iou, pckh, cosine), got {1: 1, 2: 2, 3: 3}"),
        ("weights", ("1", 1, 1), "weights must be real numbers, got ('1', 1, 1)"),
        ("weights", (1, True, 1), "weights must be real numbers, got (1, True, 1)"),
        ("weights", "111", "weights must be real numbers, got '111'"),
    ])
    @pytest.mark.parametrize("kind", ["pose_pckh", "combined"])
    def test_bad_setting_is_one_value_error_naming_it(self, kind, setting, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimilarityCriterion(kind, **{setting: value})

    def test_numpy_numbers_are_settings(self):
        prev = Detections.concat([person([(0, 0), (5, 5), (10, 10)]), person([(1, 0), (6, 5), (11, 9)])])
        curr = Detections.concat([person([(0, 1), (5, 6), (10, 11)]), person([(2, 0), (6, 4), (12, 10)])])
        given = SimilarityCriterion("combined", weights=(np.float32(2), np.int64(1), np.float64(0)),
                                    pckh_alpha=np.float64(0.3), pckh_norm_scale=np.float32(0.25))
        plain = SimilarityCriterion("combined", weights=(2.0, 1.0, 0.0), pckh_alpha=0.3, pckh_norm_scale=0.25)
        assert np.array_equal(build_cost_matrix(prev, curr, given).similarity,
                              build_cost_matrix(prev, curr, plain).similarity)
