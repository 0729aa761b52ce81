import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from poselink.model import Box
from poselink.similarity import iou
from poselink.tube import (
    LABEL_BG,
    LABEL_IGNORE,
    AnchorGrid,
    DEFAULT_GRID,
    FeatureVolume,
    Tube,
    TubeAnchor,
    TubeDeltas,
    assign_anchors,
    decode_keypoint_heatmap,
    decode_tube_deltas,
    encode_tube_deltas,
    generate_anchors,
    inflate_2d_filter,
    spatiotemporal_roi_align,
    tracking_loss,
    tube_overlap,
)

from helpers import correlate2d_multi, correlate3d_multi, roi_align_oracle


def box_from_center(cx, cy, w, h):
    return Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


@st.composite
def tube_anchor_pairs(draw):
    t = draw(st.integers(1, 4))
    center = st.floats(-500, 500, allow_nan=False)
    size = st.floats(0.5, 300, allow_nan=False)
    anchor = TubeAnchor(box_from_center(draw(center), draw(center), draw(size), draw(size)), t)
    boxes = tuple(
        box_from_center(draw(center), draw(center), draw(size), draw(size)) for _ in range(t)
    )
    return Tube(boxes), anchor


class TestAnchors:
    def test_default_grid_has_twelve_per_position(self):
        assert DEFAULT_GRID.anchors_per_position == 12

    def test_four_cells_on_a_16px_image(self):
        grid = AnchorGrid(scales=(8.0,), aspects=(1.0,), stride=8)
        anchors = generate_anchors(grid, 16, 16, length=3)
        centers = [a.base.center for a in anchors]
        assert centers == [(4.0, 4.0), (12.0, 4.0), (4.0, 12.0), (12.0, 12.0)]
        assert all(a.length == 3 for a in anchors)

    def test_count_rounds_up_for_partial_cells(self):
        grid = AnchorGrid(scales=(8.0, 16.0), aspects=(0.5, 1.0, 2.0), stride=8)
        anchors = generate_anchors(grid, 20, 9, 1)
        assert len(anchors) == 6 * math.ceil(20 / 8) * math.ceil(9 / 8)

    def test_unit_aspect_gives_square_of_scale_size(self):
        grid = AnchorGrid(scales=(32.0,), aspects=(1.0,), stride=8)
        a = generate_anchors(grid, 8, 8, 1)[0]
        assert a.base.width == pytest.approx(32.0)
        assert a.base.height == pytest.approx(32.0)

    def test_aspect_preserves_area(self):
        grid = AnchorGrid(scales=(64.0,), aspects=(0.5, 2.0), stride=8)
        for anchor in generate_anchors(grid, 8, 8, 1):
            assert anchor.base.area == pytest.approx(64.0 ** 2)
            ratio = anchor.base.width / anchor.base.height
            assert ratio in (pytest.approx(0.5), pytest.approx(2.0))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            AnchorGrid(scales=(), aspects=(1.0,))


class TestDeltas:
    def test_anchor_encodes_to_zero(self):
        anchor = TubeAnchor(box_from_center(5, 5, 10, 10), 2)
        deltas = encode_tube_deltas(anchor.as_tube(), anchor)
        assert deltas.values == (0.0,) * 8

    def test_hand_example(self):
        anchor = TubeAnchor(box_from_center(5, 5, 10, 10), 1)
        target = Tube((box_from_center(6, 5, 20, 10),))
        deltas = encode_tube_deltas(target, anchor)
        assert deltas.values == pytest.approx((0.1, 0.0, math.log(2), 0.0))

    def test_zero_deltas_decode_to_anchor(self):
        anchor = TubeAnchor(box_from_center(1, 2, 3, 4), 3)
        assert decode_tube_deltas(TubeDeltas((0.0,) * 12), anchor) == anchor.as_tube()

    def test_hand_example_inverse(self):
        anchor = TubeAnchor(box_from_center(5, 5, 10, 10), 1)
        tube = decode_tube_deltas(TubeDeltas((0.1, 0.0, math.log(2), 0.0)), anchor)
        assert tube.boxes[0].center == pytest.approx((6.0, 5.0))
        assert tube.boxes[0].width == pytest.approx(20.0)

    @settings(max_examples=200)
    @given(tube_anchor_pairs())
    def test_round_trip(self, pair):
        tube, anchor = pair
        decoded = decode_tube_deltas(encode_tube_deltas(tube, anchor), anchor)
        for orig, back in zip(tube.boxes, decoded.boxes):
            for a, b in zip(
                (orig.x_min, orig.y_min, orig.x_max, orig.y_max),
                (back.x_min, back.y_min, back.x_max, back.y_max),
            ):
                assert b == pytest.approx(a, rel=1e-9, abs=1e-9)

    def test_degenerate_target_rejected(self):
        anchor = TubeAnchor(box_from_center(0, 0, 10, 10), 1)
        with pytest.raises(ValueError, match="positive"):
            encode_tube_deltas(Tube((Box(0, 0, 0, 5),)), anchor)

    def test_length_mismatch_rejected(self):
        anchor = TubeAnchor(box_from_center(0, 0, 10, 10), 2)
        with pytest.raises(ValueError, match="length"):
            encode_tube_deltas(Tube((box_from_center(0, 0, 5, 5),)), anchor)
        with pytest.raises(ValueError, match="length"):
            decode_tube_deltas(TubeDeltas((0.0,) * 4), anchor)


class TestTubeOverlap:
    def test_identical(self):
        tube = Tube((Box(0, 0, 4, 4), Box(1, 1, 5, 5)))
        assert tube_overlap(tube, tube) == 1.0

    def test_disjoint(self):
        a = Tube((Box(0, 0, 1, 1),) * 2)
        b = Tube((Box(5, 5, 6, 6),) * 2)
        assert tube_overlap(a, b) == 0.0

    def test_mean_of_per_frame_ious(self):
        a = Tube((Box(0, 0, 2, 2), Box(0, 0, 2, 2)))
        b = Tube((Box(0, 0, 2, 2), Box(10, 10, 12, 12)))
        assert tube_overlap(a, b) == pytest.approx(0.5)

    def test_single_frame_equals_iou(self):
        x, y = Box(0, 0, 2, 2), Box(1, 1, 3, 3)
        assert tube_overlap(Tube((x,)), Tube((y,))) == iou(x, y)

    @given(tube_anchor_pairs())
    def test_symmetric(self, pair):
        tube, anchor = pair
        other = anchor.as_tube()
        assert tube_overlap(tube, other) == pytest.approx(tube_overlap(other, tube))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            tube_overlap(Tube((Box(0, 0, 1, 1),)), Tube((Box(0, 0, 1, 1),) * 2))


class TestAssignAnchors:
    def _anchors_with_overlaps(self):
        gt = Tube((box_from_center(0, 0, 10, 10),))
        # overlaps with gt: 1.0, ~0.5 (ignore band), small (bg)
        a_fg = TubeAnchor(box_from_center(0, 0, 10, 10), 1)
        a_mid = TubeAnchor(box_from_center(0, 2.9, 10, 10), 1)
        a_bg = TubeAnchor(box_from_center(30, 0, 10, 10), 1)
        return [a_fg, a_mid, a_bg], [gt]

    def test_threshold_bands(self):
        anchors, gts = self._anchors_with_overlaps()
        labels = assign_anchors(anchors, gts)
        assert labels[0] == 0
        assert labels[1] == LABEL_IGNORE
        assert labels[2] == LABEL_BG

    def test_best_anchor_per_gt_forced_foreground(self):
        gt = Tube((box_from_center(0, 0, 10, 10),))
        weak = TubeAnchor(box_from_center(6, 0, 10, 10), 1)  # overlap well below fg
        labels = assign_anchors([weak], [gt])
        assert labels[0] == 0

    def test_no_ground_truth_means_all_background(self):
        anchors, _ = self._anchors_with_overlaps()
        assert list(assign_anchors(anchors, [])) == [LABEL_BG] * 3

    def test_threshold_validation(self):
        anchors, gts = self._anchors_with_overlaps()
        with pytest.raises(ValueError):
            assign_anchors(anchors, gts, fg_thresh=0.3, bg_thresh=0.7)


class TestTrackingLoss:
    def test_exact_regression_has_zero_loss(self):
        pred = np.zeros((2, 4))
        logits = np.array([[0.0, 5.0], [5.0, 0.0]])
        labels = np.array([0, LABEL_BG])
        _, reg = tracking_loss(pred, pred, logits, labels, length=1)
        assert reg == 0.0

    def test_half_pixel_error_single_frame(self):
        pred = np.array([[0.5, 0.0, 0.0, 0.0]])
        target = np.zeros((1, 4))
        logits = np.array([[0.0, 1.0]])
        labels = np.array([0])
        _, reg = tracking_loss(pred, target, logits, labels, length=1)
        assert reg == pytest.approx(0.125)

    def test_temporal_scaling_cancels_replication(self):
        # the same 0.5 error on one coordinate of each of 3 frames
        pred = np.zeros((1, 12))
        pred[0, 0] = pred[0, 4] = pred[0, 8] = 0.5
        target = np.zeros((1, 12))
        logits = np.array([[0.0, 1.0]])
        labels = np.array([0])
        _, reg = tracking_loss(pred, target, logits, labels, length=3)
        assert reg == pytest.approx(0.125)

    def test_smooth_l1_linear_branch(self):
        pred = np.array([[3.0, 0.0, 0.0, 0.0]])
        target = np.zeros((1, 4))
        _, reg = tracking_loss(pred, target, np.array([[0.0, 1.0]]), np.array([0]), 1)
        assert reg == pytest.approx(2.5)  # |3| - 0.5

    def test_cls_loss_uniform_logits(self):
        logits = np.zeros((4, 2))
        labels = np.array([0, LABEL_BG, LABEL_IGNORE, 1])
        cls, _ = tracking_loss(np.zeros((4, 4)), np.zeros((4, 4)), logits, labels, 1)
        assert cls == pytest.approx(math.log(2))  # three scored anchors, all uniform

    def test_no_foreground_gives_zero_reg(self):
        labels = np.array([LABEL_BG, LABEL_IGNORE])
        _, reg = tracking_loss(np.ones((2, 4)), np.zeros((2, 4)), np.zeros((2, 2)), labels, 1)
        assert reg == 0.0


class TestRoiAlign:
    def test_constant_volume_preserved(self):
        vol = FeatureVolume(np.full((2, 3, 8, 8), 7.5), stride=1)
        tube = Tube((Box(1, 1, 7, 7), Box(2, 2, 6, 6)))
        out = spatiotemporal_roi_align(vol, tube, resolution=3)
        assert out.shape == (2, 3, 3, 3)
        assert np.allclose(out, 7.5)

    def test_center_sample_of_two_by_two(self):
        data = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])  # (T=1, C=1, 2, 2)
        vol = FeatureVolume(data, stride=1)
        tube = Tube((Box(0, 0, 2, 2),))
        out = spatiotemporal_roi_align(vol, tube, resolution=1, samples_per_bin=1)
        assert out[0, 0, 0, 0] == pytest.approx(2.5)

    def test_matches_independent_bilinear_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = int(rng.integers(1, 4))
            c = int(rng.integers(1, 3))
            h = int(rng.integers(4, 10))
            w = int(rng.integers(4, 10))
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

    def test_time_constant_input_gives_identical_slices(self):
        rng = np.random.default_rng(1)
        plane = rng.normal(size=(2, 6, 6))
        vol = FeatureVolume(np.stack([plane] * 3), stride=1)
        tube = Tube((Box(0.7, 0.7, 5.1, 4.9),) * 3)
        out = spatiotemporal_roi_align(vol, tube, resolution=2)
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])

    def test_single_frame_is_plain_2d_roialign(self):
        rng = np.random.default_rng(2)
        vol3 = FeatureVolume(rng.normal(size=(3, 1, 6, 6)), stride=1)
        vol1 = FeatureVolume(vol3.data[1:2], stride=1)
        box = Box(1.0, 0.5, 5.0, 5.5)
        full = spatiotemporal_roi_align(vol3, Tube((box,) * 3), 2)
        single = spatiotemporal_roi_align(vol1, Tube((box,)), 2)
        assert np.array_equal(full[1], single[0])

    def test_bad_resolution_rejected(self):
        vol = FeatureVolume(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ValueError, match="resolution"):
            spatiotemporal_roi_align(vol, Tube((Box(0, 0, 4, 4),)), 0)

    def test_length_mismatch_rejected(self):
        vol = FeatureVolume(np.zeros((2, 1, 4, 4)))
        with pytest.raises(ValueError, match="length"):
            spatiotemporal_roi_align(vol, Tube((Box(0, 0, 4, 4),)), 2)


class TestHeatmapDecode:
    def test_one_hot_peak_maps_to_bin_center(self):
        maps = np.zeros((1, 4, 4))
        maps[0, 1, 1] = 10.0
        pose = decode_keypoint_heatmap(maps, Box(0, 0, 8, 8))
        assert tuple(pose.xy[0]) == (3.0, 3.0)

    def test_uniform_heatmap_tie_rule_and_score(self):
        maps = np.zeros((1, 4, 4))
        pose = decode_keypoint_heatmap(maps, Box(0, 0, 8, 8))
        assert tuple(pose.xy[0]) == (1.0, 1.0)  # bin (0, 0)
        assert pose.score[0] == pytest.approx(1 / 16)

    def test_box_scaling_scales_coordinates(self):
        maps = np.zeros((1, 4, 4))
        maps[0, 2, 3] = 1.0
        small = decode_keypoint_heatmap(maps, Box(0, 0, 8, 8)).xy[0]
        big = decode_keypoint_heatmap(maps, Box(0, 0, 16, 16)).xy[0]
        assert (big[0], big[1]) == (2 * small[0], 2 * small[1])

    def test_scores_are_softmax_probabilities(self):
        rng = np.random.default_rng(3)
        maps = rng.normal(size=(5, 6, 6))
        pose = decode_keypoint_heatmap(maps, Box(0, 0, 12, 12))
        for j, joint_score in enumerate(pose.score):
            flat = maps[j].reshape(-1)
            probs = np.exp(flat - flat.max())
            probs /= probs.sum()
            assert probs.sum() == pytest.approx(1.0)
            assert joint_score == pytest.approx(float(probs.max()))

    def test_non_finite_heatmap_rejected(self):
        maps = np.zeros((1, 2, 2))
        maps[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            decode_keypoint_heatmap(maps, Box(0, 0, 4, 4))


class TestInflation:
    def test_single_slice_is_identity_for_both_modes(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(2, 3, 3, 3))
        for mode in ("center", "mean"):
            out = inflate_2d_filter(w, 1, mode)
            assert out.shape == (2, 3, 1, 3, 3)
            assert np.array_equal(out[:, :, 0], w)

    def test_mean_mode_preserves_temporal_sum(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 2, 3, 3))
        out = inflate_2d_filter(w, 3, "mean")
        assert np.allclose(out.sum(axis=2), w)
        assert np.allclose(out[:, :, 0], w / 3)

    def test_center_mode_matches_2d_conv_on_static_clips(self):
        rng = np.random.default_rng(6)
        w2d = rng.normal(size=(2, 3, 3, 3))
        w3d = inflate_2d_filter(w2d, 3, "center")
        frame = rng.normal(size=(3, 8, 8))
        clip = np.repeat(frame[:, None], 5, axis=1)  # (C_in, T, H, W), constant in time
        out3d = correlate3d_multi(clip, w3d, t_pad=1)
        out2d = correlate2d_multi(frame, w2d)
        assert out3d.shape[1] == 5
        for t in range(out3d.shape[1]):
            assert np.max(np.abs(out3d[:, t] - out2d)) < 1e-6

    def test_even_temporal_extent_rejected_for_center(self):
        w = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError, match="odd"):
            inflate_2d_filter(w, 2, "center")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            inflate_2d_filter(np.zeros((1, 1, 3, 3)), 3, "edges")
