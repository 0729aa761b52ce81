import math
import warnings

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
    TubeAnchors,
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

from helpers import corners, correlate2d_multi, correlate3d_multi, roi_align_oracle, roi_align_per_frame


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

    @pytest.mark.parametrize("kwargs, field", [
        ({"stride": 0}, "stride"),
        ({"stride": -8}, "stride"),
        ({"stride": 8.0}, "stride"),
        ({"stride": True}, "stride"),
        ({"scales": (32.0, 0.0)}, "scales"),
        ({"scales": (math.inf,)}, "scales"),
        ({"scales": (math.nan,)}, "scales"),
        ({"aspects": (-1.0,)}, "aspects"),
        ({"aspects": (1.0, math.nan)}, "aspects"),
        ({"aspects": ("2",)}, "aspects"),
    ])
    def test_bad_grid_value_names_the_field(self, kwargs, field):
        args = {"scales": (32.0,), "aspects": (1.0,), **kwargs}
        with pytest.raises(ValueError, match=f"^{field} ") as exc:
            AnchorGrid(**args)
        assert "\n" not in str(exc.value)

    def test_numpy_integer_stride_is_accepted(self):
        grid = AnchorGrid(scales=(8.0,), aspects=(1.0,), stride=np.int64(8))
        assert len(generate_anchors(grid, 16, 16)) == 4


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

    @pytest.mark.parametrize("values, index", [
        ((0.0, 0.0, math.inf, 0.0), 2),
        ((0.0,) * 5 + (math.nan, 0.0, 0.0), 5),
        ((-math.inf, 0.0, 0.0, 0.0), 0),
    ])
    def test_non_finite_delta_names_its_index(self, values, index):
        with pytest.raises(ValueError, match=f"^delta value {index} is not finite"):
            TubeDeltas(values)

    @pytest.mark.parametrize("values, frame", [
        ((0.0, 0.0, 1000.0, 0.0), 0),  # exp overflows
        ((0.0,) * 4 + (0.0, 0.0, 0.0, 709.0), 1),  # exp is finite, the height is not
        ((0.0,) * 4 + (1e307, 0.0, 0.0, 0.0), 1),  # the center overflows
    ])
    def test_overflowing_decode_names_the_frame(self, values, frame):
        anchor = TubeAnchor(box_from_center(0, 0, 100, 100), len(values) // 4)
        with pytest.raises(ValueError, match=f"^deltas of frame {frame} decode to a box beyond"):
            decode_tube_deltas(TubeDeltas(values), anchor)

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
        a_fg = box_from_center(0, 0, 10, 10)
        a_mid = box_from_center(0, 2.9, 10, 10)
        a_bg = box_from_center(30, 0, 10, 10)
        return TubeAnchors([corners(b) for b in (a_fg, a_mid, a_bg)], 1), [gt]

    def test_threshold_bands(self):
        anchors, gts = self._anchors_with_overlaps()
        labels = assign_anchors(anchors, gts)
        assert labels[0] == 0
        assert labels[1] == LABEL_IGNORE
        assert labels[2] == LABEL_BG

    def test_best_anchor_per_gt_forced_foreground(self):
        gt = Tube((box_from_center(0, 0, 10, 10),))
        weak = box_from_center(6, 0, 10, 10)  # overlap well below fg
        labels = assign_anchors(TubeAnchors([corners(weak)], 1), [gt])
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position, name", [
        (0, "pred_deltas"), (1, "target_deltas"), (2, "cls_logits"),
    ])
    def test_non_finite_entry_names_the_argument(self, position, name, bad):
        args = [np.zeros((2, 4)), np.zeros((2, 4)), np.zeros((2, 2))]
        args[position][1, 1] = bad
        with pytest.raises(ValueError, match=f"^{name} has a non-finite entry$"):
            tracking_loss(*args, np.array([0, LABEL_BG]), 1)


ROI_BOX_KINDS = ("straddle", "outside", "degenerate", "centres")


def roi_box(rng, kind: str, stride: int, h: int, w: int, n: int) -> Box:
    """A random box in image coordinates for n x n samples on an h x w grid.

    straddle: corners up to two cells outside the grid, so most boxes cross
    its edge. outside: wholly beyond one edge, up to three cells out.
    degenerate: zero width, zero height or both. centres: starts on a whole
    cell and is n cells wide and high, so every sample sits on a cell centre.
    """
    def span(size):
        if kind == "straddle":
            return np.sort(rng.uniform(-2, size + 2, size=2))
        if kind == "outside":
            lo, hi = np.sort(rng.uniform(0, 3, size=2))
            return (size + lo, size + hi) if rng.random() < 0.5 else (-hi, -lo)
        if kind == "centres":
            lo = float(rng.integers(-2, size + 1))
            return lo, lo + n
        lo = rng.uniform(-2, size + 2)
        return lo, lo + rng.choice([0.0, rng.uniform(0, 3)])

    (x1, x2), (y1, y2) = span(w), span(h)
    if kind == "outside" and rng.random() < 0.5:
        y1, y2 = rng.uniform(-2, 0), rng.uniform(h, h + 2)  # beyond one edge in x only
    if kind == "degenerate" and x1 != x2 and y1 != y2:
        y2 = y1
    return Box(*(float(c) * stride for c in (x1, y1, x2, y2)))


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

    @pytest.mark.parametrize("stride", [1, 2, 8])
    @pytest.mark.parametrize("kind", ROI_BOX_KINDS)
    def test_equals_per_frame_roialign_bit_for_bit(self, kind, stride):
        rng = np.random.default_rng([ROI_BOX_KINDS.index(kind), stride])
        for case in range(50):
            t = 1 + case % 4
            c, h, w = (int(v) for v in rng.integers(1, [9, 21, 31]))
            r, s = (int(v) for v in rng.integers(1, [9, 4]))
            vol = FeatureVolume(rng.normal(size=(t, c, h, w)), stride=stride)
            tube = Tube(tuple(roi_box(rng, kind, stride, h, w, r * s) for _ in range(t)))
            mine = spatiotemporal_roi_align(vol, tube, r, s)
            assert mine.shape == (t, c, r, r)
            assert np.array_equal(mine, roi_align_per_frame(vol, tube, r, s)), (case, tube)

    @pytest.mark.parametrize("stride", [1, 8])
    @pytest.mark.parametrize("far", [
        Box(1e19, 1e19, 1e19, 1e19),
        Box(1e300, 1e300, 1e300, 1e300),
        Box(-1e300, -1e300, -1e300, -1e300),
        Box(-1e300, -1e300, 1e300, 1e300),
        Box(1e299, -1e300, 1e300, -1e299),
    ])
    def test_far_away_box_reads_zero_without_warning(self, far, stride):
        rng = np.random.default_rng(3)
        vol = FeatureVolume(rng.normal(size=(2, 3, 5, 6)), stride=stride)
        near = Box(0.5 * stride, 0.0, 4.0 * stride, 3.5 * stride)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = spatiotemporal_roi_align(vol, Tube((far, near)), 2)
        assert np.array_equal(out[0], np.zeros((3, 2, 2)))
        assert np.array_equal(out[1], roi_align_per_frame(vol, Tube((near, near)), 2, 2)[1])

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

    @pytest.mark.parametrize("stride", [0, -8, 2.5, True])
    def test_bad_stride_is_rejected_as_the_grid_rejects_it(self, stride):
        with pytest.raises(ValueError) as grid_exc:
            AnchorGrid(scales=(8.0,), aspects=(1.0,), stride=stride)
        with pytest.raises(ValueError, match="^stride ") as exc:
            FeatureVolume(np.zeros((1, 2, 4, 4)), stride=stride)
        assert str(exc.value) == str(grid_exc.value)
        assert "\n" not in str(exc.value)


class TestHeatmapDecode:
    def test_one_hot_peak_maps_to_bin_center(self):
        maps = np.zeros((1, 4, 4))
        maps[0, 1, 1] = 10.0
        xy, _ = decode_keypoint_heatmap(maps, Box(0, 0, 8, 8))
        assert tuple(xy[0]) == (3.0, 3.0)

    def test_uniform_heatmap_tie_rule_and_score(self):
        maps = np.zeros((1, 4, 4))
        xy, score = decode_keypoint_heatmap(maps, Box(0, 0, 8, 8))
        assert tuple(xy[0]) == (1.0, 1.0)  # bin (0, 0)
        assert score[0] == pytest.approx(1 / 16)

    def test_box_scaling_scales_coordinates(self):
        maps = np.zeros((1, 4, 4))
        maps[0, 2, 3] = 1.0
        small = decode_keypoint_heatmap(maps, Box(0, 0, 8, 8))[0][0]
        big = decode_keypoint_heatmap(maps, Box(0, 0, 16, 16))[0][0]
        assert (big[0], big[1]) == (2 * small[0], 2 * small[1])

    def test_scores_are_softmax_probabilities(self):
        rng = np.random.default_rng(3)
        maps = rng.normal(size=(5, 6, 6))
        xy, score = decode_keypoint_heatmap(maps, Box(0, 0, 12, 12))
        assert xy.shape == (5, 2)
        for j, joint_score in enumerate(score):
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
