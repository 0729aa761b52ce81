"""Differential tests: the array kernels against the scalar functions they replace.

The scalar functions (iou, pose_pckh_similarity, feature_cosine, pckh_correct,
_correct_joint_count and tube_overlap) stay in the package as the oracles; the
two pose functions take each pose as one detection row's xy and present arrays.
IoU, tube overlaps, anchor corners and every PCKh decision must agree
exactly; cosine terms agree to 1e-12. Loops that no longer exist in the
package (the anchor grid, anchor assignment and the AP envelope) are kept
here as the reference, and so is the per-pair evaluate_mot loop that the
shared sequence match replaced. evaluate_mot's counts are also checked
against clear_mot_counts, the CLEAR-MOT accumulator in helpers.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.optimize import linear_sum_assignment

from poselink.metrics import (
    EvalReport,
    _average_precision,
    _correct_joint_count,
    correct_joint_mask,
    evaluate_map,
    evaluate_mot,
    head_size,
    match_poses_frame,
    match_sequence,
    pckh_correct,
)
from poselink.model import NO_DETECTIONS, Box, Detections
from poselink.oracles import perfect_keypoints
from poselink.similarity import (
    SimilarityCriterion,
    build_cost_matrix,
    feature_cosine,
    iou,
    joints_within,
    keypoint_array,
    pairwise_iou,
    pose_pckh_similarity,
)
from poselink.tube import (
    LABEL_BG,
    LABEL_IGNORE,
    AnchorGrid,
    DEFAULT_GRID,
    Tube,
    TubeAnchor,
    TubeAnchors,
    assign_anchors,
    generate_anchors,
    pairwise_tube_overlap,
    tube_overlap,
)

from helpers import box_of, clear_mot_counts, corners, detection, head_box_of, pose_of, sequence, unmatched

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
        return (draw(coord), draw(coord), 2.0, True)
    # absent joints may hold any coordinates, non-finite ones included
    return (draw(st.one_of(coord, junk)), draw(st.one_of(coord, junk)), 0.0, False)


features = st.one_of(
    st.just((0.0, 0.0, 0.0)),
    st.tuples(*[st.integers(-3, 3).map(float)] * 3),
    st.tuples(*[fine] * 3),
)


@st.composite
def detections(draw, gt=False):
    """One detection row."""
    head = draw(boxes().filter(lambda b: b.diagonal > 0)) if gt else None
    return detection(
        box=draw(boxes()),
        score=draw(st.sampled_from([0.5, 0.75, 1.0])),
        keypoints=[draw(keypoints()) for _ in range(J)],
        feature=draw(features),
        track_id=draw(st.integers(0, 3)) if gt else None,
        head_box=head,
    )


sides = st.lists(detections(), max_size=4)
gt_sides = st.lists(detections(gt=True), max_size=4)


def rows(dets):
    """Each row of dets as a one-row Detections."""
    return [dets.take([i]) for i in range(len(dets))]


def correct_count(g, p, alpha):
    """_correct_joint_count of one-row ground truth g and prediction p."""
    return _correct_joint_count(*pose_of(g), *pose_of(p), head_box_of(g), alpha)


def scalar_similarity(p, c, crit):
    """One entry of the cost matrix, the way the scalar criteria define it."""
    pckh = lambda: pose_pckh_similarity(
        *pose_of(p), *pose_of(c), box_of(p), crit.pckh_alpha, crit.pckh_norm_scale
    )
    if crit.kind == "bbox_iou":
        return iou(box_of(p), box_of(c))
    if crit.kind == "pose_pckh":
        return pckh()
    if crit.kind == "feature_cosine":
        return feature_cosine(p.features[0], c.features[0])
    w_iou, w_pckh, w_cos = crit.weights
    s = 0.0
    if w_iou > 0:
        s += w_iou * iou(box_of(p), box_of(c))
    if w_pckh > 0:
        s += w_pckh * pckh()
    if w_cos > 0:
        s += w_cos * 0.5 * (feature_cosine(p.features[0], c.features[0]) + 1.0)
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
        sim = pairwise_iou(Detections.concat(prev).boxes, Detections.concat(curr).boxes)
        expected, _ = scalar_matrix(prev, curr, SimilarityCriterion("bbox_iou"))
        assert sim.shape == expected.shape
        assert np.array_equal(sim, expected)

    @settings(max_examples=75)
    @given(sides, sides, st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([0.1, 0.25]))
    def test_pckh_is_exact(self, prev, curr, alpha, norm_scale):
        crit = SimilarityCriterion("pose_pckh", pckh_alpha=alpha, pckh_norm_scale=norm_scale)
        sim = build_cost_matrix(Detections.concat(prev), Detections.concat(curr), crit).similarity
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
            sim = build_cost_matrix(Detections.concat(prev), Detections.concat(curr), crit).similarity
        expected, scalar_warned = scalar_matrix(prev, curr, crit)
        assert sim.shape == expected.shape
        assert np.allclose(sim, expected, rtol=0.0, atol=1e-12)
        # a zero-norm vector still gives 0 and the same warning
        assert bool(caught) == scalar_warned
        assert all("zero-norm" in str(w.message) for w in caught)

    def test_empty_sides(self):
        det = detection(Box(0, 0, 1, 1), 1.0, [(0, 0, 1.0, True)] * J, feature=(1.0, 0, 0))
        two = Detections.concat([det, det])
        for kind in ("bbox_iou", "pose_pckh", "feature_cosine", "combined"):
            crit = SimilarityCriterion(kind)
            assert build_cost_matrix(NO_DETECTIONS, det, crit).similarity.shape == (0, 1)
            assert build_cost_matrix(two, NO_DETECTIONS, crit).similarity.shape == (2, 0)
            assert build_cost_matrix(NO_DETECTIONS, NO_DETECTIONS, crit).similarity.shape == (0, 0)


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
        mask = correct_joint_mask(Detections.concat(gt), Detections.concat(pred), alpha)
        assert mask.shape == (len(gt), len(pred), J)
        for i, g in enumerate(gt):
            head = head_size(head_box_of(g))
            for k, p in enumerate(pred):
                assert mask[i, k].sum() == correct_count(g, p, alpha)
                for j in range(J):
                    expected = g.present[0, j] and p.present[0, j] and pckh_correct(
                        g.xy[0, j], p.xy[0, j], head, alpha
                    )
                    assert mask[i, k, j] == expected

    @settings(max_examples=75)
    @given(gt_sides, sides)
    def test_match_poses_frame_equals_scalar_counts(self, gt, pred):
        pairs, _ = match_poses_frame(Detections.concat(gt), Detections.concat(pred))
        if not gt or not pred:
            assert pairs == ()
            everyone = (tuple(range(len(gt))), tuple(range(len(pred))))
            assert unmatched(pairs, len(gt), len(pred)) == everyone
            return
        counts = np.array([[correct_count(g, p, 0.5) for p in pred] for g in gt], dtype=float)
        rows, cols = linear_sum_assignment(-counts)
        expected = tuple((int(i), int(j)) for i, j in zip(rows, cols) if counts[i, j] > 0)
        assert pairs == expected

    @settings(max_examples=50)
    @given(st.lists(st.tuples(gt_sides, sides), min_size=1, max_size=3))
    def test_evaluate_map_equals_scalar_greedy(self, frames):
        names = tuple(f"j{k}" for k in range(J))
        gt = sequence([(t, True, g) for t, (g, _) in enumerate(frames)], joint_names=names)
        pred = sequence([(t, True, p) for t, (_, p) in enumerate(frames)], joint_names=names)
        assert evaluate_map(match_sequence(gt, pred)).map_per_joint == scalar_map(gt, pred)

    @settings(max_examples=40)
    @given(gt_sides.filter(bool), sides.filter(bool))
    def test_perfect_keypoints_overlaps_are_scalar_iou(self, gt, pred):
        names = tuple(f"j{k}" for k in range(J))
        out = perfect_keypoints(
            sequence([(0, True, gt)], joint_names=names),
            sequence([(0, True, pred)], joint_names=names),
        )
        overlaps = np.array([[iou(box_of(g), box_of(p)) for p in pred] for g in gt])
        gi, pi = linear_sum_assignment(-overlaps)
        replaced = {int(k): gt[int(i)] for i, k in zip(gi, pi) if overlaps[i, k] > 0}
        got = out.frames[0].detections
        assert len(got) == len(pred)
        for k in range(len(pred)):
            source = replaced.get(k)
            expected = pred[k] if source is None else dataclasses.replace(source, kp_score=np.ones((1, J)))
            for name in ("xy", "kp_score", "present"):
                assert np.array_equal(getattr(got, name)[k], getattr(expected, name)[0], equal_nan=True)


def scalar_map(gt, pred, alpha=0.5):
    """Per-joint AP with the scalar greedy claims: per prediction in score
    order, the first unclaimed ground-truth pose with the most correct joints."""
    scored = [[] for _ in range(J)]
    n_gt = [0] * J
    for g_frame, p_frame in zip(gt.frames, pred.frames):
        gts, preds = rows(g_frame.detections), rows(p_frame.detections)
        for g in gts:
            for j in range(J):
                n_gt[j] += g.present[0, j]
        claimed, taken = {}, set()
        for pi in sorted(range(len(preds)), key=lambda k: (-preds[k].scores[0], k)):
            best, best_overlap = None, 0
            for gi, g in enumerate(gts):
                overlap = 0 if gi in taken else correct_count(g, preds[pi], alpha)
                if overlap > best_overlap:
                    best, best_overlap = gi, overlap
            if best is not None:
                claimed[pi] = best
                taken.add(best)
        for pi, p in enumerate(preds):
            g = gts[claimed[pi]] if pi in claimed else None
            for j in range(J):
                if p.present[0, j]:
                    hit = g is not None and g.present[0, j] and pckh_correct(
                        g.xy[0, j], p.xy[0, j], head_size(head_box_of(g)), alpha
                    )
                    scored[j].append((p.scores[0], hit))
    return tuple(
        100.0 * _average_precision([s for s, _ in scored[j]], [h for _, h in scored[j]], n_gt[j])
        if n_gt[j] else None for j in range(J)
    )


def loop_evaluate_mot(gt, pred, alpha=0.5):
    """evaluate_mot as a loop over the matched pairs of each labeled frame."""
    j_count = gt.joint_count
    tp = np.zeros(j_count, dtype=int)
    idsw = np.zeros(j_count, dtype=int)
    gt_count = np.zeros(j_count, dtype=int)
    pred_count = np.zeros(j_count, dtype=int)
    motp_sum = 0.0
    # gt track -> per joint, the pred id of its last TP (-1 before any); object
    # entries hold track ids of any size
    last_id = {}
    pred_by_index = {f.frame_index: f for f in pred.frames}

    for frame in gt.frames:
        if not frame.labeled:
            continue
        pf = pred_by_index.get(frame.frame_index)
        pred_dets = pf.detections if pf is not None else NO_DETECTIONS
        pairs, correct = match_poses_frame(frame.detections, pred_dets, alpha)
        for dets, count in ((frame.detections, gt_count), (pred_dets, pred_count)):
            count += np.array([d.present[0] for d in rows(dets)], dtype=bool).reshape(
                len(dets), j_count).sum(axis=0)
        for gi, pi in pairs:
            g_det, p_det = frame.detections.take([gi]), pred_dets.take([pi])
            hit = correct[gi, pi]
            tp += hit
            ids = last_id.get(g_det.track_ids[0])
            if ids is None:
                ids = last_id[g_det.track_ids[0]] = np.full(j_count, -1, dtype=object)
            idsw += hit & (ids != -1) & (ids != p_det.track_ids[0])
            ids[hit] = p_det.track_ids[0]
            limit = alpha * head_size(head_box_of(g_det))
            g_xy, p_xy = g_det.xy[0].tolist(), p_det.xy[0].tolist()
            for j in np.flatnonzero(hit).tolist():
                d = math.hypot(g_xy[j][0] - p_xy[j][0], g_xy[j][1] - p_xy[j][1])
                motp_sum += 1.0 - (d / limit if limit > 0 else 0.0)
    fn = gt_count - tp
    fp = pred_count - tp

    mota_per_joint = tuple(
        100.0 * (1.0 - (fn[j] + fp[j] + idsw[j]) / gt_count[j]) if gt_count[j] > 0 else None
        for j in range(j_count)
    )
    total_gt = int(gt_count.sum())
    total_tp = int(tp.sum())
    total_fp = int(fp.sum())
    total_fn = int(fn.sum())
    total_idsw = int(idsw.sum())
    mota_total = (
        100.0 * (1.0 - (total_fn + total_fp + total_idsw) / total_gt) if total_gt > 0 else None
    )
    precision = 100.0 * total_tp / (total_tp + total_fp) if total_tp + total_fp > 0 else 0.0
    recall = 100.0 * total_tp / (total_tp + total_fn) if total_tp + total_fn > 0 else 0.0
    motp = 100.0 * motp_sum / total_tp if total_tp > 0 else 0.0

    return EvalReport(
        joint_names=gt.joint_names,
        mota_per_joint=mota_per_joint,
        mota_total=mota_total,
        motp_total=motp,
        precision_total=precision,
        recall_total=recall,
        tp=tuple(int(v) for v in tp),
        fp=tuple(int(v) for v in fp),
        fn=tuple(int(v) for v in fn),
        idsw=tuple(int(v) for v in idsw),
        gt=tuple(int(v) for v in gt_count),
    )


# few ids make switches common; the large ones do not fit an int64
track_ids = st.sampled_from([0, 1, 2**63, 2**63 + 1, 2**64 + 7])


@st.composite
def near_copy(draw, g):
    """A prediction of labeled pose g: each joint shifted by up to a few
    PCKh limits, some joints dropped."""
    shifts = st.sampled_from([0.0, 1.0, 4.0, 60.0])
    xy = [(x + draw(shifts), y + draw(shifts)) for x, y in g.xy[0].tolist()]
    present = [p and draw(st.integers(0, 4)) > 0 for p in g.present[0].tolist()]
    keypoints = [(x, y, 2.0, p) for (x, y), p in zip(xy, present)]
    return detection(box_of(g), draw(st.sampled_from([0.5, 1.0])), keypoints)


@st.composite
def tracked_sequences(draw):
    """(gt, pred, retracked): labeled and unlabeled frames, some with no
    prediction frame, predictions carrying one set of ids and a retracking
    of the same predictions carrying another."""
    names = tuple(f"j{k}" for k in range(J))
    gt_frames, pred_frames, retracked_frames = [], [], []
    for t in range(draw(st.integers(1, 6))):
        gts = draw(gt_sides)
        gt_frames.append((t, draw(st.integers(0, 3)) > 0, gts))
        if draw(st.integers(0, 4)) == 0:
            continue  # no prediction frame
        dets = draw(st.permutations([draw(near_copy(g)) for g in gts] + draw(sides)))
        pred_frames.append((t, True, [dataclasses.replace(d, track_ids=(draw(track_ids),)) for d in dets]))
        retracked_frames.append(
            (t, True, [dataclasses.replace(d, track_ids=(draw(track_ids),)) for d in dets]))
    return (sequence(gt_frames, joint_names=names), sequence(pred_frames, joint_names=names),
            sequence(retracked_frames, joint_names=names))


def clear_mot_frames(gt, pred, alpha):
    """The clear_mot_counts frames of gt and pred: per labeled frame, the poses
    matched by the scalar correct-joint counts, and their PCKh-correct joints
    as the TP correspondences."""
    pred_by_index = {f.frame_index: f.detections for f in pred.frames}
    frames = []
    for frame in gt.frames:
        if not frame.labeled:
            continue
        gts = rows(frame.detections)
        preds = rows(pred_by_index.get(frame.frame_index, NO_DETECTIONS))
        matches = []
        if gts and preds:
            counts = np.array([[correct_count(g, p, alpha) for p in preds] for g in gts], dtype=float)
            for gi, pi in zip(*linear_sum_assignment(-counts)):
                if counts[gi, pi] == 0:
                    continue
                g, p = gts[gi], preds[pi]
                head = head_size(head_box_of(g))
                matches += [
                    (g.track_ids[0], j, p.track_ids[0]) for j in range(J)
                    if g.present[0, j] and p.present[0, j]
                    and pckh_correct(g.xy[0, j], p.xy[0, j], head, alpha)
                ]
        labeled = [sum(int(g.present[0, j]) for g in gts) for j in range(J)]
        predicted = [sum(int(p.present[0, j]) for p in preds) for j in range(J)]
        frames.append((labeled, predicted, matches))
    return frames


class TestSequenceMatch:
    @settings(max_examples=100)
    @given(tracked_sequences(), st.sampled_from([0.2, 0.5, 1.0]))
    def test_evaluate_mot_counts_as_clear_mot(self, seqs, alpha):
        gt, pred, retracked = seqs
        got = evaluate_mot(match_sequence(gt, pred, alpha), retracked)
        want = clear_mot_counts(clear_mot_frames(gt, retracked, alpha), J)
        assert {name: getattr(got, name) for name in want} == want

    @settings(max_examples=100)
    @given(tracked_sequences(), st.sampled_from([0.2, 0.5, 1.0]))
    def test_evaluate_mot_of_a_retracking_equals_the_loop(self, seqs, alpha):
        gt, pred, retracked = seqs
        got = evaluate_mot(match_sequence(gt, pred, alpha), retracked)
        want = loop_evaluate_mot(gt, retracked, alpha)
        for f in dataclasses.fields(EvalReport):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert got.motp_total.hex() == want.motp_total.hex()


def test_keypoint_array_masks_absent_joints():
    keypoints = [(1.0, 2.0, 1.0, True), (math.inf, math.nan, 0.0, False)]
    arr = keypoint_array(detection(Box(0, 0, 1, 1), 1.0, keypoints))
    assert arr.shape == (1, 2, 2)
    assert arr[0, 0].tolist() == [1.0, 2.0]
    assert np.isnan(arr[0, 1]).all()


def loop_average_precision(scored, n_gt):
    """_average_precision with the envelope as a Python loop."""
    if not scored:
        return 0.0
    scored = sorted(scored, key=lambda s: -s[0])
    tps = np.cumsum([1 if hit else 0 for _, hit in scored])
    fps = np.cumsum([0 if hit else 1 for _, hit in scored])
    precision = tps / np.maximum(tps + fps, 1)
    mtp = np.concatenate(([0], tps, [tps[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 1, 0, -1):
        mpre[i - 1] = max(mpre[i - 1], mpre[i])
    change = np.where(mtp[1:] != mtp[:-1])[0]
    return float(np.sum((mtp[change + 1] - mtp[change]) * mpre[change + 1]) / n_gt)


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.sampled_from([0.1, 0.5, 0.5, 0.9, 1.0]), st.booleans()), max_size=30),
    st.integers(1, 40),
)
def test_average_precision_envelope_equals_loop(scored, n_gt):
    scores, hits = [s for s, _ in scored], [h for _, h in scored]
    assert _average_precision(scores, hits, n_gt) == loop_average_precision(scored, n_gt)


def scalar_anchors(grid, image_w, image_h, length):
    """generate_anchors as a triple loop building one scalar box per anchor."""
    nx = math.ceil(image_w / grid.stride)
    ny = math.ceil(image_h / grid.stride)
    anchors = []
    for gy in range(ny):
        cy = (gy + 0.5) * grid.stride
        for gx in range(nx):
            cx = (gx + 0.5) * grid.stride
            for scale in grid.scales:
                for aspect in grid.aspects:
                    w = scale * math.sqrt(aspect)
                    h = scale / math.sqrt(aspect)
                    base = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
                    anchors.append(TubeAnchor(base, length))
    return anchors


def scalar_assign(anchors, gt_tubes, fg_thresh, bg_thresh):
    """assign_anchors with every overlap from tube_overlap, one pair at a time."""
    labels = np.full(len(anchors), LABEL_BG, dtype=int)
    if not gt_tubes or not anchors:
        return labels
    overlaps = np.zeros((len(anchors), len(gt_tubes)))
    for i, anchor in enumerate(anchors):
        for k, gt in enumerate(gt_tubes):
            overlaps[i, k] = tube_overlap(anchor.as_tube(), gt)
    best = overlaps.max(axis=1)
    best_gt = overlaps.argmax(axis=1)
    labels[(best > bg_thresh) & (best < fg_thresh)] = LABEL_IGNORE
    fg = best >= fg_thresh
    labels[fg] = best_gt[fg]
    for k in range(len(gt_tubes)):
        i = int(overlaps[:, k].argmax())
        if overlaps[i, k] > 0:
            labels[i] = k
    return labels


def corner_rows(anchors):
    return np.array([(a.base.x_min, a.base.y_min, a.base.x_max, a.base.y_max) for a in anchors]).reshape(-1, 4)


def bits(arr):
    return np.ascontiguousarray(arr, dtype=float).view(np.int64)


def outcome(fn, *args):
    """fn's result, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


anchor_grids = st.builds(
    AnchorGrid,
    scales=st.lists(st.one_of(st.integers(1, 300), st.floats(0.5, 600)), min_size=1, max_size=4).map(tuple),
    aspects=st.lists(st.one_of(st.sampled_from([0.5, 1, 2, 3.0]), st.floats(0.05, 20)),
                     min_size=1, max_size=3).map(tuple),
    stride=st.integers(1, 32),
)
# a coarse grid makes tied anchors and exactly shared edges common; the wide
# range puts some ground-truth tubes clear of every anchor
tube_coord = st.integers(0, 12).map(float)
far_coord = st.integers(0, 40).map(float)


@st.composite
def sized_boxes(draw, coord=tube_coord):
    x, y = draw(coord), draw(coord)
    return Box(x, y, x + draw(st.integers(1, 8)), y + draw(st.integers(1, 8)))


@st.composite
def assignment_cases(draw):
    t = draw(st.integers(1, 4))
    lengths = st.sampled_from([t] * 9 + [t + 1])  # a rare tube of another length than the anchors
    bases = draw(st.lists(sized_boxes(), max_size=8))
    anchors = TubeAnchors(np.array([corners(b) for b in bases]).reshape(-1, 4), t)
    gts = draw(st.lists(
        lengths.flatmap(lambda n: st.lists(sized_boxes(far_coord), min_size=n, max_size=n)),
        max_size=4,
    ))
    thresholds = draw(st.sampled_from([(0.7, 0.3), (0.5, 0.0), (1.0, 0.5), (0.2, 0.1)]))
    return anchors, [Tube(tuple(b)) for b in gts], thresholds


class TestTubeKernels:
    @settings(max_examples=100)
    @given(anchor_grids, st.integers(0, 70), st.integers(0, 70), st.integers(1, 4))
    def test_anchor_corners_equal_scalar_loop(self, grid, image_w, image_h, length):
        anchors = generate_anchors(grid, image_w, image_h, length)
        expected = scalar_anchors(grid, image_w, image_h, length)
        assert isinstance(anchors, TubeAnchors) and anchors.length == length
        assert anchors.corners.shape == (len(expected), 4)
        assert np.array_equal(bits(anchors.corners), bits(corner_rows(expected)))

    def test_partial_cells_and_empty_images(self):
        grid = AnchorGrid(scales=(8.0, 16.0), aspects=(0.5, 1.0, 2.0), stride=8)
        for size in ((20, 9), (0, 50), (50, 0), (0, 0), (1, 1)):
            anchors = generate_anchors(grid, *size, 2)
            expected = scalar_anchors(grid, *size, 2)
            assert len(anchors) == len(expected) == 6 * math.ceil(size[0] / 8) * math.ceil(size[1] / 8)
            assert list(anchors) == expected

    @pytest.mark.parametrize("grid", [
        AnchorGrid(scales=(1e-20,), aspects=(1.0,)),  # width rounds to 0 at the cell center
        AnchorGrid(scales=(1e308,), aspects=(4.0,)),  # width overflows to inf
        AnchorGrid(scales=(1e200,), aspects=(1e-300,)),  # height overflows to inf
    ])
    def test_bad_anchor_boxes_fail_with_the_scalar_message(self, grid):
        expected = outcome(scalar_anchors, grid, 16, 16, 1)
        assert isinstance(expected, str)
        assert outcome(generate_anchors, grid, 16, 16, 1) == expected

    @settings(max_examples=300)
    @given(assignment_cases())
    def test_labels_equal_scalar_assignment(self, case):
        anchors, gts, (fg, bg) = case
        expected = outcome(scalar_assign, anchors, gts, fg, bg)
        got = outcome(assign_anchors, anchors, gts, fg, bg)
        if isinstance(expected, str):
            assert got == expected and expected.startswith("tube lengths differ: ")
            return
        assert np.array_equal(got, expected)
        if len(anchors):  # without anchors, no tube length is compared
            overlaps = pairwise_tube_overlap(anchors, gts)
            scalar = [[tube_overlap(a.as_tube(), g) for g in gts] for a in anchors]
            assert np.array_equal(bits(overlaps), bits(np.array(scalar).reshape(overlaps.shape)))

    def test_tied_anchors_force_the_lowest_index(self):
        gt = Tube((Box(0, 0, 10, 10), Box(1, 0, 11, 10)))
        weak = (6, 0, 16, 10)
        anchors = TubeAnchors([(30, 30, 40, 40), weak, weak], 2)
        labels = assign_anchors(anchors, [gt])
        assert labels.tolist() == [LABEL_BG, 0, LABEL_BG]
        assert labels.tolist() == scalar_assign(anchors, [gt], 0.7, 0.3).tolist()

    def test_ground_truth_without_overlap_forces_nothing(self):
        anchors = generate_anchors(AnchorGrid(scales=(8.0,), aspects=(1.0,)), 16, 16, 1)
        far = Tube((Box(100, 100, 110, 110),))
        assert assign_anchors(anchors, [far]).tolist() == [LABEL_BG] * 4
        assert pairwise_tube_overlap(anchors, [far]).tolist() == [[0.0]] * 4

    def test_empty_ground_truth_and_length_mismatch(self):
        anchors = generate_anchors(AnchorGrid(scales=(8.0,), aspects=(1.0,)), 16, 16, 3)
        assert assign_anchors(anchors, []).tolist() == [LABEL_BG] * 4
        two = Tube((Box(0, 0, 8, 8),) * 2)
        with pytest.raises(ValueError, match=r"^tube lengths differ: 3 vs 2$"):
            assign_anchors(anchors, [Tube((Box(0, 0, 8, 8),) * 3), two])

    def test_sampled_overlaps_of_the_default_grid_equal_tube_overlap(self):
        rng = np.random.default_rng(7)
        gts = []
        for _ in range(4):
            x, y = rng.uniform(0, 560), rng.uniform(0, 250)
            w, h = rng.uniform(20, 80), rng.uniform(60, 110)
            gts.append(Tube(tuple(
                Box(x + dx, y, x + dx + w, y + h) for dx in rng.normal(0, 4, size=3)
            )))
        anchors = generate_anchors(DEFAULT_GRID, 640, 360, 3)
        overlaps = pairwise_tube_overlap(anchors, gts)
        assert overlaps.shape == (43_200, 4)
        # every anchor that overlaps at all, plus a random sample of the rest
        rows = np.union1d(np.flatnonzero(overlaps.max(axis=1) > 0), rng.choice(len(anchors), 500))
        for i in rows:
            tube = anchors[i].as_tube()
            expected = [tube_overlap(tube, g) for g in gts]
            assert bits(overlaps[i]).tolist() == bits(np.array(expected)).tolist()


class TestTubeAnchors:
    grid = AnchorGrid(scales=(8.0, 20.0), aspects=(0.5, 2.0), stride=8)

    def test_sequence_of_anchor_views(self):
        anchors = generate_anchors(self.grid, 24, 16, 3)
        expected = scalar_anchors(self.grid, 24, 16, 3)
        assert len(anchors) == len(expected) == 24
        assert list(anchors) == expected
        for k in (0, 5, 23, -1):
            assert anchors[np.int64(k)] == anchors[k] == expected[k]
        with pytest.raises(IndexError):
            anchors[24]
        with pytest.raises(TypeError):
            anchors[1.0]

    def test_corners_are_read_only_and_owned(self):
        source = corner_rows(scalar_anchors(self.grid, 16, 16, 1))
        anchors = TubeAnchors(source, 1)
        source[0, 0] = -99.0
        assert anchors.corners[0, 0] != -99.0
        with pytest.raises(ValueError):
            anchors.corners[0, 0] = 0.0

    @pytest.mark.parametrize("corners, length, message", [
        (np.zeros((2, 3)), 1, "anchor corners must have shape (A, 4)"),
        ([[0.0, 0.0, math.inf, 1.0]], 1, "box coordinate is not finite"),
        ([[0.0, 0.0, 1.0, 1.0]], 0, "anchor length must be >= 1"),
        ([[0.0, 0.0, 1.0, 1.0], [2.0, 2.0, 2.0, 3.0]], 1, "anchor box must have positive width and height"),
        ([[0.0, 5.0, 1.0, 1.0]], 2, "anchor box must have positive width and height"),
    ])
    def test_checks_name_what_is_wrong(self, corners, length, message):
        with pytest.raises(ValueError) as exc:
            TubeAnchors(corners, length)
        assert str(exc.value) == message
