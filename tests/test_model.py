import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from poselink.model import (
    NO_DETECTIONS,
    Box,
    Detections,
    Frame,
    Pose,
    VideoSequence,
    filter_detections,
    load_sequence,
    save_sequence,
)

from poselink.cli import main as cli_main

from helpers import detection, person, pose_from_rows, head_box_of, reference_load_sequence, sequence


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def random_sequences(draw):
    j = draw(st.integers(min_value=1, max_value=4))
    feature_dim = draw(st.sampled_from([None, 3]))
    frames = []
    index = -1
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        index += draw(st.integers(min_value=1, max_value=3))
        dets = []
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            pose = pose_from_rows(
                (draw(coords), draw(coords), draw(coords), draw(st.booleans()))
                for _ in range(j)
            )
            xs = sorted([draw(coords), draw(coords)])
            ys = sorted([draw(coords), draw(coords)])
            feature = None
            if feature_dim is not None:
                feature = tuple(draw(coords) for _ in range(feature_dim))
            dets.append(
                detection(
                    box=Box(xs[0], ys[0], xs[1], ys[1]),
                    score=draw(st.floats(min_value=0, max_value=1, allow_nan=False)),
                    pose=pose,
                    feature=feature,
                    track_id=draw(st.one_of(st.none(), st.integers(0, 50))),
                )
            )
        frames.append(Frame(index, draw(st.booleans()), Detections.concat(dets)))
    return VideoSequence(
        video_id="prop",
        image_width=640,
        image_height=480,
        joint_names=tuple(f"j{i}" for i in range(j)),
        frames=tuple(frames),
    )


class TestTypes:
    def test_box_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            Box(5, 0, 4, 1)

    def test_box_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box(0, 0, math.inf, 1)

    def test_present_keypoint_rejects_nan(self):
        with pytest.raises(ValueError):
            Pose([(math.nan, 0.0)], [1.0], [True])
        Pose([(math.nan, 0.0)], [1.0], [False])  # absent joints are unconstrained

    def test_pose_arrays_are_read_only_copies(self):
        xy = np.array([[1.0, 2.0], [3.0, 4.0]])
        pose = Pose(xy, [1.0, 2.0], [True, False])
        xy[0, 0] = 99.0
        assert pose.xy[0, 0] == 1.0
        for arr in (pose.xy, pose.score, pose.present):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert len(pose) == 2 and pose.present.dtype == bool

    def test_pose_equality_treats_nan_as_equal(self):
        pose = Pose([(1.0, 2.0), (math.nan, math.inf)], [1.0, math.nan], [True, False])
        assert pose == pose
        assert pose == Pose(pose.xy.copy(), pose.score.copy(), pose.present.copy())
        assert hash(pose) == hash(Pose(pose.xy, pose.score, pose.present))
        assert pose != Pose(pose.xy, pose.score, [False, False])
        assert pose != Pose([(1.0, 2.5), (math.nan, math.inf)], [1.0, math.nan], [True, False])

    def test_pose_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shapes"):
            Pose([(1.0, 2.0)], [1.0, 2.0], [True, True])
        with pytest.raises(ValueError, match="shapes"):
            Pose([(1.0, 2.0)], [1.0], [True, False])

    def test_sequence_rejects_non_monotone_frames(self):
        with pytest.raises(ValueError, match="non-monotone"):
            sequence([(0, True, []), (2, True, []), (1, True, [])])

    def test_sequence_rejects_joint_count_mismatch(self):
        det = person([(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="joint count"):
            sequence([(0, True, [det])])  # JOINTS3 expects 3 joints

    def test_sequence_rejects_mixed_feature_dims(self):
        a = person([(0, 0), (1, 1), (2, 2)], feature=(1.0, 2.0))
        b = person([(0, 0), (1, 1), (2, 2)], feature=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="feature"):
            sequence([(0, True, [a, b])])


class TestDetections:
    def _dets(self):
        return Detections.concat([
            person([(0, 0), (1, 1), (2, 2)], score=0.5, track_id=2**70, feature=(1.0, 2.0)),
            person([(5, 5), (6, 6), (7, 7)], present=[True, False, True], head_box=None),
            person([(9, 9), (8, 8), (7, 7)], track_id=3, feature=(0.0, -1.0)),
        ])

    def _columns(self, n=2, j=3):
        """Valid column arguments of n detections with j joints each."""
        return dict(
            boxes=np.tile([0.0, 0.0, 10.0, 10.0], (n, 1)), scores=np.full(n, 0.5),
            xy=np.ones((n, j, 2)), kp_score=np.full((n, j), 2.0), present=np.ones((n, j), dtype=bool),
        )

    def test_joined_rows_keep_their_optional_columns(self):
        dets = self._dets()
        assert dets.track_ids == (2**70, None, 3)
        assert dets.has_feature.tolist() == [True, False, True]
        assert np.isnan(dets.head_boxes[1]).all() and not np.isnan(dets.head_boxes[[0, 2]]).any()

    def test_from_columns_defaults_to_no_optional_columns(self):
        dets = Detections.from_columns(**self._columns())
        assert dets.track_ids == (None, None)
        assert dets.features.shape == (2, 0) and not dets.has_feature.any()
        assert np.isnan(dets.head_boxes).all()
        with_features = Detections.from_columns(**self._columns(), features=[[1.0, 2.0], [3.0, 4.0]])
        assert with_features.has_feature.all() and with_features.features.shape == (2, 2)

    def test_from_columns_copies_and_freezes_its_arrays(self):
        columns = self._columns()
        dets = Detections.from_columns(**columns)
        columns["xy"][0, 0, 0] = 99.0
        assert dets.xy[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            dets.boxes[0, 0] = 5.0

    SHAPES = "boxes, scores, head boxes and features must have shapes (N, 4), (N,), (N, 4) and (N, D)"

    @pytest.mark.parametrize("change, message", [
        ({"boxes": [[5.0, 0.0, 1.0, 1.0]] * 2},
         r"box corners out of order: Box(x_min=5.0, y_min=0.0, x_max=1.0, y_max=1.0)"),
        ({"boxes": [[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, math.inf, 1.0]]}, "box coordinate is not finite"),
        ({"head_boxes": [[0.0, 0.0, 1.0, math.nan], [math.nan] * 4]}, "box coordinate is not finite"),
        ({"head_boxes": [[math.nan] * 4, [0.0, 3.0, 1.0, 1.0]]},
         r"box corners out of order: Box(x_min=0.0, y_min=3.0, x_max=1.0, y_max=1.0)"),
        ({"xy": [[[1.0, 1.0]] * 3, [[1.0, math.nan], [1.0, 1.0], [1.0, 1.0]]]},
         "present keypoint has non-finite coordinates or score"),
        ({"kp_score": [[2.0, math.inf, 2.0], [2.0] * 3]}, "present keypoint has non-finite coordinates or score"),
        ({"track_ids": [0, -1]}, "track_id must be non-negative"),
        ({"track_ids": [0]}, "track_ids must hold one entry per detection"),
        ({"kp_score": np.ones((2, 2))}, "pose arrays must have shapes (N, J, 2), (N, J) and (N, J)"),
        ({"xy": np.ones((2, 3, 3))}, "pose arrays must have shapes (N, J, 2), (N, J) and (N, J)"),
        ({"scores": [0.5]}, SHAPES),
        ({"scores": 0.5}, SHAPES),
        ({"features": [1.0, 2.0]}, SHAPES),
    ])
    def test_from_columns_checks_name_what_is_wrong(self, change, message):
        with pytest.raises(ValueError) as exc:
            Detections.from_columns(**{**self._columns(), **change})
        assert str(exc.value) == message

    def test_absent_joints_may_hold_any_values(self):
        columns = self._columns()
        columns["xy"][1, 2] = math.nan
        columns["kp_score"][1, 2] = math.inf
        columns["present"][1, 2] = False
        assert Detections.from_columns(**columns).present.sum() == 5

    def test_columns_are_read_only(self):
        dets = self._dets()
        for arr in (dets.boxes, dets.xy, dets.present, dets.features, dets.take([2, 0]).xy):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_take_keeps_ids_of_any_size_in_row_order(self):
        dets = self._dets()
        assert dets.take([2, 0]).track_ids == (3, 2**70)
        assert dets.take(np.array([True, False, True])) == dets.take([0, 2])
        assert dets.take(slice(1, None)) == Detections.concat([dets.take([1]), dets.take([2])])

    def test_concat_widens_a_part_without_features(self):
        plain = person([(0, 0), (1, 1), (2, 2)])
        both = Detections.concat([plain, self._dets()])
        assert both.features.shape == (4, 2)
        assert both.has_feature.tolist() == [False, True, False, True]
        assert both.take([0]) == plain and both.take([1, 2, 3]) == self._dets()

    def test_concat_rejects_mixed_joint_counts_and_feature_widths(self):
        with pytest.raises(ValueError, match="^joint count mismatch: the poses of one frame differ in length$"):
            Detections.concat([person([(0, 0), (1, 1)]), person([(0, 0), (1, 1), (2, 2)])])
        with pytest.raises(ValueError, match="^feature vectors must share one dimensionality$"):
            Detections.concat([person([(0, 0)], feature=(1.0,)), person([(0, 0)], feature=(1.0, 2.0))])

    def test_frame_takes_only_detections(self):
        with pytest.raises(TypeError, match="Detections"):
            Frame(0, True, (person([(0, 0)]),))

    def test_empty_columns_are_equal_whatever_their_joint_count(self):
        empty = NO_DETECTIONS
        loaded = self._dets().take(np.zeros(3, dtype=bool))
        assert empty == loaded and hash(empty) == hash(loaded)


class TestRoundTrip:
    def test_minimal_file_round_trip(self, tmp_path):
        seq = sequence([(0, True, [person([(1, 2), (3, 4), (5, 6)], track_id=0)])])
        path = tmp_path / "seq.json"
        save_sequence(seq, str(path))
        loaded = load_sequence(str(path), role="groundtruth")
        assert loaded == seq
        assert len(loaded.frames) == 1 and len(loaded.frames[0].detections) == 1

    def test_empty_frames_round_trip(self, tmp_path):
        seq = sequence([])
        path = tmp_path / "empty.json"
        save_sequence(seq, str(path))
        assert load_sequence(str(path)) == seq

    def test_features_round_trip_full_precision(self, tmp_path):
        feature = (0.1234567890123456, -1e-17, 3.0)
        seq = sequence([(0, True, [person([(0, 0), (1, 1), (2, 2)], feature=feature)])])
        path = tmp_path / "feat.json"
        save_sequence(seq, str(path))
        assert tuple(load_sequence(str(path)).frames[0].detections.features[0].tolist()) == feature

    @settings(max_examples=50)
    @given(random_sequences())
    def test_save_load_identity(self, tmp_path_factory, seq):
        path = tmp_path_factory.mktemp("rt") / "seq.json"
        save_sequence(seq, str(path))
        assert load_sequence(str(path)) == seq


    def test_synth_files_round_trip_byte_for_byte(self, tmp_path):
        gt, pred = tmp_path / "gt.json", tmp_path / "pred.json"
        assert cli_main(["synth", "--out-gt", str(gt), "--out-pred", str(pred), "--frames", "6",
                         "--actors", "3", "--feature-dim", "4", "--fp-rate", "1", "--miss-prob", "0.2",
                         "--occlusion-prob", "0.2", "--kp-jitter", "2"]) == 0
        out = tmp_path / "out.json"
        for path, role in ((gt, "groundtruth"), (pred, "prediction")):
            save_sequence(load_sequence(str(path), role), str(out))
            assert out.read_bytes() == path.read_bytes()

    def test_optional_fields_and_large_ids_round_trip_byte_for_byte(self, tmp_path):
        pred = tmp_path / "pred.json"
        assert cli_main(["synth", "--out-gt", str(tmp_path / "gt.json"), "--out-pred", str(pred),
                         "--frames", "4", "--actors", "3", "--feature-dim", "3"]) == 0
        doc = json.loads(pred.read_text())
        dets = [d for f in doc["frames"] for d in f["detections"]]
        for k, det in enumerate(dets):
            if k % 3 == 0:
                del det["feature"]
            if k % 2 == 0:
                det["track_id"] = 2**64 + k if k % 4 == 0 else k
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        seq = load_sequence(str(path))
        save_sequence(seq, str(out))
        assert out.read_bytes() == path.read_bytes()
        assert seq.frames[0].detections.track_ids[0] == 2**64

    def test_save_onto_directory_fails_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            save_sequence(sequence([]), str(target))
        assert list(tmp_path.glob("*.tmp")) == []


class TestLoadValidation:
    def _write(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _doc(self):
        return {
            "video_id": "v",
            "image_size": [64, 64],
            "joint_names": ["a", "b"],
            "frames": [
                {
                    "frame_index": 0,
                    "labeled": True,
                    "detections": [
                        {
                            "bbox": [0, 0, 10, 10],
                            "score": 0.5,
                            "keypoints": [[1, 1, 2.0, 1], [2, 2, 2.0, 1]],
                        }
                    ],
                }
            ],
        }

    def test_missing_top_level_field(self, tmp_path):
        doc = self._doc()
        del doc["joint_names"]
        with pytest.raises(ValueError, match="joint_names"):
            load_sequence(self._write(tmp_path, doc))

    def test_wrong_keypoint_arity(self, tmp_path):
        doc = self._doc()
        doc["frames"][0]["detections"][0]["keypoints"] = [[1, 1, 2.0, 1]]
        with pytest.raises(ValueError, match="keypoints"):
            load_sequence(self._write(tmp_path, doc))

    @pytest.mark.parametrize("keypoints, message", [
        ([[1, 1, 2.0], [2, 2, 2.0, 1]], r"keypoint must be \[x, y, score, present\]"),
        ([[1, 1, 2.0, 1], "2"], r"keypoint must be \[x, y, score, present\]"),
        ([[1, "1", 2.0, 1], [2, 2, 2.0, 1]], "keypoint has a non-numeric entry"),
        ([[1, 1, 2.0, 1], [True, 2, 2.0, 1]], "keypoint has a non-numeric entry"),
        ([[1, 1, None, 1], [2, 2, 2.0, 1]], "keypoint has a non-numeric entry"),
        ([[1, 1, 2.0, 1], [2, 2, 2.0, 2]], "keypoint presence flag must be 0 or 1"),
        ([[1, 1, 2.0, "1"], [2, 2, 2.0, 1]], "keypoint presence flag must be 0 or 1"),
        ([[1, 1, 2.0, 1], [math.nan, 2, 2.0, 1]], "keypoint has a non-finite entry"),
        ([[1, 1, 2.0, 1], [2, 2, math.inf, 0]], "keypoint has a non-finite entry"),
        ([[1, 1, 2.0, 1], [10**400, 2, 2.0, 1]], "number out of the float range"),
    ])
    def test_bad_keypoint_names_the_detection(self, tmp_path, keypoints, message):
        doc = self._doc()
        doc["frames"][0]["detections"][0]["keypoints"] = keypoints
        with pytest.raises(ValueError, match=f"^frame 0 detection 0:? {message}"):
            load_sequence(self._write(tmp_path, doc))

    def test_keypoint_block_loads_as_arrays(self, tmp_path):
        doc = self._doc()
        doc["frames"][0]["detections"][0]["keypoints"] = [[1, 2, 2.5, 1], [3.5, 4, 0, False]]
        dets = load_sequence(self._write(tmp_path, doc)).frames[0].detections
        assert dets.xy.tolist() == [[[1.0, 2.0], [3.5, 4.0]]]
        assert dets.kp_score.tolist() == [[2.5, 0.0]]
        assert dets.present.tolist() == [[True, False]]

    def test_non_monotone_frame_indices(self, tmp_path):
        doc = self._doc()
        doc["frames"] = [
            {"frame_index": i, "labeled": True, "detections": []} for i in (0, 2, 1)
        ]
        with pytest.raises(ValueError, match="non-monotone"):
            load_sequence(self._write(tmp_path, doc))

    def test_groundtruth_requires_track_id_and_head_box(self, tmp_path):
        path = self._write(tmp_path, self._doc())
        with pytest.raises(ValueError, match="track_id"):
            load_sequence(path, role="groundtruth")
        doc = self._doc()
        doc["frames"][0]["detections"][0]["track_id"] = 3
        path = self._write(tmp_path, doc)
        with pytest.raises(ValueError, match="head_box"):
            load_sequence(path, role="groundtruth")

    def test_groundtruth_zero_size_head_box_names_detection(self, tmp_path):
        doc = self._doc()
        doc["frames"][0]["detections"][0].update(track_id=3, head_box=[5, 5, 5, 5])
        path = self._write(tmp_path, doc)
        with pytest.raises(ValueError, match="frame 0 detection 0: .*head_box"):
            load_sequence(path, role="groundtruth")
        assert head_box_of(load_sequence(path).frames[0].detections).diagonal == 0.0

    def test_detection_score_clamped(self, tmp_path):
        doc = self._doc()
        doc["frames"][0]["detections"][0]["score"] = 7.5
        seq = load_sequence(self._write(tmp_path, doc))
        assert seq.frames[0].detections.scores[0] == 1.0

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, tmp_path, score):
        doc = self._doc()
        doc["frames"][0]["detections"][0]["score"] = score
        with pytest.raises(ValueError, match="score must be finite"):
            load_sequence(self._write(tmp_path, doc))

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc.update(frames=5),
        lambda doc: doc.update(frames=[5]),
        lambda doc: doc["frames"][0].update(detections=5),
        lambda doc: doc["frames"][0].update(detections=["det"]),
        lambda doc: doc["frames"][0]["detections"][0].update(feature=[1.0, None]),
        lambda doc: doc["frames"][0]["detections"][0].update(feature=[1.0, "2"]),
        lambda doc: doc["frames"][0]["detections"][0].update(feature=7),
        lambda doc: doc["frames"][0]["detections"][0].update(bbox=[0, 0, 10**400, 1]),
        lambda doc: doc["frames"][0]["detections"][0].update(score=10**400),
        lambda doc: doc.update(image_size=[None, 64]),
    ])
    def test_malformed_structure_is_value_error(self, tmp_path, mutate):
        doc = self._doc()
        mutate(doc)
        with pytest.raises(ValueError):
            load_sequence(self._write(tmp_path, doc))

    def test_non_object_document_is_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="JSON object"):
            load_sequence(self._write(tmp_path, 5))

    @settings(max_examples=300)
    @given(st.data())
    def test_mutated_documents_load_or_raise_value_error(self, tmp_path_factory, data):
        doc = self._doc()
        det = doc["frames"][0]["detections"][0]
        det.update(feature=[0.5, -1.0], track_id=1, head_box=[0, 0, 3, 4])
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(doc, data)
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(json.dumps(doc))
        role = data.draw(st.sampled_from(["prediction", "groundtruth"]))
        try:
            load_sequence(str(path), role=role)
        except ValueError:
            pass

    def test_identity_joint_map_is_noop(self, tmp_path):
        seq = sequence([(0, True, [person([(1, 2), (3, 4), (5, 6)])])])
        path = tmp_path / "seq.json"
        save_sequence(seq, str(path))
        assert load_sequence(str(path), joint_map=[0, 1, 2]) == seq

    def test_joint_map_permutes_names_and_joints_together(self, tmp_path):
        seq = sequence([(0, True, [person([(1, 2), (3, 4), (5, 6)], present=[True, False, True])])])
        path = tmp_path / "seq.json"
        save_sequence(seq, str(path))
        loaded = load_sequence(str(path), joint_map=[2, 0, 1])
        assert loaded.joint_names == ("right", "head", "left")
        assert loaded.frames[0].detections.xy[0, 0, 0] == 5
        assert loaded.frames[0].detections.present[0].tolist() == [True, True, False]

    def test_bad_joint_map_rejected(self, tmp_path):
        seq = sequence([(0, True, [])])
        path = tmp_path / "seq.json"
        save_sequence(seq, str(path))
        with pytest.raises(ValueError, match="permutation"):
            load_sequence(str(path), joint_map=[0, 0, 2])
        save_sequence(sequence([(0, True, [])], joint_names=("a", "b")), str(path))
        for joint_map in ([1.0, 0.0], [False, True]):
            with pytest.raises(ValueError, match=r"^joint_map must be a permutation of range\(2\)$"):
                load_sequence(str(path), joint_map=joint_map)

    def _multi_doc(self):
        """3 frames x 3 detections, each with a feature, a track id and a head box."""
        doc = self._doc()
        doc["frames"] = [
            {
                "frame_index": 2 * t,
                "labeled": t != 1,
                "detections": [
                    {
                        "bbox": [k, t, 10 + k, 10.5 + t],
                        "score": 0.25 * (k + 1),
                        "keypoints": [[1 + k, 1, 2.0, 1], [2, 2 + t, 1.5, k % 2]],
                        "feature": [0.5 * k, -1.0],
                        "track_id": k,
                        "head_box": [0, 0, 3 + t, 4],
                    }
                    for k in range(3)
                ],
            }
            for t in range(3)
        ]
        return doc

    def _agrees_with_reference(self, path, doc, role):
        """load_sequence gives the reference's sequence or its ValueError message."""
        path.write_text(json.dumps(doc))
        try:
            want = reference_load_sequence(str(path), role)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_sequence(str(path), role)
            assert str(got.value) == str(exc)
        else:
            assert load_sequence(str(path), role) == want

    @settings(max_examples=400)
    @given(st.data())
    def test_loader_equals_the_per_detection_reference(self, tmp_path_factory, data):
        doc = self._multi_doc()
        for _ in range(data.draw(st.integers(1, 4))):
            doc = _mutate(doc, data, data.draw(st.sampled_from([json_values, edge_values])))
        role = data.draw(st.sampled_from(["prediction", "groundtruth"]))
        self._agrees_with_reference(tmp_path_factory.mktemp("diff") / "doc.json", doc, role)

    # (path, value): one defect each, or an unusual valid value
    CHANGES = [
        (("frames", 1, "frame_index"), -1),
        (("frames", 1, "frame_index"), 0),
        (("frames", 2, "labeled"), 1),
        (("frames", 1, "detections", 1, "score"), "0.5"),
        (("frames", 1, "detections", 2, "keypoints", 0, 1), True),
        (("frames", 1, "detections", 0, "keypoints", 1, 3), 2),
        (("frames", 0, "detections", 2, "keypoints", 1, 0), 10**400),
        (("frames", 1, "detections", 0, "feature"), [1.0]),
        (("frames", 0, "detections", 1, "feature"), None),
        (("frames", 2, "detections", 1, "track_id"), -3),
        (("frames", 2, "detections", 2, "track_id"), 2**70),
        (("frames", 0, "detections", 2, "head_box"), [1, 1, 1, 1]),
        (("frames", 2, "detections", 0, "bbox"), [5, 0, 1, 1]),
        (("frames", 1, "detections", 1, "head_box"), None),
        (("frames", 0, "detections", 0, "keypoints", 0, 3), False),
    ]

    def test_every_pair_of_changes_agrees_with_the_reference(self, tmp_path):
        for first, second in itertools.combinations(self.CHANGES, 2):
            doc = self._multi_doc()
            for path, value in (first, second):
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
            for role in ("prediction", "groundtruth"):
                self._agrees_with_reference(tmp_path / "doc.json", doc, role)

    @pytest.mark.parametrize("path, value, message", [
        (("frames", 2, "detections", 0, "bbox"), [5, 0, 1, 1],
         "frame 2 detection 0 bbox: box corners out of order: Box(x_min=5.0, y_min=0.0, x_max=1.0, y_max=1.0)"),
        (("frames", 0, "detections", 1, "bbox"), [0, 0, math.inf, 1],
         "frame 0 detection 1 bbox: box coordinate is not finite"),
        (("frames", 1, "detections", 2, "head_box"), [0, -math.inf, 1, 1],
         "frame 1 detection 2 head_box: box coordinate is not finite"),
        (("frames", 2, "detections", 1, "track_id"), -3, "frame 2 detection 1: track_id must be non-negative"),
        (("frames", 1, "frame_index"), -1, "frame 1: frame_index must be non-negative"),
    ])
    def test_box_id_and_index_checks_name_the_frame_and_detection(self, tmp_path, path, value, message):
        doc = self._multi_doc()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        path = self._write(tmp_path, doc)
        for load in (load_sequence, reference_load_sequence):
            with pytest.raises(ValueError) as exc:
                load(path)
            assert str(exc.value) == message

    def test_negative_zero_score_loads_and_saves_as_zero(self, tmp_path):
        doc = self._doc()
        doc["frames"][0]["detections"][0]["score"] = -0.0
        seq = load_sequence(self._write(tmp_path, doc))
        assert math.copysign(1.0, seq.frames[0].detections.scores[0]) == 1.0
        out = tmp_path / "out.json"
        save_sequence(seq, str(out))
        assert '"score": 0.0' in out.read_text() and "-0.0" not in out.read_text()

    @pytest.mark.parametrize("value", [True, "1.5"])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_bool_or_string_keypoint_value_rejected(self, tmp_path, slot, value):
        doc = self._doc()
        doc["frames"][0]["detections"][0]["keypoints"][1][slot] = value
        with pytest.raises(ValueError, match="^frame 0 detection 0 keypoint has a non-numeric entry"):
            load_sequence(self._write(tmp_path, doc))

    @pytest.mark.parametrize("value", [True, "1.5"])
    def test_bool_or_string_score_rejected(self, tmp_path, value):
        doc = self._doc()
        doc["frames"][0]["detections"][0]["score"] = value
        with pytest.raises(ValueError, match="^frame 0 detection 0: score must be a number"):
            load_sequence(self._write(tmp_path, doc))

    def test_boolean_and_float_presence_flags_accepted(self, tmp_path):
        doc = self._doc()
        doc["frames"][0]["detections"][0]["keypoints"] = [[1, 1, 2.0, True], [2, 2, 2.0, False]]
        doc["frames"][0]["detections"].append(
            {"bbox": [0, 0, 1, 1], "score": 1, "keypoints": [[1, 1, 2.0, 0.0], [2, 2, 2.0, 1.0]]}
        )
        dets = load_sequence(self._write(tmp_path, doc)).frames[0].detections
        assert dets.present.tolist() == [[True, False], [False, True]]

    @pytest.mark.parametrize("field, value, message", [
        ("keypoints", [[1, 1, 2.0, 1], [2, None, 2.0, 1]], "keypoint has a non-numeric entry"),
        ("keypoints", [[1, 1, 2.0, 1], [2, 2, 2.0, 3]], "keypoint presence flag must be 0 or 1"),
        ("keypoints", [[1, 1, 2.0, 1], [2, 2, math.inf, 1]], "keypoint has a non-finite entry"),
        ("bbox", [0, 0, "10", 10], "bbox has a non-numeric entry"),
        ("bbox", [0, 0, 10], "bbox must be a list of 4 numbers"),
        ("score", math.nan, ": score must be finite"),
        ("score", None, ": score must be a number"),
    ])
    def test_bad_value_in_a_later_frame_names_it(self, tmp_path, field, value, message):
        doc = self._multi_doc()
        doc["frames"][2]["detections"][1][field] = value
        with pytest.raises(ValueError, match=f"^frame 2 detection 1:? ?{message}"):
            load_sequence(self._write(tmp_path, doc), role="groundtruth")


json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10**400),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(), st.floats(), st.none()), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _paths(node, prefix=()):
    """Every path into a JSON tree, the root () included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


# values a vectorised check can get wrong: signed zeros and negatives, booleans
# and numeric strings, integers beyond int64 or the float range, zero-size boxes
edge_values = st.sampled_from([
    -1, 0, 1, -0.0, 1.0, 0.5, True, False, "1.5", 2**64, 10**400, math.nan, math.inf,
    [], [0, 0, 0, 0], [1, 1, 1, 1], [5, 0, 1, 1], [1.0], [1, 1, 2.0, True],
]).map(copy.deepcopy)  # a later mutation may edit an inserted list in place


def _mutate(doc, data, values=json_values):
    """doc with one value replaced by an arbitrary JSON value, or deleted."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(values)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


class TestFilter:
    def _seq(self, scores):
        dets = [person([(1, 1), (2, 2), (3, 3)], score=s) for s in scores]
        return sequence([(0, True, dets)])

    def test_detection_threshold(self):
        out = filter_detections(self._seq([0.3, 0.96, 0.99]), 0.95, 0.0)
        assert len(out.frames[0].detections) == 2

    def test_identity_thresholds(self):
        seq = self._seq([0.3, 0.96])
        assert filter_detections(seq, 0.0, -math.inf) == seq

    def test_keypoint_threshold_marks_absent(self):
        det = detection(
            box=Box(0, 0, 10, 10),
            score=1.0,
            pose=Pose([(1, 1), (2, 2), (3, 3)], [1.0, 2.3, 2.0], [True, True, True]),
        )
        seq = sequence([(0, True, [det])])
        out = filter_detections(seq, 0.0, 1.95)
        flags = out.frames[0].detections.present[0].tolist()
        assert flags == [False, True, True]

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError):
            filter_detections(self._seq([0.5]), math.nan, 0.0)

    @settings(max_examples=30)
    @given(random_sequences(), st.floats(0, 1), st.floats(-1, 3))
    def test_idempotent(self, seq, det_thr, kp_thr):
        once = filter_detections(seq, det_thr, kp_thr)
        assert filter_detections(once, det_thr, kp_thr) == once
