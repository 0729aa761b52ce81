import json
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from poselink.model import (
    Box,
    Detection,
    Frame,
    Keypoint,
    Pose,
    VideoSequence,
    derive_box_from_pose,
    filter_detections,
    load_sequence,
    save_sequence,
)

from helpers import person, pose_at, sequence


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
            joints = tuple(
                Keypoint(draw(coords), draw(coords), draw(coords), draw(st.booleans()))
                for _ in range(j)
            )
            xs = sorted([draw(coords), draw(coords)])
            ys = sorted([draw(coords), draw(coords)])
            feature = None
            if feature_dim is not None:
                feature = tuple(draw(coords) for _ in range(feature_dim))
            dets.append(
                Detection(
                    box=Box(xs[0], ys[0], xs[1], ys[1]),
                    score=draw(st.floats(min_value=0, max_value=1, allow_nan=False)),
                    pose=Pose(joints),
                    feature=feature,
                    track_id=draw(st.one_of(st.none(), st.integers(0, 50))),
                )
            )
        frames.append(Frame(index, draw(st.booleans()), tuple(dets)))
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
            Keypoint(math.nan, 0.0, 1.0, True)
        Keypoint(math.nan, 0.0, 1.0, False)  # absent joints are unconstrained

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
        assert load_sequence(str(path)).frames[0].detections[0].feature == feature

    @settings(max_examples=50)
    @given(random_sequences())
    def test_save_load_identity(self, tmp_path_factory, seq):
        path = tmp_path_factory.mktemp("rt") / "seq.json"
        save_sequence(seq, str(path))
        assert load_sequence(str(path)) == seq


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
        assert load_sequence(path).frames[0].detections[0].head_box.diagonal == 0.0

    def test_detection_score_clamped(self, tmp_path):
        doc = self._doc()
        doc["frames"][0]["detections"][0]["score"] = 7.5
        seq = load_sequence(self._write(tmp_path, doc))
        assert seq.frames[0].detections[0].score == 1.0

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
        seq = sequence([(0, True, [person([(1, 2), (3, 4), (5, 6)])])])
        path = tmp_path / "seq.json"
        save_sequence(seq, str(path))
        loaded = load_sequence(str(path), joint_map=[2, 0, 1])
        assert loaded.joint_names == ("right", "head", "left")
        assert loaded.frames[0].detections[0].pose.joints[0].x == 5

    def test_bad_joint_map_rejected(self, tmp_path):
        seq = sequence([(0, True, [])])
        path = tmp_path / "seq.json"
        save_sequence(seq, str(path))
        with pytest.raises(ValueError, match="permutation"):
            load_sequence(str(path), joint_map=[0, 0, 2])


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


def _mutate(doc, data):
    """doc with one value replaced by an arbitrary JSON value, or deleted."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(json_values)
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


class TestDeriveBox:
    def test_two_joint_span_dilated(self):
        box = derive_box_from_pose(pose_at([(10, 10), (20, 20)]), dilation=0.2)
        assert box == Box(9.0, 9.0, 21.0, 21.0)

    def test_zero_dilation_is_exact_span(self):
        box = derive_box_from_pose(pose_at([(10, 10), (20, 20)]), dilation=0.0)
        assert box == Box(10.0, 10.0, 20.0, 20.0)

    def test_single_joint_stays_a_point(self):
        assert derive_box_from_pose(pose_at([(5, 5)])) == Box(5.0, 5.0, 5.0, 5.0)

    def test_absent_joints_are_ignored(self):
        pose = pose_at([(10, 10), (999, 999), (20, 20)], present=[True, False, True])
        assert derive_box_from_pose(pose, dilation=0.0) == Box(10.0, 10.0, 20.0, 20.0)

    def test_no_present_joints_raises(self):
        with pytest.raises(ValueError, match="present"):
            derive_box_from_pose(pose_at([(1, 1)], present=[False]))

    @given(
        st.lists(st.tuples(coords, coords), min_size=1, max_size=6),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
    def test_translation_equivariance(self, pts, dx, dy):
        base = derive_box_from_pose(pose_at(pts))
        shifted = derive_box_from_pose(pose_at([(x + dx, y + dy) for x, y in pts]))
        assert shifted.x_min == pytest.approx(base.x_min + dx, abs=1e-6)
        assert shifted.y_max == pytest.approx(base.y_max + dy, abs=1e-6)


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
        det = Detection(
            box=Box(0, 0, 10, 10),
            score=1.0,
            pose=Pose((Keypoint(1, 1, 1.0), Keypoint(2, 2, 2.3), Keypoint(3, 3, 2.0))),
        )
        seq = sequence([(0, True, [det])])
        out = filter_detections(seq, 0.0, 1.95)
        flags = [kp.present for kp in out.frames[0].detections[0].pose.joints]
        assert flags == [False, True, True]

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError):
            filter_detections(self._seq([0.5]), math.nan, 0.0)

    @settings(max_examples=30)
    @given(random_sequences(), st.floats(0, 1), st.floats(-1, 3))
    def test_idempotent(self, seq, det_thr, kp_thr):
        once = filter_detections(seq, det_thr, kp_thr)
        assert filter_detections(once, det_thr, kp_thr) == once
