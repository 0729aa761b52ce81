import collections
import copy
import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from poselink import model
from poselink.model import (
    NO_DETECTIONS,
    Box,
    Detections,
    Frame,
    VideoSequence,
    filter_detections,
    load_sequence,
    save_sequence,
)

from poselink.cli import main as cli_main
from poselink.linking import LinkerConfig, track_video
from poselink.oracles import perfect_association

from helpers import (
    detection,
    person,
    head_box_of,
    reference_filter_detections,
    reference_load_sequence,
    sequence,
)


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def random_frames(draw):
    """(joint names, frames): frames without detections, frame indices from 0
    or beyond 2**63, track ids beyond 2**64, and, when the sequence has
    features, frames with and without them."""
    j = draw(st.integers(min_value=1, max_value=4))
    feature_dim = draw(st.sampled_from([None, 3]))
    frames = []
    index = draw(st.sampled_from([-1, 2**63 - 1]))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        index += draw(st.integers(min_value=1, max_value=3))
        dets = []
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            keypoints = [
                (draw(coords), draw(coords), draw(coords), draw(st.booleans())) for _ in range(j)
            ]
            xs = sorted([draw(coords), draw(coords)])
            ys = sorted([draw(coords), draw(coords)])
            feature = None
            if feature_dim is not None and draw(st.booleans()):
                feature = tuple(draw(coords) for _ in range(feature_dim))
            dets.append(
                detection(
                    box=Box(xs[0], ys[0], xs[1], ys[1]),
                    score=draw(st.floats(min_value=0, max_value=1, allow_nan=False)),
                    keypoints=keypoints,
                    feature=feature,
                    track_id=draw(st.one_of(st.none(), st.integers(0, 50), st.integers(2**64, 2**70))),
                )
            )
        frames.append(Frame(index, draw(st.booleans()), Detections.concat(dets)))
    return tuple(f"j{i}" for i in range(j)), tuple(frames)


def random_sequences():
    return random_frames().map(lambda drawn: VideoSequence.from_frames("prop", 640, 480, *drawn))


class TestTypes:
    def test_box_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            Box(5, 0, 4, 1)

    def test_box_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box(0, 0, math.inf, 1)

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

    @pytest.mark.parametrize("indices, joint_names, message", [
        ((0, 2, 3), ("a", "b"), "joint count mismatch: pose has 3, sequence has 2"),
        ((0, 2, 2), ("a", "b"), "joint count mismatch: pose has 3, sequence has 2"),
        ((0, 0, 3), ("a", "b"), "non-monotone frames: index 0 after 0"),  # a frame's index comes first
        ((0, 2, 1), ("a", "b", "c"), "non-monotone frames: index 1 after 2"),
        ((-1, 2, 3), ("a", "b"), "frame_index must be non-negative"),
    ])
    def test_column_checks_name_what_the_frame_checks_name(self, indices, joint_names, message):
        """The checks of a sequence built from its columns give the message
        that building it frame by frame gives, in the same precedence."""
        seq = self._three_frames()
        with pytest.raises(ValueError) as columns:
            dataclasses.replace(seq, frame_indices=indices, joint_names=joint_names)
        with pytest.raises(ValueError) as frames:  # a Frame rejects a negative index
            renumbered = [dataclasses.replace(f, frame_index=i) for f, i in zip(seq.frames, indices)]
            VideoSequence.from_frames(seq.video_id, seq.image_width, seq.image_height, joint_names, renumbered)
        assert str(columns.value) == str(frames.value) == message

    @pytest.mark.parametrize("offsets", [(0, 0, 1), (0, 1, 2), (1, 1, 2, 2), (0, 2, 1, 2), (0, 0, 2, 2, 2)])
    def test_offsets_must_cover_the_rows_in_order(self, offsets):
        with pytest.raises(ValueError, match="^offsets must rise from 0 to the row count"):
            dataclasses.replace(self._three_frames(), offsets=offsets)

    def _three_frames(self):
        """Frames 0, without detections, then 2 and 3, of one 3-joint detection each."""
        return sequence([(0, True, []), (2, True, [person([(0, 0), (1, 1), (2, 2)])]),
                         (3, False, [person([(5, 5), (6, 6), (7, 7)])])])


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
        ({"track_ids": [0, 1.5]}, "track_id must be an integer"),
        ({"track_ids": [2.0, 0]}, "track_id must be an integer"),
        ({"track_ids": [np.float64(3.0), None]}, "track_id must be an integer"),
        ({"track_ids": [None, -1.5]}, "track_id must be an integer"),
        ({"track_ids": [True, 0]}, "track_id must be an integer"),
        ({"track_ids": [0, np.bool_(False)]}, "track_id must be an integer"),
        ({"track_ids": [0]}, "track_ids must hold one entry per detection"),
        ({"kp_score": np.ones((2, 2))}, "pose arrays must have shapes (N, J, 2), (N, J) and (N, J)"),
        ({"xy": np.ones((2, 3, 3))}, "pose arrays must have shapes (N, J, 2), (N, J) and (N, J)"),
        ({"scores": [0.5]}, SHAPES),
        ({"scores": 0.5}, SHAPES),
        ({"features": [1.0, 2.0]}, SHAPES),
        ({"scores": [0.5, math.nan]}, "score must be finite"),
        ({"scores": [math.inf, 0.5]}, "score must be finite"),
        ({"features": [[1.0, 2.0], [math.inf, 0.0]]}, "feature has a non-finite entry"),
        ({"features": [[math.nan, 2.0], [1.0, 0.0]]}, "feature has a non-finite entry"),
    ])
    def test_from_columns_checks_name_what_is_wrong(self, change, message):
        with pytest.raises(ValueError) as exc:
            Detections.from_columns(**{**self._columns(), **change})
        assert str(exc.value) == message

    def test_from_columns_accepts_python_and_numpy_integer_track_ids(self):
        ids = [np.int64(3), 2**70]
        assert Detections.from_columns(**self._columns(), track_ids=ids).track_ids == (3, 2**70)
        ids = [np.uint8(0), None]
        assert Detections.from_columns(**self._columns(), track_ids=ids).track_ids == (0, None)

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


# one detection as save_sequence writes it: float coordinates and scores, integer flags
_DETECTION = {"bbox": [0.0, 1.0, 10.0, 11.5], "score": 0.75,
              "keypoints": [[1.0, 2.0, 2.5, 1], [3.0, 4.0, 0.5, 0], [5.0, 6.0, 1.0, 1]]}


class TestLayout:
    @settings(max_examples=50)
    @given(random_frames())
    def test_frames_are_views_of_the_sequence_rows(self, tmp_path_factory, drawn):
        joint_names, frames = drawn
        seq = VideoSequence.from_frames("prop", 640, 480, joint_names, frames)
        assert seq.frames == frames
        assert seq.offsets == tuple(itertools.accumulate((len(f.detections) for f in frames), initial=0))
        again = seq.with_frames(seq.frames)
        assert again == seq and hash(again) == hash(seq)
        path = tmp_path_factory.mktemp("layout") / "seq.json"
        save_sequence(seq, str(path))
        assert load_sequence(str(path)) == seq

    def test_large_indices_and_ids_and_empty_frames_round_trip(self, tmp_path):
        frames = [(2**63, True, [person([(0, 0)], track_id=2**64)]), (2**63 + 1, False, []),
                  (2**64 + 5, True, [person([(1, 1)], track_id=0), person([(2, 2)], track_id=2**70)])]
        seq = sequence(frames, joint_names=("a",))
        path = tmp_path / "seq.json"
        save_sequence(seq, str(path))
        loaded = load_sequence(str(path))
        assert loaded == seq
        assert loaded.frame_indices == (2**63, 2**63 + 1, 2**64 + 5) and loaded.offsets == (0, 1, 1, 3)
        assert loaded.detections.track_ids == (2**64, 0, 2**70)

    def test_whole_sequence_passes_build_no_object_per_frame(self, tmp_path, monkeypatch):
        """Each pass builds its result's columns once, and the loader one
        Detections per block of frames it converts, never one Detections or
        Frame per frame; only a sequence's frame views are per frame, made once."""
        gt_path, pred_path, out = (str(tmp_path / name) for name in ("gt.json", "pred.json", "out.json"))
        assert cli_main(["synth", "--out-gt", gt_path, "--out-pred", pred_path, "--frames", "400",
                         "--actors", "4", "--seed", "3"]) == 0
        built = collections.Counter()

        def counted(cls):
            init = cls.__init__
            return lambda self, *args, **kwargs: built.update([cls]) or init(self, *args, **kwargs)

        for cls in (Detections, Frame):
            monkeypatch.setattr(cls, "__init__", counted(cls))
        block = model._block
        monkeypatch.setattr(model, "_block", lambda *args: built.update(["blocks"]) or block(*args))

        def builds(run):
            built.clear()
            return run(), (built[Detections] - built["blocks"], built[Frame])

        gt, gt_built = builds(lambda: load_sequence(gt_path, "groundtruth"))
        pred, pred_built = builds(lambda: load_sequence(pred_path))
        assert built["blocks"] > 1  # whose Detections are joined once
        filtered, filter_built = builds(lambda: filter_detections(pred, 0.95, 1.95))
        assert gt_built == pred_built == filter_built == (1, 0)
        frames = len(filtered.frame_indices)
        assert frames == 400 and builds(lambda: filtered.frames)[1] == (frames, frames)
        assert builds(lambda: filtered.frames)[1] == (0, 0)
        tracked, track_built = builds(lambda: track_video(filtered, LinkerConfig()))
        builds(lambda: (gt.frames, tracked.frames))  # the views that perfect_association's matching reads
        oracle, oracle_built = builds(lambda: perfect_association(gt, tracked))
        assert track_built == oracle_built == (1, 0)
        assert builds(lambda: save_sequence(oracle, out))[1] == (0, 0)


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

    def test_non_finite_absent_joint_is_not_saved(self, tmp_path):
        # the loader rejects a non-finite entry of any joint, so no file may hold one
        bad = person([(1, 2), (math.nan, math.nan), (5, 6)], present=[True, False, True])
        seq = sequence([(0, True, [bad])])
        with pytest.raises(ValueError) as exc:
            save_sequence(seq, str(tmp_path / "seq.json"))
        assert "\n" not in str(exc.value)
        assert list(tmp_path.iterdir()) == []
        # frames are written one at a time, so the temp file already holds the
        # earlier ones when the last fails; the target keeps its old bytes
        good = person([(1, 2), (3, 4), (5, 6)], track_id=0)
        long = sequence([(t, True, [good]) for t in range(300)] + [(300, True, [good, bad])])
        target = tmp_path / "seq.json"
        target.write_bytes(b"the old file")
        with pytest.raises(ValueError):
            save_sequence(long, str(target))
        assert target.read_bytes() == b"the old file"
        assert [p.name for p in tmp_path.iterdir()] == ["seq.json"]

    def test_save_onto_directory_fails_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            save_sequence(sequence([]), str(target))
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("frames", [
        [],
        [{"frame_index": 0, "labeled": True, "detections": []},
         {"frame_index": 3, "labeled": False, "detections": []}],
        [{"frame_index": t, "labeled": True,
          "detections": [{**_DETECTION, "feature": [0.1 * t, -2.0]}, {**_DETECTION, "feature": [1e-17, 3.0]}]}
         for t in range(3)],
        [{"frame_index": t, "labeled": t != 1,
          "detections": [{**_DETECTION, "track_id": 2**64 + t}, {**_DETECTION, "track_id": t}]}
         for t in range(3)],
        [{"frame_index": 0, "labeled": True, "detections": []},
         {"frame_index": 1, "labeled": True,
          "detections": [{**_DETECTION, "head_box": [0.0, 0.0, 3.0, 4.0]}, _DETECTION]}],
    ], ids=["no frames", "no detections", "features", "large ids", "head boxes"])
    def test_streamed_file_equals_the_whole_document_dump(self, tmp_path, frames):
        doc = {"video_id": "v\u00e9", "image_size": [640, 480], "joint_names": ["a", "b", "c"], "frames": frames}
        source, out = tmp_path / "doc.json", tmp_path / "out.json"
        source.write_text(json.dumps(doc))
        save_sequence(reference_load_sequence(str(source)), str(out))
        assert out.read_bytes() == json.dumps(doc, allow_nan=False).encode()

    def test_write_text_atomic_takes_pieces_not_one_string(self, tmp_path):
        path = tmp_path / "out.txt"
        model.write_text_atomic(str(path), iter(["a", "", "bc\n"]))
        assert path.read_text() == "abc\n"
        with pytest.raises(TypeError):
            model.write_text_atomic(str(path), "whole")
        assert path.read_text() == "abc\n" and list(tmp_path.glob("*.tmp")) == []

    def test_loading_and_saving_hold_a_bounded_share_of_the_file(self, tmp_path):
        # traced Python allocations, not RSS, so the bound is exact from run to run;
        # a whole decoded document alone would take about 4x the file
        path, out = tmp_path / "pred.json", tmp_path / "out.json"
        assert cli_main(["synth", "--out-gt", str(tmp_path / "gt.json"), "--out-pred", str(path),
                         "--frames", "400", "--actors", "4", "--seed", "3"]) == 0
        size = path.stat().st_size
        tracemalloc.start()
        try:
            seq = load_sequence(str(path))
            load_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            save_sequence(seq, str(out))
            save_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == path.read_bytes()
        assert load_peak < 3 * size
        assert save_peak < 0.5 * size

    def test_a_bad_file_is_never_decoded_whole(self, tmp_path, monkeypatch):
        # the file of the test above, its last score a string: the frames are
        # decoded again, one at a time, from the text already read
        path = tmp_path / "pred.json"
        assert cli_main(["synth", "--out-gt", str(tmp_path / "gt.json"), "--out-pred", str(path),
                         "--frames", "400", "--actors", "4", "--seed", "3"]) == 0
        doc = json.loads(path.read_text())
        dets = doc["frames"][-1]["detections"]
        dets[-1]["score"] = "0.5"
        path.write_text(json.dumps(doc))
        message = f"frame 399 detection {len(dets) - 1}: score must be a number"
        del doc, dets
        monkeypatch.setattr(model, "read_json", lambda path: pytest.fail("the file was decoded whole"))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                load_sequence(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == message
        assert peak < 3 * size


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
        ([[1, 1, 2.0, 1], [2, 2, 2.0, True]], "keypoint presence flag must be 0 or 1"),
        ([[1, 1, 2.0, False], [2, 2, 2.0, 1]], "keypoint presence flag must be 0 or 1"),
        ([[1, 1, 2.0, None], [2, 2, 2.0, 1]], "keypoint presence flag must be 0 or 1"),
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
        doc["frames"][0]["detections"][0]["keypoints"] = [[1, 2, 2.5, 1], [3.5, 4, 0, 0]]
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

    def test_groundtruth_repeated_track_id_names_the_frame_and_the_id(self, tmp_path):
        doc = self._multi_doc()
        doc["frames"][2]["detections"][0]["track_id"] = 2
        path = self._write(tmp_path, doc)
        with pytest.raises(ValueError) as exc:
            load_sequence(path, role="groundtruth")
        assert str(exc.value) == "frame 2: ground truth repeats track_id 2"
        # predictions may repeat an id
        assert load_sequence(path).frames[2].detections.track_ids == (2, 1, 2)

    def test_groundtruth_zero_size_head_box_names_detection(self, tmp_path):
        doc = self._doc()
        doc["frames"][0]["detections"][0].update(track_id=3, head_box=[5, 5, 5, 5])
        path = self._write(tmp_path, doc)
        with pytest.raises(ValueError, match="frame 0 detection 0: .*head_box"):
            load_sequence(path, role="groundtruth")
        head = head_box_of(load_sequence(path).frames[0].detections)
        assert (head.width, head.height) == (0.0, 0.0)

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

    def _agrees_with_reference(self, path, doc, role, text=None):
        """load_sequence gives the reference's sequence or its ValueError message,
        for a file that holds text, or else json.dumps(doc)."""
        path.write_text(json.dumps(doc) if text is None else text)
        try:
            want = reference_load_sequence(str(path), role)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_sequence(str(path), role)
            assert str(got.value) == str(exc)
            return None
        assert load_sequence(str(path), role) == want
        return want

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
        (("frames", 1, "detections", 2, "track_id"), 0),
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

    @pytest.mark.parametrize("layout", [
        ["frames", "video_id", "image_size", "joint_names"],
        [("joint_names", ["q"]), "frames", "video_id", "image_size", "joint_names"],
        [("joint_names", ["q", "r", "s"]), "video_id", "frames", ("joint_names", 5), "image_size", "joint_names"],
        [("frames", 5), "video_id", "image_size", "joint_names", "frames"],
        ["video_id", "image_size", "joint_names", "frames", ("frames", [])],
        ["video_id", ("image_size", "?"), "joint_names", "frames", "image_size", ("video_id", "w")],
    ])
    @pytest.mark.parametrize("budget", [1, 6, 2**7])
    def test_repeated_and_reordered_keys_load_as_json_loads_reads_them(self, tmp_path, monkeypatch, layout, budget):
        """Each top-level key keeps its last value, and the frames convert under the
        joint names that finally hold, with no second, whole read of a good file."""
        doc = self._multi_doc()
        items = [(item, doc[item]) if isinstance(item, str) else item for item in layout]
        text = "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in items) + "}"
        monkeypatch.setattr(model, "_LOAD_BLOCK", budget)
        monkeypatch.setattr(model, "read_json", lambda path: pytest.fail("the file was decoded whole"))
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert load_sequence(str(path)) == reference_load_sequence(str(path))

    @pytest.mark.parametrize("edit", [
        lambda text: text + " x",  # extra data
        lambda text: " \r\n" + text + "\t\n",
        lambda text: "\ufeff" + text,
        lambda text: text[:-1],
        lambda text: text[:-1] + ", }",
        lambda text: text[:-2] + ", ]}",
        lambda text: text.replace('"frames": [', '"frames" ['),
        lambda text: text.replace("}]}, {", "}]} {", 1),  # no comma between two frames
        lambda text: text.replace('"video_id"', "video_id"),
        lambda text: "{}",
        lambda text: "[]",
        lambda text: "",
    ])
    @pytest.mark.parametrize("budget", [1, 2**7])
    def test_the_top_level_walk_accepts_and_rejects_what_json_loads_does(self, tmp_path, monkeypatch, edit, budget):
        monkeypatch.setattr(model, "_LOAD_BLOCK", budget)
        self._agrees_with_reference(tmp_path / "doc.json", None, "prediction", edit(json.dumps(self._multi_doc())))

    @pytest.mark.parametrize("changes, role", [
        ([(("frames", 2, "detections", k, "feature"), [1.0]) for k in range(3)], "prediction"),
        ([(("frames", 2, "frame_index"), 2)], "prediction"),
        ([(("frames", 2, "detections", 0, "track_id"), 1)], "groundtruth"),  # another frame's id: fine
        ([(("frames", 2, "detections", 0, "feature"), None), (("frames", 2, "detections", 1, "feature"), None),
          (("frames", 2, "detections", 2, "feature"), None)], "prediction"),  # a block without features
    ])
    @pytest.mark.parametrize("budget", [3, 6, 2**7])  # 3 detections a frame
    def test_checks_across_frames_hold_across_blocks(self, tmp_path, monkeypatch, changes, role, budget):
        doc = self._multi_doc()
        for path, value in changes:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        monkeypatch.setattr(model, "_LOAD_BLOCK", budget)
        self._agrees_with_reference(tmp_path / "doc.json", doc, role)

    # a session's first text draw builds hypothesis's character tables (about 1.5 s),
    # which fails the generation-speed health check when this test draws it first
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_any_layout_and_block_size_agrees_with_the_reference(self, tmp_path_factory, data):
        """Shuffled and repeated top-level keys, whitespace and separators, and
        blocks of 1, 2 or 3 frames: the loader gives the reference's sequence or
        message, and reads the file again only to word a fault of its top level."""
        doc = self._multi_doc()
        doc["frames"] += [dict(copy.deepcopy(f), frame_index=6 + 2 * t) for t, f in enumerate(doc["frames"][:2])]
        for _ in range(data.draw(st.integers(0, 2))):
            doc = _mutate(doc, data, data.draw(st.sampled_from([json_values, edge_values])))
        indent = data.draw(st.sampled_from([None, 0, 2, "\t"]))
        separators = data.draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,\r\n", " : ")]))
        if isinstance(doc, dict):
            items = data.draw(st.permutations(list(doc.items())))
            if items and data.draw(st.booleans()):  # an earlier value of a key, which the last replaces
                key = data.draw(st.sampled_from([k for k, _ in items]))
                frames = doc.get("frames")
                decoy = data.draw(st.one_of(json_values, st.lists(st.just("q"), max_size=3),
                                            st.just(copy.deepcopy(frames[:1] if isinstance(frames, list) else []))))
                at = data.draw(st.integers(0, [k for k, _ in items].index(key)))
                items.insert(at, (key, decoy))
            newline = "" if indent is None else "\n"
            text = "{" + separators[0].join(
                f"{newline}{json.dumps(key)}{separators[1]}{json.dumps(value, indent=indent, separators=separators)}"
                for key, value in items) + newline + "}"
        else:
            text = json.dumps(doc, indent=indent, separators=separators)
        role = data.draw(st.sampled_from(["prediction", "groundtruth"]))
        whole, read_json = [], model.read_json
        written = tmp_path_factory.mktemp("layout") / "doc.json"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_LOAD_BLOCK", 3 * data.draw(st.sampled_from([1, 2, 3])))  # 3 detections a frame
            mp.setattr(model, "read_json", lambda path: whole.append(path) or read_json(path))
            self._agrees_with_reference(written, doc, role, text)
        try:
            reference_load_sequence(str(written), role)
            message = ""
        except ValueError as exc:
            message = str(exc)
        # read_json words only the faults that name the file: not JSON, not an
        # object, a missing field; every other file is read once, a block at a time
        assert whole == ([str(written)] if message.startswith(f"{written}: ") else [])

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
        self._assert_both_loaders_raise(tmp_path, [(path, value)], "prediction", message)

    def _assert_both_loaders_raise(self, tmp_path, changes, role, message):
        """_multi_doc with each (path, value) of changes set fails both loaders with message."""
        doc = self._multi_doc()
        for path, value in changes:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        written = self._write(tmp_path, doc)
        for load in (load_sequence, reference_load_sequence):
            with pytest.raises(ValueError) as exc:
                load(written, role)
            assert str(exc.value) == message

    FLAG = ("frames", 1, "detections", 0, "keypoints", 1)
    DET = ("frames", 2, "detections", 1)
    GT_DET = ("frames", 0, "detections", 2)
    FLAG_MESSAGE = "frame 1 detection 0 keypoint presence flag must be 0 or 1"

    # the order of the checks: the first failing one names the file's error
    @pytest.mark.parametrize("changes, role, message", [
        ([(FLAG + (3,), 10**400)], "prediction", FLAG_MESSAGE),
        ([(FLAG, [10**400, 2, 1.5, 2])], "prediction", FLAG_MESSAGE),
        ([(FLAG + (0,), 10**400), (FLAG + (3,), 2)], "prediction", FLAG_MESSAGE),
        ([(FLAG + (3,), math.nan)], "prediction", FLAG_MESSAGE),
        ([(DET + ("bbox",), [5, 0, 1, 1]), (DET + ("score",), "0.5")], "prediction",
         "frame 2 detection 1 bbox: box corners out of order: Box(x_min=5.0, y_min=0.0, x_max=1.0, y_max=1.0)"),
        ([(DET + ("bbox",), [10**400, "1", 2, 2])], "prediction", "frame 2 detection 1: number out of the float range"),
        ([(DET + ("bbox",), ["1", 10**400, 2, 2])], "prediction", "frame 2 detection 1 bbox has a non-numeric entry"),
        ([(GT_DET + ("head_box",), [1, 1, 1, 1]), (GT_DET + ("track_id",), -3)], "groundtruth",
         "frame 0 detection 2: ground truth head_box has zero size"),
        ([(GT_DET + ("head_box",), [1, 1, 1, 1]), (GT_DET + ("track_id",), -3)], "prediction",
         "frame 0 detection 2: track_id must be non-negative"),
        ([(("frames", 1, "detections", 0, "feature"), [1.0]), (("frames", 2, "frame_index"), 0)], "prediction",
         "feature vectors must share one dimensionality"),
        ([(("frames", 1, "frame_index"), 0), (("frames", 2, "detections", 0, "feature"), [1.0])], "prediction",
         "non-monotone frames: index 0 after 0"),
        # a repeated ground-truth id comes after its frame's detection checks and before later frames'
        ([(("frames", 1, "detections", 2, "track_id"), 0), (("frames", 1, "detections", 2, "score"), "0.5")],
         "groundtruth", "frame 1 detection 2: score must be a number"),
        ([(("frames", 0, "detections", 2, "track_id"), 1), (("frames", 1, "detections", 0, "score"), "0.5")],
         "groundtruth", "frame 0: ground truth repeats track_id 1"),
        ([(("frames", 0, "detections", 1, "feature"), [1.0]), (("frames", 0, "detections", 2, "track_id"), 0)],
         "groundtruth", "frame 0: ground truth repeats track_id 0"),
        ([(("frames", 2, "detections", 1, "track_id"), 0), (("frames", 1, "frame_index"), 0)], "groundtruth",
         "frame 2: ground truth repeats track_id 0"),
    ])
    def test_combined_defects_fail_on_the_first_check(self, tmp_path, changes, role, message):
        self._assert_both_loaders_raise(tmp_path, changes, role, message)

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

    def test_integer_and_float_presence_flags_accepted(self, tmp_path):
        doc = self._doc()
        doc["frames"][0]["detections"][0]["keypoints"] = [[1, 1, 2.0, 1], [2, 2, 2.0, 0]]
        doc["frames"][0]["detections"].append(
            {"bbox": [0, 0, 1, 1], "score": 1, "keypoints": [[1, 1, 2.0, 0.0], [2, 2, 2.0, 1.0]]}
        )
        for load in (load_sequence, reference_load_sequence):
            dets = load(self._write(tmp_path, doc)).frames[0].detections
            assert dets.present.tolist() == [[True, False], [False, True]]

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_presence_flag_rejected(self, tmp_path, flag):
        # True == 1 and False == 0, so a check by value alone would count them
        self._assert_both_loaders_raise(tmp_path, [(self.FLAG + (3,), flag)], "prediction", self.FLAG_MESSAGE)

    def test_boolean_flag_after_a_non_numeric_coordinate_names_the_coordinate(self, tmp_path):
        changes = [(self.FLAG + (3,), True), (self.FLAG + (0,), "1")]
        self._assert_both_loaders_raise(tmp_path, changes, "prediction",
                                        "frame 1 detection 0 keypoint has a non-numeric entry")

    @pytest.mark.parametrize("field, value, message", [
        ("keypoints", [[1, 1, 2.0, 1], [2, None, 2.0, 1]], "keypoint has a non-numeric entry"),
        ("keypoints", [[1, 1, 2.0, 1], [2, 2, 2.0, 3]], "keypoint presence flag must be 0 or 1"),
        ("keypoints", [[1, 1, 2.0, 1], [2, 2, math.inf, 1]], "keypoint has a non-finite entry"),
        ("bbox", [0, 0, "10", 10], "bbox has a non-numeric entry"),
        ("bbox", [0, 0, 10], "bbox must be a list of 4 numbers"),
        ("score", math.nan, ": score must be finite"),
        ("score", None, ": score must be a number"),
        ("head_box", [-1e308, 0, 1e308, 40], ": ground truth head_box diagonal is beyond the float range"),
    ])
    def test_bad_value_in_a_later_frame_names_it(self, tmp_path, field, value, message):
        doc = self._multi_doc()
        doc["frames"][2]["detections"][1][field] = value
        for load in (load_sequence, reference_load_sequence):
            with pytest.raises(ValueError, match=f"^frame 2 detection 1:? ?{message}"):
                load(self._write(tmp_path, doc), role="groundtruth")

    def test_a_long_file_is_checked_detection_by_detection_only_in_its_failing_frame(
        self, tmp_path, monkeypatch
    ):
        doc = self._doc()
        det = doc["frames"][0]["detections"][0]
        doc["frames"] = [{"frame_index": t, "labeled": False, "detections": [dict(det), dict(det)]}
                         for t in range(400)]
        doc["frames"][-1]["detections"][-1]["score"] = "0.5"
        path = self._write(tmp_path, doc)
        sizes = []
        columns = model._columns
        monkeypatch.setattr(model, "_columns", lambda dets, *a: sizes.append(len(dets)) or columns(dets, *a))
        message = "frame 399 detection 1: score must be a number"
        for load in (load_sequence, reference_load_sequence):
            with pytest.raises(ValueError) as exc:
                load(path)
            assert str(exc.value) == message
        # each block of frames up to the one that fails, then, decoded again from the
        # text already read, each frame, then each detection of the frame that fails
        per_block = -(-model._LOAD_BLOCK // 2)  # frames of two detections
        blocks = [2 * len(range(lo, min(lo + per_block, 400))) for lo in range(0, 400, per_block)]
        assert len(blocks) > 1
        assert sizes == blocks + [2] * 400 + [1, 1]


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
            keypoints=[(1, 1, 1.0, True), (2, 2, 2.3, True), (3, 3, 2.0, True)],
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

    @settings(max_examples=100)
    @given(random_sequences(), st.data())
    def test_equals_the_per_frame_reference(self, seq, data):
        """Thresholds at a score of the sequence, beyond every score or below
        them all: the column filter keeps the frames, rows and flags that
        filtering frame by frame keeps."""
        def threshold(values):
            return data.draw(st.one_of(st.sampled_from([-math.inf, math.inf]), st.floats(-1, 3),
                                       *([st.sampled_from(values)] if values else [])))

        det_thr = threshold(seq.detections.scores.tolist())
        kp_thr = threshold(seq.detections.kp_score.ravel().tolist())
        got, want = filter_detections(seq, det_thr, kp_thr), reference_filter_detections(seq, det_thr, kp_thr)
        assert got == want and got.frames == want.frames
