import argparse
import csv
import dataclasses
import gc
import json
import math
import os
import platform
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import poselink
from poselink import cli, metrics, similarity
from poselink.cli import main
from poselink.linking import ALGORITHMS, LinkerConfig, track_video_with_stats
from poselink.metrics import csv_columns, evaluate
from poselink.model import filter_detections, load_sequence, save_sequence
from poselink.similarity import SimilarityCriterion, load_external_scores
from poselink.synth import ScenarioConfig

from helpers import person, sequence, three_frame_pair


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth_pair(tmp_path):
    gt = tmp_path / "gt.json"
    pred = tmp_path / "pred.json"
    code = run(
        "synth", "--out-gt", gt, "--out-pred", pred,
        "--seed", 5, "--frames", 15, "--actors", 3,
        "--kp-jitter", 2.0, "--fp-rate", 1.0, "--tp-score", "0.95,1.0",
    )
    assert code == 0
    return gt, pred


class TestSynth:
    def test_byte_identical_reruns(self, tmp_path):
        a1, a2 = tmp_path / "a1.json", tmp_path / "a2.json"
        p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert run("synth", "--out-gt", a1, "--out-pred", p1, "--seed", 1) == 0
        assert run("synth", "--out-gt", a2, "--out-pred", p2, "--seed", 1) == 0
        assert a1.read_bytes() == a2.read_bytes()
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"seed": 3, "frames": 7, "actors": 2,
                                   "noise": {"keypoint_jitter": 1.0}}))
        gt = tmp_path / "gt.json"
        assert run("synth", "--out-gt", gt, "--config", cfg, "--frames", 9) == 0
        seq = load_sequence(str(gt), role="groundtruth")
        assert len(seq.frames) == 9

    @pytest.mark.parametrize("doc, flags", [
        pytest.param(doc, [], id=f"doc{i}") for i, doc in enumerate([
            [1, 2],
            {"motion": {"bogus": 1}},
            {"bogus": 1},
            {"frames": "10"},
            {"noise": {"tp_score_range": [0.9]}},
            {"occlusion": None},
            {"noise": {"keypoint_jitter": math.nan}},
            {"noise": {"keypoint_jitter": -1}},
            {"noise": {"box_jitter": -0.5}},
            {"noise": {"feature_noise": math.nan}},
            {"noise": {"feature_dim": -4}},
            {"occlusion": {"duration_range": [5, 1]}},
            {"occlusion": {"probability": 1.0, "duration_range": [5, 1]}},
            {"occlusion": {"duration_range": [-2, 1]}},
            {"motion": {"speed_range": [6.0, 2.0]}},
            {"noise": {"tp_score_range": [1.0, 0.5]}},
            {"noise": {"keypoint_score_range": [3.0, math.nan]}},
            {"image_width": 0},
            {"image_height": -3},
            {"image_width": 10},
            {"noise": {"keypoint_jitter": math.inf}},
        ])
    ] + [
        pytest.param({}, ["--kp-jitter", "nan"], id="kp-jitter-nan"),
        pytest.param([1, 2], ["--kp-jitter", "1"], id="list-with-flag"),
        pytest.param({"noise": None}, ["--kp-jitter", "1"], id="null-section-with-flag"),
        pytest.param({"motion": [2.0, 6.0]}, ["--speed", "1,2"], id="list-section-with-flag"),
    ])
    def test_bad_config_is_one_line_error(self, tmp_path, capsys, doc, flags):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        assert run("synth", "--out-gt", tmp_path / "gt.json", "--config", cfg, *flags) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("poselink synth: config") and err.count("\n") == 1
        assert not (tmp_path / "gt.json").exists()

    @pytest.mark.parametrize("where, field, flags", [
        ("config.noise", "keypoint_jitter", ["--kp-jitter", "-1"]),
        ("config.occlusion", "duration_range", ["--occlusion-dur", "5,1"]),
        ("config", "image_width", ["--width", "0"]),
        ("config.motion", "speed_range", ["--speed", "6,2"]),
        ("config", "image_width", ["--width", "10"]),
        ("config.noise", "keypoint_jitter", ["--kp-jitter", "inf"]),
        ("config", "seed", ["--seed", "-1"]),
        ("config.motion", "speed_range", ["--speed", "0,inf"]),
        ("config.motion", "speed_range", ["--speed=-1e308,1e308"]),
        ("config.noise", "keypoint_score_range", ["--kp-score", "0,1e400"]),
        ("config.noise", "false_positive_rate", ["--fp-rate", "inf"]),
        ("config.occlusion", "duration_range", ["--occlusion-dur", f"1,{2**63}"]),
    ])
    def test_bad_flag_value_names_the_field(self, tmp_path, capsys, where, field, flags):
        assert run("synth", "--out-gt", tmp_path / "gt.json", *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"poselink synth: {where}: {field} ") and err.count("\n") == 1
        assert not (tmp_path / "gt.json").exists()

    def test_a_scene_beyond_any_memory_is_one_line_error(self, tmp_path, capsys):
        # 10**16 frames need 71 PiB for their first array, more than any address
        # space, so the request fails before anything is allocated
        assert run("synth", "--out-gt", tmp_path / "gt.json", "--frames", 10**16) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("poselink synth: Unable to allocate ") and err.count("\n") == 1
        assert not (tmp_path / "gt.json").exists()

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--frames", "3", "--height", "10", "--width", str(10**400)],
                     "config: image_width must be at most ", id="width"),
        pytest.param(["--frames", "3", "--speed", "1e308,1e308"],
                     "motion.speed_range [1e+308, 1e+308] moves actor 0 ", id="speed"),
        # 30 frames of 10**12 actors take 437 TiB, more than any address space
        pytest.param(["--actors", str(10**12)], "Unable to allocate ", id="actors"),
    ])
    def test_a_scene_beyond_the_float_range_or_memory_is_one_line_error(self, tmp_path, capsys, flags, message):
        # pyproject.toml turns warnings into errors, so a numpy warning fails this too
        assert run("synth", "--out-gt", tmp_path / "gt.json", *flags) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"poselink synth: {message}") and err.count("\n") == 1
        assert not (tmp_path / "gt.json").exists()

    @pytest.mark.parametrize("flags, doc", [
        (["--kp-jitter", "-1"], {"noise": {"keypoint_jitter": -1.0}}),
        (["--kp-jitter", "nan"], {"noise": {"keypoint_jitter": math.nan}}),
        (["--box-jitter", "-0.5"], {"noise": {"box_jitter": -0.5}}),
        (["--miss-prob", "1.5"], {"noise": {"miss_probability": 1.5}}),
        (["--fp-rate", "-1"], {"noise": {"false_positive_rate": -1.0}}),
        (["--feature-dim", "-4"], {"noise": {"feature_dim": -4}}),
        (["--tp-score", "1.0,0.5"], {"noise": {"tp_score_range": [1.0, 0.5]}}),
        (["--fp-score", "0.5"], {"noise": {"fp_score_range": [0.5]}}),
        (["--kp-score", "3.0,nan"], {"noise": {"keypoint_score_range": [3.0, math.nan]}}),
        (["--speed", "1"], {"motion": {"speed_range": [1.0]}}),
        (["--speed", "1,2,3"], {"motion": {"speed_range": [1.0, 2.0, 3.0]}}),
        (["--speed", "6,2"], {"motion": {"speed_range": [6.0, 2.0]}}),
        (["--occlusion-prob", "2"], {"occlusion": {"probability": 2.0}}),
        (["--occlusion-dur", "5,1"], {"occlusion": {"duration_range": [5, 1]}}),
        (["--occlusion-dur=-2,1"], {"occlusion": {"duration_range": [-2, 1]}}),
        (["--occlusion-dur", "3"], {"occlusion": {"duration_range": [3]}}),
        (["--seed", "-1"], {"seed": -1}),
        (["--frames", "0"], {"frames": 0}),
        (["--actors", "-1"], {"actors": -1}),
        (["--width", "0"], {"image_width": 0}),
        (["--height", "-3"], {"image_height": -3}),
        (["--width", "10"], {"image_width": 10}),
        (["--label-every", "0"], {"label_every": 0}),
        (["--speed", "0,inf"], {"motion": {"speed_range": [0.0, math.inf]}}),
        (["--speed=-1e308,1e308"], {"motion": {"speed_range": [-1e308, 1e308]}}),
        (["--tp-score", "0,inf"], {"noise": {"tp_score_range": [0.0, math.inf]}}),
        (["--fp-score=-inf,1"], {"noise": {"fp_score_range": [-math.inf, 1.0]}}),
        (["--kp-score", "0,1e400"], '{"noise": {"keypoint_score_range": [0.0, 1e400]}}'),
        (["--fp-rate", "inf"], {"noise": {"false_positive_rate": math.inf}}),
        (["--occlusion-dur", f"1,{2**63}"], {"occlusion": {"duration_range": [1, 2**63]}}),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_flag_and_config_give_one_message(self, tmp_path, capsys, flags, doc):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        errors = []
        for argv in (flags, ["--config", cfg]):
            assert run("synth", "--out-gt", tmp_path / "gt.json", *argv) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("poselink synth: config") and errors[0].count("\n") == 1
        assert "unpack" not in errors[0]
        assert not (tmp_path / "gt.json").exists()

    def test_config_that_is_not_json_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text("")
        assert run("synth", "--out-gt", tmp_path / "gt.json", "--config", cfg) == 1
        assert capsys.readouterr().err.startswith(f"poselink synth: {cfg}: not valid JSON: Expecting value")

    def test_non_integer_occlusion_duration_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--out-gt", tmp_path / "gt.json", "--occlusion-dur", "1.9,2.5")
        assert exc.value.code == 2
        assert not (tmp_path / "gt.json").exists()

    def test_manifest_written(self, tmp_path):
        gt = tmp_path / "gt.json"
        assert run("synth", "--out-gt", gt, "--seed", 2) == 0
        manifest = json.loads((tmp_path / "gt.json.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["seed"] == 2
        assert "version" in manifest and "timings_s" in manifest


class TestTrack:
    def test_every_detection_gets_an_id(self, synth_pair, tmp_path):
        _, pred = synth_pair
        out = tmp_path / "tracked.json"
        assert run("track", "--pred", pred, "--out", out) == 0
        seq = load_sequence(str(out))
        assert all(None not in f.detections.track_ids for f in seq.frames)
        assert (tmp_path / "tracked.json.manifest.json").exists()

    def test_random_algo_deterministic(self, synth_pair, tmp_path):
        _, pred = synth_pair
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run("track", "--pred", pred, "--out", out1, "--algo", "random", "--seed", 7) == 0
        assert run("track", "--pred", pred, "--out", out2, "--algo", "random", "--seed", 7) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_feature_cost_without_features_fails_with_message(self, synth_pair, tmp_path, capsys):
        _, pred = synth_pair
        out = tmp_path / "t.json"
        assert run("track", "--pred", pred, "--out", out, "--cost", "feat", "--det-thresh", 0.0) == 1
        assert "feature" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        assert run("track", "--pred", tmp_path / "nope.json", "--out", tmp_path / "o.json") == 1

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["frames"][0]["detections"][0].update(score=math.nan),
        lambda doc: doc.update(frames=5),
        lambda doc: doc["frames"][0].update(detections=5),
        lambda doc: doc["frames"][0]["detections"][0].update(feature=[1.0, None]),
    ])
    def test_bad_input_is_one_line_error(self, synth_pair, tmp_path, capsys, mutate):
        _, pred = synth_pair
        doc = json.loads(pred.read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("track", "--pred", bad, "--out", tmp_path / "t.json", "--det-thresh", 0.0) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("poselink track: ") and err.count("\n") == 1


def _external_entries(tmp_path, entries_text):
    path = tmp_path / "scores.json"
    path.write_text(entries_text)
    return path


class TestExternalScores:
    VALID = '{"frame": 1, "prev_index": 0, "curr_index": 0, "similarity": 0.5}'

    @pytest.mark.parametrize("entry", [
        '{"frame": 1e400, "prev_index": 0, "curr_index": 0, "similarity": 0.9}',
        '{"frame": 1.7, "prev_index": 0, "curr_index": 0, "similarity": 0.9}',
        '{"frame": 1, "prev_index": "0", "curr_index": 0, "similarity": 0.9}',
        '{"frame": 1, "prev_index": 0, "curr_index": true, "similarity": 0.9}',
        '{"frame": 1, "prev_index": -1, "curr_index": 0, "similarity": 0.9}',
        '{"frame": -1, "prev_index": 0, "curr_index": 0, "similarity": 0.9}',
        '{"frame": 1, "prev_index": 0, "curr_index": 1, "similarity": "0.9"}',
        '{"frame": 1, "prev_index": 0, "curr_index": 1, "similarity": NaN}',
        '{"frame": 1, "prev_index": 0, "curr_index": 1, "similarity": 1e400}',
        '{"frame": 1, "prev_index": 0, "curr_index": 1, "similarity": 1' + "0" * 400 + '}',
        '{"frame": 1, "prev_index": 0, "curr_index": 1}',
        '[1, 0, 1, 0.9]',
        '{"frame": 1, "prev_index": 0, "curr_index": 0, "similarity": 0.7}',  # repeats VALID's key
    ])
    def test_bad_entry_is_one_line_error(self, synth_pair, tmp_path, capsys, entry):
        _, pred = synth_pair
        scores = _external_entries(tmp_path, f"[{self.VALID}, {entry}]")
        capsys.readouterr()
        out = tmp_path / "tracked.json"
        assert run("track", "--pred", pred, "--out", out, "--cost", "external",
                   "--external-scores", scores) == 1
        err = capsys.readouterr().err
        assert err.startswith("poselink track: external score entry 1: ") and err.count("\n") == 1
        assert not out.exists()

    def test_file_that_is_not_json_names_the_file(self, synth_pair, tmp_path, capsys):
        _, pred = synth_pair
        scores = _external_entries(tmp_path, "")
        capsys.readouterr()
        assert run("track", "--pred", pred, "--out", tmp_path / "t.json", "--cost", "external",
                   "--external-scores", scores) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"poselink track: {scores}: not valid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, flag", [("track", "--cost"), ("sweep", "--costs")])
    def test_missing_file_names_the_flag(self, synth_pair, tmp_path, capsys, command, flag):
        gt, pred = synth_pair
        capsys.readouterr()
        out = tmp_path / "out.json"
        inputs = ["--pred", pred, "--out", out] + (["--gt", gt] if command == "sweep" else [])
        assert run(command, *inputs, flag, "external") == 1
        assert capsys.readouterr().err == f"poselink {command}: {flag} external requires --external-scores PATH\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("track", ["--cost", "iou"]),
        ("track", []),
        ("sweep", ["--costs", "iou,pckh,feat,combined"]),
        ("sweep", ["--thresholds", "0.5"]),
    ])
    def test_file_no_cost_reads_is_usage_error(self, synth_pair, tmp_path, capsys, command, flags):
        gt, pred = synth_pair
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        inputs = ["--pred", pred, "--out", tmp_path / "out.json"] + (["--gt", gt] if command == "sweep" else [])
        assert run(command, *inputs, *flags, "--external-scores", tmp_path / "missing.json") == 2
        flag = "--cost" if command == "track" else "--costs"
        assert capsys.readouterr().err == f"poselink {command}: --external-scores is read only by {flag} external\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_sweep_reads_the_file_once(self, synth_pair, tmp_path, monkeypatch):
        gt, pred = synth_pair
        scores = _external_entries(tmp_path, f"[{self.VALID}]")
        reads = []
        monkeypatch.setattr(cli, "load_external_scores", lambda path: reads.append(path) or load_external_scores(path))
        assert run("sweep", "--gt", gt, "--pred", pred, "--out", tmp_path / "s.csv", "--thresholds", "0.5,0.95",
                   "--algos", "hungarian,greedy", "--costs", "external,iou,external",
                   "--external-scores", scores) == 0
        assert reads == [str(scores)]

    def test_valid_entries_track(self, synth_pair, tmp_path):
        _, pred = synth_pair
        scores = _external_entries(tmp_path, f"[{self.VALID}]")
        out = tmp_path / "tracked.json"
        assert run("track", "--pred", pred, "--out", out, "--cost", "external",
                   "--external-scores", scores) == 0


class TestEval:
    def test_perfect_summary_and_report(self, tmp_path, capsys):
        gt, pred = three_frame_pair()
        gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
        save_sequence(gt, str(gt_path))
        save_sequence(pred, str(pred_path))
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        assert run("eval", "--gt", gt_path, "--pred", pred_path,
                   "--report", report_path, "--csv", csv_path) == 0
        out = capsys.readouterr().out
        assert "mAP 100.0" in out and "MOTA 100.0" in out
        doc = json.loads(report_path.read_text())
        assert doc["mota"]["total"] == 100.0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2

    def test_repeated_ground_truth_track_id_is_one_line_error(self, tmp_path, capsys):
        # two people with track id 7 in each of 3 frames; evaluated, perfect
        # predictions would read identity switches where there are none
        poses = ([(10.0, 10.0), (20.0, 30.0), (30.0, 10.0)], [(200.0, 10.0), (210.0, 30.0), (220.0, 10.0)])
        gt = sequence([(t, True, [person(p, track_id=7) for p in poses]) for t in range(3)])
        pred = sequence([(t, True, [person(p, track_id=i + 1, head_box=None) for i, p in enumerate(poses)])
                         for t in range(3)])
        gt_path, pred_path, report = tmp_path / "gt.json", tmp_path / "pred.json", tmp_path / "report.json"
        save_sequence(gt, str(gt_path))
        save_sequence(pred, str(pred_path))
        assert run("eval", "--gt", gt_path, "--pred", pred_path, "--report", report) == 1
        assert capsys.readouterr().err == "poselink eval: frame 0: ground truth repeats track_id 7\n"
        assert not report.exists()

    def test_head_box_whose_diagonal_overflows_is_one_line_error_naming_it(self, tmp_path, capsys):
        # its corners are finite, but its head size is not; alpha is not to blame
        gt, pred, tracked, report = (tmp_path / f"{name}.json" for name in ("gt", "pred", "tracked", "report"))
        assert run("synth", "--out-gt", gt, "--out-pred", pred, "--frames", 3, "--actors", 2, "--seed", 1) == 0
        doc = json.loads(gt.read_text())
        doc["frames"][0]["detections"][0]["head_box"] = [-1e308, 0, 1e308, 40]
        gt.write_text(json.dumps(doc))
        assert run("track", "--pred", pred, "--out", tracked) == 0
        capsys.readouterr()
        assert run("eval", "--gt", gt, "--pred", tracked, "--report", report) == 1
        assert capsys.readouterr().err == (
            "poselink eval: frame 0 detection 0: ground truth head_box diagonal is beyond the float range\n")
        assert not report.exists()

    def test_csv_keeps_a_column_per_joint_whatever_the_names(self, tmp_path):
        # joint names come from the file: one may name a total column, and
        # names may repeat; each still gets its own cell
        gt, pred = (dataclasses.replace(seq, joint_names=("total", "a", "a")) for seq in three_frame_pair())
        gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
        save_sequence(gt, str(gt_path))
        save_sequence(pred, str(pred_path))
        csv_path = tmp_path / "report.csv"
        assert run("eval", "--gt", gt_path, "--pred", pred_path,
                   "--report", tmp_path / "report.json", "--csv", csv_path) == 0
        with open(csv_path, newline="") as fh:
            header, row = csv.reader(fh)
        assert header == [
            "gt", "pred", "map_total", "map_a", "map_a", "map_total",
            "mota_total", "mota_a", "mota_a", "mota_total",
            "motp_total", "precision_total", "recall_total", "total_assignment_cost",
        ]
        assert row == [str(gt_path), str(pred_path)] + ["100.0000"] * 11 + [""]

    def test_id_switch_fixture_reports_667(self, tmp_path):
        gt, pred = three_frame_pair(pred_track_ids=(0, 0, 1))
        gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
        save_sequence(gt, str(gt_path))
        save_sequence(pred, str(pred_path))
        report_path = tmp_path / "report.json"
        assert run("eval", "--gt", gt_path, "--pred", pred_path, "--report", report_path) == 0
        doc = json.loads(report_path.read_text())
        assert doc["mota"]["total"] == pytest.approx(66.7, abs=0.05)

    def test_untracked_predictions_fail(self, synth_pair, tmp_path):
        gt, pred = synth_pair
        assert run("eval", "--gt", gt, "--pred", pred, "--report", tmp_path / "r.json") == 1


class TestSweep:
    def _read_rows(self, path):
        with open(path) as fh:
            reader = csv.DictReader(fh)
            return list(reader)

    def test_threshold_sweep_trends(self, synth_pair, tmp_path):
        gt, pred = synth_pair
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--gt", gt, "--pred", pred, "--out", out,
                   "--thresholds", "0,0.5,0.95") == 0
        rows = self._read_rows(out)
        assert len(rows) == 3
        motas = [float(r["mota_total"]) for r in rows]
        recalls = [float(r["recall_total"]) for r in rows]
        assert motas == sorted(motas)
        assert recalls == sorted(recalls, reverse=True)

    def test_algo_sweep_logs_cost_dominance(self, synth_pair, tmp_path):
        gt, pred = synth_pair
        out = tmp_path / "algos.csv"
        assert run("sweep", "--gt", gt, "--pred", pred, "--out", out,
                   "--algos", "hungarian,greedy", "--thresholds", 0.5) == 0
        rows = {r["algo"]: r for r in self._read_rows(out)}
        assert float(rows["hungarian"]["total_assignment_cost"]) <= (
            float(rows["greedy"]["total_assignment_cost"]) + 1e-9
        )

    @pytest.mark.parametrize("flags", [
        pytest.param(["--thresholds", ""], id="empty-thresholds"),
        pytest.param(["--algos", " , "], id="empty-algos"),
        pytest.param(["--costs", ""], id="empty-costs"),
        pytest.param(["--algos", "hungarian,quantum"], id="unknown-algo"),
        pytest.param(["--costs", "iou,psychic"], id="unknown-cost"),
        pytest.param(["--costs", "iou", "--cost", "pckh"], id="track-cost"),
        pytest.param(["--algos", "hungarian", "--algo", "greedy"], id="track-algo"),
        pytest.param(["--thresholds", "0.5", "--det-thresh", "0.5"], id="track-det-thresh"),
        pytest.param(["--det-thresh", "0.5"], id="det-thresh-alone"),
    ])
    def test_usage_error_exits_2_and_writes_nothing(self, synth_pair, tmp_path, capsys, flags):
        gt, pred = synth_pair
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--gt", gt, "--pred", pred, "--out", tmp_path / "s.csv", *flags)
        assert exc.value.code == 2
        assert "usage: poselink" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_help_lists_no_track_only_flag(self, capsys):
        with pytest.raises(SystemExit):
            run("sweep", "--help")
        usage = capsys.readouterr().out
        assert "--costs" in usage and "--algos" in usage and "--thresholds" in usage
        assert not {"--cost", "--algo", "--det-thresh"} & set(usage.replace("[", " ").replace("]", " ").split())

    def test_bad_setting_fails_before_the_inputs_load(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run("sweep", "--gt", missing, "--pred", missing, "--out", tmp_path / "s.csv",
                   "--costs", "combined", "--weights", "nan,1,1") == 1
        assert capsys.readouterr().err == "poselink sweep: weights must be finite, got (nan, 1.0, 1.0)\n"

    def test_no_sweep_dimension_is_usage_error(self, synth_pair, tmp_path, capsys):
        gt, pred = synth_pair
        capsys.readouterr()
        assert run("sweep", "--gt", gt, "--pred", pred, "--out", tmp_path / "s.csv") == 2
        assert capsys.readouterr().err == "poselink sweep: give at least one of --thresholds/--algos/--costs\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("flags, lookback, min_sim, weights", [
        pytest.param([], 1, 0.0, (1.0, 1.0, 1.0), id="defaults"),
        pytest.param(["--lookback", "3", "--min-sim", "0.1", "--weights", "2,1,1"], 3, 0.1, (2.0, 1.0, 1.0),
                     id="lookback3"),
    ])
    def test_rows_equal_each_configuration_run_alone(self, tmp_path, flags, lookback, min_sim, weights):
        gt, pred = tmp_path / "gt.json", tmp_path / "pred.json"
        assert run(
            "synth", "--out-gt", gt, "--out-pred", pred, "--seed", 3, "--frames", 8,
            "--actors", 4, "--kp-jitter", 3.0, "--fp-rate", 1.0, "--feature-dim", 6,
            "--tp-score", "0.9,1.0", "--fp-score", "0.5,1.0",
        ) == 0
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--gt", gt, "--pred", pred, "--out", out,
                   "--thresholds", "0.6,0.95", "--algos", "hungarian,greedy",
                   "--costs", "iou,pckh,feat,combined", *flags) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        gt_seq = load_sequence(str(gt), "groundtruth")
        pred_seq = load_sequence(str(pred))
        kinds = {"iou": "bbox_iou", "pckh": "pose_pckh", "feat": "feature_cosine",
                 "combined": "combined"}
        expected = []
        for t in (0.6, 0.95):
            for algo in ("hungarian", "greedy"):
                for cost in ("iou", "pckh", "feat", "combined"):
                    cfg = LinkerConfig(algorithm=algo, min_similarity=min_sim, lookback=lookback,
                                       criterion=SimilarityCriterion(kinds[cost], weights=weights))
                    tracked, stats = track_video_with_stats(
                        filter_detections(pred_seq, t, 1.95), cfg
                    )
                    row = csv_columns(evaluate(gt_seq, tracked),
                                      (("det_thresh", t), ("algo", algo), ("cost", cost)),
                                      stats.total_assignment_cost)
                    expected.append([str(v) for _, v in row])
        assert rows == expected

    def test_each_kernel_runs_once_per_frame_pair(self, tmp_path, monkeypatch):
        gt, pred = tmp_path / "gt.json", tmp_path / "pred.json"
        assert run("synth", "--out-gt", gt, "--out-pred", pred, "--seed", 4, "--frames", 10,
                   "--actors", 3, "--kp-jitter", 2.0, "--fp-rate", 1.0, "--feature-dim", 4,
                   "--miss-prob", 0.3, "--tp-score", "0.9,1.0") == 0
        calls = {name: 0 for name in ("pairwise_iou", "pairwise_pckh", "pairwise_cosine")}

        def counted(name):
            kernel = getattr(similarity, name)
            return lambda *a: calls.update({name: calls[name] + 1}) or kernel(*a)

        for name in calls:
            monkeypatch.setattr(similarity, name, counted(name))
        assert run("sweep", "--gt", gt, "--pred", pred, "--out", tmp_path / "s.csv",
                   "--thresholds", "0.95", "--algos", "hungarian,greedy",
                   "--costs", "iou,pckh,feat,combined") == 0
        sizes = [len(f.detections) for f in filter_detections(load_sequence(str(pred)), 0.95, 1.95).frames]
        pairs = sum(a > 0 and b > 0 for a, b in zip(sizes, sizes[1:]))
        assert 0 < pairs < len(sizes) - 1
        assert calls == {name: pairs for name in calls}

    @pytest.mark.parametrize("command, matches_per_frame", [
        pytest.param(["sweep", "--thresholds", "0.5,0.95", "--algos", "hungarian,greedy",
                      "--costs", "iou,pckh", "--out"], 2, id="sweep-two-thresholds"),
        pytest.param(["eval", "--report"], 1, id="eval"),
        pytest.param(["oracle", "--mode", "assoc", "--out"], 1, id="oracle-assoc"),
    ])
    def test_each_labeled_frame_is_matched_once_per_threshold(
        self, tmp_path, monkeypatch, command, matches_per_frame
    ):
        gt, pred, tracked = tmp_path / "gt.json", tmp_path / "pred.json", tmp_path / "t.json"
        assert run("synth", "--out-gt", gt, "--out-pred", pred, "--seed", 2, "--frames", 9,
                   "--actors", 3, "--kp-jitter", 2.0, "--fp-rate", 1.0, "--label-every", 2) == 0
        assert run("track", "--pred", pred, "--out", tracked) == 0
        frames = []  # the frame count of every call to the block matcher
        blocks_of = metrics._Blocks.of
        monkeypatch.setattr(metrics._Blocks, "of", lambda gts, *a: frames.append(len(gts)) or blocks_of(gts, *a))
        assert run(command[0], "--gt", gt, "--pred", tracked, *command[1:], tmp_path / "out") == 0
        labeled = sum(f.labeled for f in load_sequence(str(gt), "groundtruth").frames)
        assert 0 < labeled < 9
        assert frames == [labeled] * matches_per_frame

    def test_manifest_has_no_worker_count(self, synth_pair, tmp_path):
        gt, pred = synth_pair
        out = tmp_path / "s.csv"
        assert run("sweep", "--gt", gt, "--pred", pred, "--out", out, "--algos", "greedy") == 0
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert "workers" not in manifest["config"]

    @pytest.mark.parametrize("algo, flags", [
        pytest.param("hungarian", ["--min-sim", "0.05", "--lookback", "2"], id="hungarian"),
        pytest.param("random", ["--seed", "4", "--random-max-id", "50"], id="random"),
    ])
    def test_manifest_records_every_linker_setting_of_track(self, synth_pair, tmp_path, algo, flags):
        gt, pred = synth_pair
        flags = ["--kp-thresh", "1.5", "--weights", "2,1,0", "--pckh-alpha", "0.4", "--pckh-norm-scale", "0.2",
                 *flags]
        assert run("track", "--pred", pred, "--out", tmp_path / "t.json", "--algo", algo, "--cost", "combined",
                   *flags) == 0
        assert run("sweep", "--gt", gt, "--pred", pred, "--out", tmp_path / "s.csv", "--algos", algo,
                   "--costs", "combined", *flags) == 0
        track = json.loads((tmp_path / "t.json.manifest.json").read_text())["config"]
        sweep = json.loads((tmp_path / "s.csv.manifest.json").read_text())["config"]
        linker = set(track) - {"cost", "algo", "det_thresh", "total_assignment_cost", "new_tracks"}
        assert linker == {flag[2:].replace("-", "_") for flag in flags[::2]}
        assert {k: sweep[k] for k in linker} == {k: track[k] for k in linker}
        assert sweep["weights"] == [2.0, 1.0, 0.0]


class TestOracle:
    def test_keypoint_oracle_improves_mota(self, synth_pair, tmp_path):
        gt, pred = synth_pair
        tracked = tmp_path / "tracked.json"
        assert run("track", "--pred", pred, "--out", tracked) == 0
        fixed = tmp_path / "fixed.json"
        assert run("oracle", "--mode", "kpts", "--gt", gt, "--pred", tracked, "--out", fixed) == 0
        raw_report = tmp_path / "raw.json"
        fixed_report = tmp_path / "better.json"
        assert run("eval", "--gt", gt, "--pred", tracked, "--report", raw_report) == 0
        assert run("eval", "--gt", gt, "--pred", fixed, "--report", fixed_report) == 0
        raw = json.loads(raw_report.read_text())["mota"]["total"]
        better = json.loads(fixed_report.read_text())["mota"]["total"]
        assert better >= raw - 1e-9


    @pytest.mark.parametrize("mode", ["assoc", "kpts"])
    @pytest.mark.parametrize("mutate", [
        lambda doc: doc.update(video_id="another"),
        lambda doc: doc.update(joint_names=doc["joint_names"][::-1]),
    ])
    def test_mismatched_pair_is_one_line_error(self, synth_pair, tmp_path, capsys, mode, mutate):
        gt, pred = synth_pair
        tracked = tmp_path / "tracked.json"
        assert run("track", "--pred", pred, "--out", tracked) == 0
        doc = json.loads(tracked.read_text())
        mutate(doc)
        tracked.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "fixed.json"
        assert run("oracle", "--mode", mode, "--gt", gt, "--pred", tracked, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("poselink oracle: ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("eval", ["--alpha", "nan"], "alpha must be finite and positive, got nan"),
    ("eval", ["--alpha", "-1"], "alpha must be finite and positive, got -1.0"),
    ("eval", ["--alpha", "inf"], "alpha must be finite and positive, got inf"),
    ("oracle", ["--mode", "assoc", "--alpha", "nan"], "alpha must be finite and positive, got nan"),
    ("oracle", ["--mode", "kpts", "--alpha", "nan"], "alpha must be finite and positive, got nan"),
    ("oracle", ["--mode", "kpts", "--alpha", "-1"], "alpha must be finite and positive, got -1.0"),
    ("sweep", ["--costs", "iou", "--alpha", "0"], "alpha must be finite and positive, got 0.0"),
    ("eval", ["--alpha", "1e308"], "alpha 1e+308 times a head size is beyond the float range"),
    ("oracle", ["--mode", "assoc", "--alpha", "1e308"],
     "alpha 1e+308 times a head size is beyond the float range"),
    ("sweep", ["--costs", "iou", "--alpha", "1e308"],
     "alpha 1e+308 times a head size is beyond the float range"),
    ("track", ["--min-sim", "nan"], "min_similarity must not be NaN, got nan"),
    ("track", ["--cost", "pckh", "--pckh-alpha", "-1"], "pckh_alpha must be finite and positive, got -1.0"),
    ("track", ["--cost", "pckh", "--pckh-norm-scale", "0"],
     "pckh_norm_scale must be finite and positive, got 0.0"),
    ("track", ["--cost", "pckh", "--pckh-norm-scale", "nan"],
     "pckh_norm_scale must be finite and positive, got nan"),
    ("track", ["--cost", "combined", "--weights", "nan,1,1"], "weights must be finite, got (nan, 1.0, 1.0)"),
    ("track", ["--cost", "combined", "--weights", "inf,1,1"], "weights must be finite, got (inf, 1.0, 1.0)"),
    ("track", ["--algo", "random", "--random-max-id", "-1"], "random_max_id must be non-negative, got -1"),
    ("track", ["--algo", "random", "--seed", "-1"], "rng_seed must be non-negative, got -1"),
    ("track", ["--algo", "random", "--random-max-id", str(2**63)],
     f"random_max_id must be <= {2**63 - 1}, got {2**63}"),
    ("sweep", ["--algos", "random", "--costs", "iou", "--random-max-id", str(2**63)],
     f"random_max_id must be <= {2**63 - 1}, got {2**63}"),
    ("track", ["--cost", "combined", "--weights", ""], "weights must hold three values (iou, pckh, cosine), got ()"),
    ("sweep", ["--costs", "combined", "--weights", "1,2"],
     "weights must hold three values (iou, pckh, cosine), got (1.0, 2.0)"),
])
def test_bad_setting_is_one_line_error_naming_the_field(synth_pair, tmp_path, capsys, command, flags,
                                                        message):
    gt, pred = synth_pair
    tracked = tmp_path / "tracked.json"
    assert run("track", "--pred", pred, "--out", tracked) == 0
    capsys.readouterr()
    out = tmp_path / "out.json"
    inputs = {
        "track": ["--pred", pred, "--out", out],
        "eval": ["--gt", gt, "--pred", tracked, "--report", out],
        "oracle": ["--gt", gt, "--pred", tracked, "--out", out],
        "sweep": ["--gt", gt, "--pred", pred, "--out", out],
    }[command]
    # pyproject.toml turns warnings into errors, so a warning fails this test too
    assert run(command, *inputs, *flags) == 1
    assert capsys.readouterr().err == f"poselink {command}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("content", [
    pytest.param(b"[" * 200_000, id="deeply-nested"),
    pytest.param(b'{"frames": "\xff"}', id="not-utf8"),
    pytest.param(b"[" + b"1" * 5000 + b"]", id="integer-too-long"),
])
@pytest.mark.parametrize("flag", ["--pred", "--gt", "--config", "--external-scores"])
def test_side_file_that_cannot_decode_is_one_line_error_naming_it(synth_pair, tmp_path, capsys, flag, content):
    gt, pred = synth_pair
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "out.json"
    argv = {
        "--pred": ["track", "--pred", bad, "--out", out],
        "--gt": ["eval", "--gt", bad, "--pred", gt, "--report", out],
        "--config": ["synth", "--out-gt", out, "--config", bad],
        "--external-scores": ["track", "--pred", pred, "--out", out, "--cost", "external",
                              "--external-scores", bad],
    }[flag]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"poselink {argv[0]}: {bad}: not valid JSON: ") and err.count("\n") == 1
    assert not out.exists()


def strict_json(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(text, parse_constant=reject)


def test_manifests_are_strict_json(synth_pair, tmp_path):
    gt, pred = synth_pair
    tracked, fixed = tmp_path / "t.json", tmp_path / "o.json"
    assert run("track", "--pred", pred, "--out", tracked, "--min-sim", "inf", "--det-thresh=-inf") == 0
    assert run("oracle", "--mode", "kpts", "--gt", gt, "--pred", tracked, "--out", fixed) == 0
    assert run("eval", "--gt", gt, "--pred", fixed, "--report", tmp_path / "r.json") == 0
    assert run("sweep", "--gt", gt, "--pred", pred, "--out", tmp_path / "s.csv", "--algos", "greedy") == 0
    manifests = {name: strict_json((tmp_path / f"{name}.manifest.json").read_text())
                 for name in ("t.json", "o.json", "r.json", "s.csv", "gt.json")}
    config = manifests["t.json"]["config"]
    assert config["min_sim"] == "inf" and config["det_thresh"] == "-inf"
    assert manifests["o.json"]["config"]["alpha"] == 0.5
    stages = {
        "t.json": ["load", "track", "save"],
        "o.json": ["load", "oracle", "save"],
        "r.json": ["load", "evaluate"],
        "s.csv": ["load", "sweep", "save"],
        "gt.json": ["generate", "save"],
    }
    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "scipy": scipy.__version__, "cpu_count": os.cpu_count()}
    for name, manifest in manifests.items():
        timings = manifest["timings_s"]
        assert list(timings) == stages[name]
        assert all(t >= 0 for t in timings.values())
        assert manifest["environment"] == environment


# the flags that name files, in the order a manifest lists them under inputs and outputs
INPUT_FLAGS = ("--gt", "--pred", "--config", "--external-scores")
OUTPUT_FLAGS = ("--out", "--report", "--csv", "--out-gt", "--out-pred")


def setting_dests(command: str) -> set[str]:
    """The dest of each option of a command's parser, help and file flags aside."""
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help" and a.option_strings[0] not in INPUT_FLAGS + OUTPUT_FLAGS}


@pytest.mark.parametrize("argv", [
    pytest.param(["track", "--pred", "{pred}", "--out", "{tmp}/t.json", "--cost", "combined", "--weights", "2,1,0"],
                 id="track"),
    pytest.param(["track", "--pred", "{pred}", "--out", "{tmp}/t.json", "--cost", "external",
                  "--external-scores", "{scores}"], id="track-external-scores"),
    pytest.param(["eval", "--gt", "{gt}", "--pred", "{tracked}", "--report", "{tmp}/r.json"], id="eval"),
    pytest.param(["eval", "--gt", "{gt}", "--pred", "{tracked}", "--report", "{tmp}/r.json",
                  "--csv", "{tmp}/r.csv"], id="eval-csv"),
    pytest.param(["sweep", "--gt", "{gt}", "--pred", "{pred}", "--out", "{tmp}/s.csv", "--algos", "greedy"],
                 id="sweep"),
    pytest.param(["sweep", "--gt", "{gt}", "--pred", "{pred}", "--out", "{tmp}/s.csv",
                  "--costs", "external,iou", "--external-scores", "{scores}"], id="sweep-external-scores"),
    pytest.param(["oracle", "--mode", "both", "--gt", "{gt}", "--pred", "{tracked}", "--out", "{tmp}/o.json"],
                 id="oracle"),
    pytest.param(["synth", "--out-gt", "{tmp}/g.json", "--out-pred", "{tmp}/p.json", "--frames", "4"],
                 id="synth"),
    pytest.param(["synth", "--out-gt", "{tmp}/g.json", "--config", "{scenario}", "--frames", "4"],
                 id="synth-config"),
])
def test_manifest_records_files_as_inputs_and_outputs_and_every_other_flag_as_config(
    synth_pair, tmp_path, argv
):
    gt, pred = synth_pair
    scores = _external_entries(tmp_path, f"[{TestExternalScores.VALID}]")
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"seed": 3, "actors": 2}')
    tracked = tmp_path / "tracked.json"
    assert run("track", "--pred", pred, "--out", tracked) == 0
    paths = {"tmp": tmp_path, "gt": gt, "pred": pred, "tracked": tracked, "scores": scores, "scenario": scenario}
    argv = [a.format(**paths) for a in argv]
    assert run(*argv) == 0
    command, given = argv[0], dict(zip(argv[1::2], argv[2::2]))  # each option takes one value
    inputs = [given[flag] for flag in INPUT_FLAGS if flag in given]
    outputs = [given[flag] for flag in OUTPUT_FLAGS if flag in given]
    manifest = strict_json(Path(outputs[0] + ".manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["inputs"] == inputs
    assert manifest["outputs"] == outputs
    config = manifest["config"]
    assert not set(inputs + outputs) & {v for v in config.values() if isinstance(v, str)}
    if command == "synth":
        assert set(config) == {field.name for field in dataclasses.fields(ScenarioConfig)}
        assert config["frames"] == 4
        return
    parsed = vars(cli.build_parser().parse_args(argv))
    # a setting without a value is left out, but sweep records the default of each dimension it was not given
    if command == "sweep":
        resolved = {"thresholds": [cli.DET_THRESH], "algos": ["hungarian"], "costs": ["iou"]}
        parsed.update({name: value for name, value in resolved.items() if parsed[name] is None})
    expected = {name: parsed[name] for name in setting_dests(command) if parsed[name] is not None}
    results = {"total_assignment_cost", "new_tracks"} if command == "track" else set()
    assert set(config) == set(expected) | results
    assert {name: config[name] for name in expected} == expected


def row_flags() -> list[str]:
    """The options of `track` that default to None: the linker flags that only some rows read."""
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [a.option_strings[0] for a in sub.choices["track"]._actions
            if a.option_strings and a.default is None and not a.required]


MATCHING = ("hungarian", "greedy")
EVERY_COST = tuple(cli.COST_KINDS)
# each row flag -> (the algorithms, the costs) whose rows read it, and a valid value
ROW_FLAG_READERS = {
    "--min-sim": (MATCHING, EVERY_COST, "0.2"),
    "--lookback": (MATCHING, EVERY_COST, "2"),
    "--seed": (("random",), EVERY_COST, "3"),
    "--random-max-id": (("random",), EVERY_COST, "5"),
    "--weights": (ALGORITHMS, ("combined",), "2,1,1"),
    "--pckh-alpha": (ALGORITHMS, ("pckh", "combined"), "0.3"),
    "--pckh-norm-scale": (ALGORITHMS, ("pckh", "combined"), "0.2"),
    "--external-scores": (MATCHING, ("external",), "missing-scores.json"),
}


def test_every_row_flag_has_its_readers():
    assert sorted(row_flags()) == sorted(ROW_FLAG_READERS)


@pytest.mark.parametrize("flag", row_flags())
def test_row_flag_no_row_reads_is_usage_error(tmp_path, monkeypatch, capsys, flag):
    # the inputs are missing, so a run that gets past its usage checks exits 1 on
    # the first file it reads; one that no row reads exits 2 and reads no file
    monkeypatch.chdir(tmp_path)
    algos, costs, value = ROW_FLAG_READERS[flag]
    runs = [("track", ["--algo", algo, "--cost", cost], algo in algos and cost in costs)
            for algo in ALGORITHMS for cost in EVERY_COST]
    # a sweep of every row, of the algorithms that ignore the flag, and of the costs that do
    for chosen_algos, chosen_costs in [(ALGORITHMS, EVERY_COST),
                                       ([a for a in ALGORITHMS if a not in algos], EVERY_COST),
                                       (ALGORITHMS, [c for c in EVERY_COST if c not in costs])]:
        if chosen_algos and chosen_costs:
            read = bool(set(chosen_algos) & set(algos) and set(chosen_costs) & set(costs))
            runs.append(("sweep", ["--gt", "gt.json", "--algos", ",".join(chosen_algos),
                                   "--costs", ",".join(chosen_costs)], read))
    for command, argv, read in runs:
        capsys.readouterr()
        code = run(command, "--pred", "pred.json", "--out", "out.json", *argv, flag, value)
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (1 if read else 2, 1), (command, argv)
        if not read:
            assert err.startswith(f"poselink {command}: {flag} is read only by --"), err
        assert list(tmp_path.iterdir()) == []


def test_far_away_present_joints_track_and_score_without_warnings(tmp_path, capsys):
    # squared distances of joints at x = +-1e160 overflow; they decide as beyond
    # every limit, exactly as joints at x = +-1e6 do
    gt, pred = tmp_path / "gt.json", tmp_path / "pred.json"
    assert run("synth", "--out-gt", gt, "--out-pred", pred, "--frames", 3, "--tp-score", "0.95,1") == 0
    doc = json.loads(pred.read_text())
    ids, reports = {}, {}
    for x in (1e6, 1e160):
        for t, frame in enumerate(doc["frames"]):
            for det in frame["detections"]:
                if det["keypoints"][0][3]:
                    det["keypoints"][0][0] = (-1) ** t * x
        far, tracked, report = (tmp_path / f"{name}-{x:g}.json" for name in ("far", "tracked", "report"))
        far.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("track", "--pred", far, "--out", tracked, "--cost", "pckh") == 0
            assert run("eval", "--gt", gt, "--pred", tracked, "--report", report) == 0
        assert capsys.readouterr().err == ""
        ids[x] = [f.detections.track_ids for f in load_sequence(str(tracked)).frames]
        reports[x] = report.read_bytes()
    assert ids[1e160] == ids[1e6]
    assert reports[1e160] == reports[1e6]


@pytest.mark.parametrize("argv", [
    ["track", "--cost", "iou"],
    ["track", "--cost", "combined"],
    ["track", "--cost", "feat"],
    ["oracle", "--mode", "kpts", "--gt", "gt.json"],
])
def test_huge_boxes_and_features_are_one_line_errors_under_warnings_as_errors(tmp_path, monkeypatch, capsys,
                                                                              argv):
    # box areas and feature norms overflow; IoU and cosine then read NaN, as
    # the scalar functions do, and the cost or overlap check names it
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--out-gt", "gt.json", "--out-pred", "pred.json", "--frames", 3, "--tp-score", "0.95,1") == 0
    for path in (tmp_path / "gt.json", tmp_path / "pred.json"):
        doc = json.loads(path.read_text())
        for frame in doc["frames"]:
            for det in frame["detections"]:
                det["bbox"] = [0, 0, 1e160, 1e160]
                det["feature"] = [1e200] * 4
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--pred", "pred.json", "--out", "out.json") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"poselink {argv[0]}: ") and err.count("\n") == 1
    assert err.endswith("cost matrix entries must be finite\n")
    if argv[0] == "oracle":  # every labeled frame fails; the first is named
        assert err == "poselink oracle: frame 0: cost matrix entries must be finite\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["eval", "--pred", "p.json", "--report", "r.json"], id="eval-without-gt"),
    pytest.param(["bench", "--frames", "20,40"], id="unknown-command-bench"),
])
def test_usage_error_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert "usage: poselink" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["track", "--pred", "{pred}", "--out", "{out}", "--det", "0.5", "--kp", "1.0"], id="track"),
    pytest.param(["synth", "--out-gt", "{out}", "--fram", "4"], id="synth"),
    pytest.param(["eval", "--gt", "{gt}", "--pred", "{pred}", "--rep", "{out}"], id="eval"),
    pytest.param(["oracle", "--mo", "kpts", "--gt", "{gt}", "--pred", "{pred}", "--out", "{out}"], id="oracle"),
    pytest.param(["sweep", "--gt", "{gt}", "--pred", "{pred}", "--out", "{out}", "--thr", "0.5"], id="sweep"),
    pytest.param(["--vers"], id="version"),
])
def test_abbreviated_flag_exits_2(synth_pair, tmp_path, capsys, argv):
    gt, pred = synth_pair
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run(*(a.format(gt=gt, pred=pred, out=out) for a in argv))
    assert exc.value.code == 2
    assert "usage: poselink" in capsys.readouterr().err
    assert not out.exists()


def test_package_exports_its_public_names_and_no_module():
    public = {name for name, value in vars(poselink).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(poselink.__all__) == len(set(poselink.__all__)) == 35
    assert set(poselink.__all__) == public
    for name in poselink.__all__:
        assert not isinstance(getattr(poselink, name), types.ModuleType), name


_SCIPY_AFTER = """
import json, sys
status = None
{code}
print(json.dumps([status, sorted(name for name in sys.modules if name.split(".")[0] == "scipy")]))
"""


def scipy_modules_after(code: str, cwd) -> tuple[object, list[str]]:
    """(status, the scipy modules loaded) once code, which may set status, has run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", _SCIPY_AFTER.format(code=code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    status, modules = json.loads(done.stdout.splitlines()[-1])
    return status, modules


def test_importing_the_package_loads_no_scipy(tmp_path):
    _, modules = scipy_modules_after("import poselink, poselink.cli, poselink.tube", tmp_path)
    assert modules == []


@pytest.mark.parametrize("argv, status, optimize", [
    pytest.param(["synth", "--out-gt", "g.json", "--out-pred", "p.json", "--frames", "4"], 0, False, id="synth"),
    pytest.param(["--version"], 0, False, id="version"),
    pytest.param(["track", "--pred", "{pred}"], 2, False, id="usage-error"),
    pytest.param(["track", "--pred", "missing.json", "--out", "t.json"], 1, False, id="rejected-input"),
    pytest.param(["track", "--pred", "{pred}", "--out", "t.json"], 0, True, id="track"),
    pytest.param(["track", "--pred", "{pred}", "--out", "t.json", "--algo", "greedy"], 0, False, id="track-greedy"),
    pytest.param(["eval", "--gt", "{gt}", "--pred", "{tracked}", "--report", "r.json"], 0, True, id="eval"),
])
def test_scipy_optimize_loads_at_the_first_assignment(synth_pair, tmp_path, argv, status, optimize):
    gt, pred = synth_pair
    tracked = tmp_path / "tracked.json"
    assert run("track", "--pred", pred, "--out", tracked, "--algo", "greedy") == 0
    argv = [a.format(gt=gt, pred=pred, tracked=tracked) for a in argv]
    code = f"""from poselink.cli import main
try:
    status = main({argv!r})
except SystemExit as exc:
    status = exc.code"""
    got, modules = scipy_modules_after(code, tmp_path)
    assert got == status
    assert ("scipy.optimize" in modules) == optimize


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic garbage collector switched on or off for the test, and back after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _raise_runtime_error(args):
    raise RuntimeError("a command failed outside its error handling")


@pytest.mark.parametrize("argv, outcome", [
    pytest.param(["synth", "--out-gt", "{out}", "--frames", "2"], 0, id="success"),
    pytest.param(["track", "--pred", "{missing}", "--out", "{out}"], 1, id="data-error"),
    pytest.param(["track", "--pred", "{pred}", "--out", "{out}", "--seed", "3"], 2, id="usage-error"),
    pytest.param(["track", "--pred", "{pred}"], SystemExit, id="argparse-error"),
    pytest.param(["--version"], SystemExit, id="version"),
    pytest.param(["synth", "--out-gt", "{out}"], RuntimeError, id="escaping-exception"),
])
def test_main_leaves_the_collector_as_it_found_it(synth_pair, tmp_path, monkeypatch, capsys, collector, argv,
                                                  outcome):
    _, pred = synth_pair
    argv = [a.format(pred=pred, out=tmp_path / "out.json", missing=tmp_path / "missing.json") for a in argv]
    if outcome is RuntimeError:
        monkeypatch.setattr(cli, "cmd_synth", _raise_runtime_error)
    if isinstance(outcome, int):
        assert run(*argv) == outcome
    else:
        with pytest.raises(outcome):
            run(*argv)
    assert gc.isenabled() == collector


def test_a_command_runs_with_the_collector_paused(tmp_path, monkeypatch, collector):
    seen = []
    monkeypatch.setattr(cli, "cmd_synth", lambda args: seen.append(gc.isenabled()) or 0)
    assert run("synth", "--out-gt", tmp_path / "gt.json") == 0
    assert seen == [False]
    assert gc.isenabled() == collector


def test_the_cyclic_garbage_a_command_leaves_does_not_grow_with_its_work(synth_pair, tmp_path):
    """What the paused collector leaves behind is argparse's parser, whatever the input."""
    gt, pred = synth_pair

    def cyclic_garbage(thresholds):
        gc.collect()
        was = gc.isenabled()
        gc.disable()
        try:
            assert run("sweep", "--gt", gt, "--pred", pred, "--out", tmp_path / "sweep.csv",
                       "--thresholds", thresholds, "--costs", "iou,pckh", "--algos", "hungarian,greedy") == 0
            return gc.collect()
        finally:
            if was:
                gc.enable()

    cyclic_garbage("0.5")  # warm-up: the first call fills caches and imports
    many = ",".join(f"{0.5 + 0.05 * i:g}" for i in range(11))
    assert cyclic_garbage("0.5") == cyclic_garbage(many)
