"""Command-line pipeline: synth, track, eval, sweep, oracle.

Every command writes a run manifest (<output>.manifest.json) capturing the
effective configuration, input/output paths, stage timings, and tool version.
Exit codes: 0 success, 1 data or validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import typing
from dataclasses import asdict, is_dataclass

from . import __version__
from .linking import ALGORITHMS, KernelMemo, LinkerConfig, track_video_with_stats
from .metrics import csv_header, csv_row, evaluate, evaluate_map, evaluate_mot, match_sequence, write_csv
from .model import (
    ROLE_GROUNDTRUTH,
    ROLE_PREDICTION,
    filter_detections,
    load_sequence,
    read_json,
    save_sequence,
    write_text_atomic,
)
from .oracles import apply_oracle
from .similarity import SimilarityCriterion, load_external_scores
from .synth import ScenarioConfig, generate_scenario

COST_KINDS = {
    "iou": "bbox_iou",
    "pckh": "pose_pckh",
    "feat": "feature_cosine",
    "combined": "combined",
    "external": "external",
}

DET_THRESH = 0.95  # `track`'s detection threshold, and `sweep`'s when it sweeps no thresholds

ORACLE_MODES = {
    "assoc": "perfect_association",
    "kpts": "perfect_keypoints",
    "both": "both",
}


def _strict_json_value(value):
    """value with each non-finite float spelled as a string, such as "inf",
    since strict JSON has no token for it."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _strict_json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json_value(v) for v in value]
    return value


def _write_manifest(out_path: str, command: str, config: dict, inputs: list[str],
                    outputs: list[str], timings: dict[str, float]) -> None:
    manifest = {
        "command": command,
        "config": _strict_json_value(config),
        "inputs": inputs,
        "outputs": outputs,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "version": __version__,
    }
    write_text_atomic(out_path + ".manifest.json", json.dumps(manifest, indent=2, allow_nan=False) + "\n")


def _list_of(parse, names=None, empty=True):
    """argparse type: a comma-separated list of `parse` values, each one of
    `names` when names are given, and at least one value unless `empty`."""
    def list_of(text: str) -> list:
        values = [parse(v.strip()) for v in text.split(",") if v.strip() != ""]
        unknown = [v for v in values if names is not None and v not in names]
        if unknown:
            raise argparse.ArgumentTypeError(f"invalid choice: {unknown[0]!r} (choose from {', '.join(names)})")
        if not (values or empty):
            raise argparse.ArgumentTypeError("empty list")
        return values
    return list_of


def _linker_configs(args, algos, costs, flag: str) -> list[tuple[str, str, LinkerConfig]]:
    """(algo, cost, linker config) of every algo x cost, with every other
    setting from the flags; an external-scores file is read once."""
    if len(args.weights) != 3:
        raise ValueError("--weights needs exactly three comma-separated values")
    external = None
    if "external" in costs:
        if not args.external_scores:
            raise ValueError(f"{flag} external requires --external-scores PATH")
        external = load_external_scores(args.external_scores)
    criteria = {cost: SimilarityCriterion(
        kind=COST_KINDS[cost],
        weights=tuple(args.weights),
        pckh_alpha=args.pckh_alpha,
        pckh_norm_scale=args.pckh_norm_scale,
        external_scores=external if cost == "external" else None,
    ) for cost in costs}
    return [(algo, cost, LinkerConfig(
        algorithm=algo,
        criterion=criteria[cost],
        min_similarity=args.min_sim,
        lookback=args.lookback,
        random_max_id=args.random_max_id,
        rng_seed=args.seed,
    )) for algo in algos for cost in costs]


def _linker_manifest(args) -> dict:
    """The linker settings as the `track` and `sweep` manifests record them."""
    return {
        "min_sim": args.min_sim, "lookback": args.lookback, "seed": args.seed,
        "weights": list(args.weights),
        "pckh_alpha": args.pckh_alpha, "pckh_norm_scale": args.pckh_norm_scale,
        "random_max_id": args.random_max_id,
        "external_scores": args.external_scores,
    }


def _add_linker_flags(parser: argparse.ArgumentParser) -> None:
    """The settings `track` and every `sweep` row share."""
    parser.add_argument("--kp-thresh", type=float, default=1.95)
    parser.add_argument("--min-sim", type=float, default=0.0)
    parser.add_argument("--lookback", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--weights", type=_list_of(float), default=[1.0, 1.0, 1.0],
                        help="combined-cost weights iou,pckh,cosine")
    parser.add_argument("--external-scores", default=None)
    parser.add_argument("--pckh-alpha", type=float, default=0.5)
    parser.add_argument("--pckh-norm-scale", type=float, default=0.1)
    parser.add_argument("--random-max-id", type=int, default=1000)


def cmd_track(args) -> int:
    [(_, _, cfg)] = _linker_configs(args, [args.algo], [args.cost], "--cost")
    t0 = time.perf_counter()
    pred = load_sequence(args.pred, ROLE_PREDICTION)
    t_load = time.perf_counter()
    filtered = filter_detections(pred, args.det_thresh, args.kp_thresh)
    tracked, stats = track_video_with_stats(filtered, cfg)
    t_track = time.perf_counter()
    save_sequence(tracked, args.out)
    t_save = time.perf_counter()
    _write_manifest(
        args.out,
        "track",
        {
            "cost": args.cost, "algo": args.algo,
            "det_thresh": args.det_thresh, "kp_thresh": args.kp_thresh,
            **_linker_manifest(args),
            "total_assignment_cost": stats.total_assignment_cost,
            "new_tracks": stats.new_tracks,
        },
        [args.pred],
        [args.out],
        {"load": t_load - t0, "track": t_track - t_load, "save": t_save - t_track},
    )
    print(f"tracked {stats.frames} frames, {stats.new_tracks} tracks -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    gt = load_sequence(args.gt, ROLE_GROUNDTRUTH)
    pred = load_sequence(args.pred, ROLE_PREDICTION)
    t_load = time.perf_counter()
    report = evaluate(gt, pred, args.alpha)
    t_eval = time.perf_counter()
    report.save_json(args.report, extra={"video_id": gt.video_id, "alpha": args.alpha})
    if args.csv:
        header = csv_header(gt.joint_names, ("gt", "pred"))
        write_csv(args.csv, header, [csv_row(report, (args.gt, args.pred))])
    _write_manifest(
        args.report,
        "eval",
        {"alpha": args.alpha, "csv": args.csv},
        [args.gt, args.pred],
        [args.report] + ([args.csv] if args.csv else []),
        {"load": t_load - t0, "evaluate": t_eval - t_load},
    )
    print(report.summary_line())
    return 0


def _sweep_threshold(gt, pred, threshold, configs, args) -> list[list]:
    """CSV rows of every (algo, cost, linker config) at one detection threshold.

    Filtering, pose matching and mAP depend only on the threshold (tracking
    changes only track ids, which matching and mAP ignore), so they run once,
    and each row runs only the id pass of its own MOT report. The rows track
    one after another, in row order, sharing one kernel memo: each frame
    pair's IoU, PCKh and cosine matrices are computed once for all rows
    whose candidate pool is the same.
    """
    filtered = filter_detections(pred, threshold, args.kp_thresh)
    match = match_sequence(gt, filtered, args.alpha)
    shared_map = evaluate_map(match)
    memo = KernelMemo(filtered)
    rows = []
    for algo, cost, cfg in configs:
        tracked, stats = track_video_with_stats(filtered, cfg, memo)
        report = evaluate_mot(match, tracked).merged_with(shared_map)
        rows.append(csv_row(report, (threshold, algo, cost), stats.total_assignment_cost))
    return rows


def cmd_sweep(args) -> int:
    """One CSV row per threshold x algorithm x cost, thresholds outermost.

    A dimension left out takes `track`'s default: DET_THRESH, hungarian or
    iou; at least one must be given. The row configs do not depend on the
    threshold, so they are built once, before any file is loaded: a bad
    setting fails first, and an external-scores file is read once.
    """
    if args.thresholds is None and args.algos is None and args.costs is None:
        print("sweep: give at least one of --thresholds/--algos/--costs", file=sys.stderr)
        return 2
    thresholds = args.thresholds or [DET_THRESH]
    algos = args.algos or ["hungarian"]
    costs = args.costs or ["iou"]

    t0 = time.perf_counter()
    configs = _linker_configs(args, algos, costs, "--costs")
    gt = load_sequence(args.gt, ROLE_GROUNDTRUTH)
    pred = load_sequence(args.pred, ROLE_PREDICTION)
    rows = [row for t in thresholds for row in _sweep_threshold(gt, pred, t, configs, args)]
    header = csv_header(gt.joint_names, ("det_thresh", "algo", "cost"))
    write_csv(args.out, header, rows)
    _write_manifest(
        args.out,
        "sweep",
        {
            "thresholds": thresholds, "algos": algos, "costs": costs,
            "kp_thresh": args.kp_thresh, **_linker_manifest(args), "alpha": args.alpha,
        },
        [args.gt, args.pred],
        [args.out],
        {"total": time.perf_counter() - t0},
    )
    print(f"swept {len(rows)} configurations -> {args.out}")
    return 0


def cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    gt = load_sequence(args.gt, ROLE_GROUNDTRUTH)
    pred = load_sequence(args.pred, ROLE_PREDICTION)
    out = apply_oracle(gt, pred, ORACLE_MODES[args.mode], args.alpha)
    save_sequence(out, args.out)
    _write_manifest(
        args.out,
        "oracle",
        {"mode": args.mode, "alpha": args.alpha},
        [args.gt, args.pred],
        [args.out],
        {"total": time.perf_counter() - t0},
    )
    print(f"oracle {args.mode} -> {args.out}")
    return 0


def _dataclass_from_doc(cls, doc, where: str):
    """Build dataclass `cls` from a JSON object; unknown keys and wrong types are ValueErrors.

    Nested dataclass fields take nested objects and tuple fields take lists;
    a key left out keeps the field's default.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in doc.items():
        if key not in hints:
            raise ValueError(f"{where}: unknown key {key!r}")
        values[key] = _config_value(hints[key], value, f"{where}.{key}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _config_value(hint, value, where: str):
    if is_dataclass(hint):
        return _dataclass_from_doc(hint, value, where)
    if typing.get_origin(hint) is tuple:
        kinds = typing.get_args(hint)
        if not isinstance(value, list) or len(value) != len(kinds):
            raise ValueError(f"{where} must be a list of {len(kinds)} values")
        return tuple(_config_value(k, v, f"{where}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    accepted = (int, float) if hint is float else (hint,)  # a float may be written as 1
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{where} must be of type {hint.__name__}")
    return value


# (config section, field, synth flag, argparse keywords); "" is the top level
_SYNTH_FLAGS = (
    ("", "seed", "seed", {"type": int}),
    ("", "frames", "frames", {"type": int}),
    ("", "actors", "actors", {"type": int}),
    ("", "image_width", "width", {"type": int}),
    ("", "image_height", "height", {"type": int}),
    ("motion", "kind", "motion", {"choices": ("linear", "sinusoidal")}),
    ("motion", "speed_range", "speed", {"type": _list_of(float), "help": "min,max px per frame"}),
    ("occlusion", "probability", "occlusion_prob", {"type": float}),
    ("occlusion", "duration_range", "occlusion_dur", {"type": _list_of(int), "help": "min,max frames"}),
    ("noise", "keypoint_jitter", "kp_jitter", {"type": float}),
    ("noise", "box_jitter", "box_jitter", {"type": float}),
    ("noise", "miss_probability", "miss_prob", {"type": float}),
    ("noise", "false_positive_rate", "fp_rate", {"type": float}),
    ("noise", "tp_score_range", "tp_score", {"type": _list_of(float), "help": "lo,hi"}),
    ("noise", "fp_score_range", "fp_score", {"type": _list_of(float), "help": "lo,hi"}),
    ("noise", "keypoint_score_range", "kp_score", {"type": _list_of(float), "help": "lo,hi"}),
    ("noise", "feature_dim", "feature_dim", {"type": int}),
    ("", "label_every", "label_every", {"type": int}),
)


def _scenario_from_args(args) -> ScenarioConfig:
    """The `--config` document, or {} without one, with each given flag's value
    written over its field, built by the one set of config checks: a bad value
    fails with the same message whether a flag or the file gave it. A document
    or section that is no JSON object keeps no flag and fails as the file gave it."""
    doc = read_json(args.config) if args.config else {}
    for section, name, flag, _ in _SYNTH_FLAGS:
        fields = doc.setdefault(section, {}) if section and isinstance(doc, dict) else doc
        if getattr(args, flag) is not None and isinstance(fields, dict):
            fields[name] = getattr(args, flag)
    return _dataclass_from_doc(ScenarioConfig, doc, "config")


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    cfg = _scenario_from_args(args)
    gt, pred = generate_scenario(cfg)
    save_sequence(gt, args.out_gt)
    outputs = [args.out_gt]
    if args.out_pred:
        save_sequence(pred, args.out_pred)
        outputs.append(args.out_pred)
    _write_manifest(
        args.out_gt, "synth", asdict(cfg), [], outputs,
        {"total": time.perf_counter() - t0},
    )
    print(f"generated {cfg.frames} frames, {cfg.actors} actors -> {', '.join(outputs)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations anywhere, so that each setting has one spelling (in sweep,
    # --cost and --algo would otherwise read as --costs and --algos)
    parser = argparse.ArgumentParser(prog="poselink", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"poselink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("track", help="link detections into tracks")
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cost", choices=sorted(COST_KINDS), default="iou")
    p.add_argument("--algo", choices=ALGORITHMS, default="hungarian")
    p.add_argument("--det-thresh", type=float, default=DET_THRESH)
    _add_linker_flags(p)
    p.set_defaults(func=cmd_track)

    p = add_parser("eval", help="score tracked predictions against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = add_parser("sweep", help="track+eval over a configuration cross-product")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True, help="CSV output, one row per configuration")
    p.add_argument("--thresholds", type=_list_of(float, empty=False), default=None)
    p.add_argument("--algos", type=_list_of(str, ALGORITHMS, empty=False), default=None)
    p.add_argument("--costs", type=_list_of(str, sorted(COST_KINDS), empty=False), default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    _add_linker_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = add_parser("oracle", help="apply an upper-bound transform to predictions")
    p.add_argument("--mode", choices=sorted(ORACLE_MODES), required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_oracle)

    p = add_parser("synth", help="generate a synthetic ground-truth/prediction pair")
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-pred", default=None)
    p.add_argument("--config", default=None, help="scenario config JSON; flags override")
    for _, _, flag, keywords in _SYNTH_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), default=None, **keywords)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"poselink {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
