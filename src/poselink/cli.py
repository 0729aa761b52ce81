"""Command-line pipeline: synth, track, eval, sweep, oracle, bench.

Every command writes a run manifest (<output>.manifest.json) capturing the
effective configuration, input/output paths, stage timings, and tool version.
Exit codes: 0 success, 1 data or validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import typing
from dataclasses import asdict, is_dataclass, replace

import numpy as np

from . import __version__
from .linking import ALGORITHMS, LinkerConfig, track_video, track_video_with_stats
from .metrics import csv_header, csv_row, evaluate, evaluate_map, evaluate_mot, write_csv
from .model import (
    ROLE_GROUNDTRUTH,
    ROLE_PREDICTION,
    filter_detections,
    load_sequence,
    save_sequence,
    write_text_atomic,
)
from .oracles import apply_oracle
from .similarity import SimilarityCriterion, load_external_scores
from .synth import NO_NOISE, ScenarioConfig, generate_scenario

COST_KINDS = {
    "iou": "bbox_iou",
    "pckh": "pose_pckh",
    "feat": "feature_cosine",
    "combined": "combined",
    "external": "external",
}

ORACLE_MODES = {
    "assoc": "perfect_association",
    "kpts": "perfect_keypoints",
    "both": "both",
}


def _write_manifest(out_path: str, command: str, config: dict, inputs: list[str],
                    outputs: list[str], timings: dict[str, float]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "version": __version__,
    }
    write_text_atomic(out_path + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _str_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip() != ""]


def _linker_from_args(args, algo: str, cost: str) -> LinkerConfig:
    """The linker config of one algo x cost, with every other setting from the flags."""
    kind = COST_KINDS[cost]
    external = None
    if kind == "external":
        if not args.external_scores:
            raise ValueError("--cost external requires --external-scores PATH")
        external = load_external_scores(args.external_scores)
    criterion = SimilarityCriterion(
        kind=kind,
        weights=_weights(args),
        pckh_alpha=args.pckh_alpha,
        pckh_norm_scale=args.pckh_norm_scale,
        external_scores=external,
    )
    return LinkerConfig(
        algorithm=algo,
        criterion=criterion,
        min_similarity=args.min_sim,
        lookback=args.lookback,
        random_max_id=args.random_max_id,
        rng_seed=args.seed,
    )


def _weights(args) -> tuple[float, float, float]:
    weights = tuple(args.weights or (1.0, 1.0, 1.0))
    if len(weights) != 3:
        raise ValueError("--weights needs exactly three comma-separated values")
    return weights


def _linker_manifest(args) -> dict:
    """The linker settings as the `track` and `sweep` manifests record them."""
    return {
        "min_sim": args.min_sim, "lookback": args.lookback, "seed": args.seed,
        "weights": list(_weights(args)),
        "pckh_alpha": args.pckh_alpha, "pckh_norm_scale": args.pckh_norm_scale,
        "random_max_id": args.random_max_id,
        "external_scores": args.external_scores,
    }


def _add_track_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cost", choices=sorted(COST_KINDS), default="iou")
    parser.add_argument("--algo", choices=ALGORITHMS, default="hungarian")
    parser.add_argument("--det-thresh", type=float, default=0.95)
    parser.add_argument("--kp-thresh", type=float, default=1.95)
    parser.add_argument("--min-sim", type=float, default=0.0)
    parser.add_argument("--lookback", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--weights", type=_float_list, default=None,
                        help="combined-cost weights iou,pckh,cosine")
    parser.add_argument("--external-scores", default=None)
    parser.add_argument("--pckh-alpha", type=float, default=0.5)
    parser.add_argument("--pckh-norm-scale", type=float, default=0.1)
    parser.add_argument("--random-max-id", type=int, default=1000)


def cmd_track(args) -> int:
    t0 = time.perf_counter()
    pred = load_sequence(args.pred, ROLE_PREDICTION)
    t_load = time.perf_counter()
    filtered = filter_detections(pred, args.det_thresh, args.kp_thresh)
    cfg = _linker_from_args(args, args.algo, args.cost)
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


def _sweep_threshold(gt, pred, threshold, algos, costs, args) -> list[list]:
    """CSV rows of every algo x cost at one detection threshold.

    Filtering and mAP depend only on the threshold (mAP ignores track ids,
    and tracking changes nothing else), so both run once and each row merges
    its own MOT report with the shared mAP report.
    """
    filtered = filter_detections(pred, threshold, args.kp_thresh)
    map_report = evaluate_map(gt, filtered, args.alpha)
    rows = []
    for algo in algos:
        for cost_name in costs:
            tracked, stats = track_video_with_stats(filtered, _linker_from_args(args, algo, cost_name))
            report = evaluate_mot(gt, tracked, args.alpha).merged_with(map_report)
            rows.append(csv_row(report, (threshold, algo, cost_name), stats.total_assignment_cost))
    return rows


def cmd_sweep(args) -> int:
    thresholds = args.thresholds
    algos = args.algos
    costs = args.costs
    if thresholds is None and algos is None and costs is None:
        print("sweep: give at least one of --thresholds/--algos/--costs", file=sys.stderr)
        return 2
    if thresholds == [] or algos == [] or costs == []:
        print("sweep: empty sweep list", file=sys.stderr)
        return 2
    thresholds = thresholds if thresholds is not None else [args.det_thresh]
    algos = algos if algos is not None else ["hungarian"]
    costs = costs if costs is not None else ["iou"]
    for algo in algos:
        if algo not in ALGORITHMS:
            print(f"sweep: unknown algorithm {algo!r}", file=sys.stderr)
            return 2
    for cost in costs:
        if cost not in COST_KINDS:
            print(f"sweep: unknown cost {cost!r}", file=sys.stderr)
            return 2

    t0 = time.perf_counter()
    gt = load_sequence(args.gt, ROLE_GROUNDTRUTH)
    pred = load_sequence(args.pred, ROLE_PREDICTION)
    rows = [row for t in thresholds for row in _sweep_threshold(gt, pred, t, algos, costs, args)]
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


# (config section, field, synth flag); "" is the top level
_SYNTH_FLAGS = (
    ("", "seed", "seed"),
    ("", "frames", "frames"),
    ("", "actors", "actors"),
    ("", "label_every", "label_every"),
    ("", "image_width", "width"),
    ("", "image_height", "height"),
    ("motion", "kind", "motion"),
    ("motion", "speed_range", "speed"),
    ("occlusion", "probability", "occlusion_prob"),
    ("occlusion", "duration_range", "occlusion_dur"),
    ("noise", "keypoint_jitter", "kp_jitter"),
    ("noise", "box_jitter", "box_jitter"),
    ("noise", "miss_probability", "miss_prob"),
    ("noise", "false_positive_rate", "fp_rate"),
    ("noise", "feature_dim", "feature_dim"),
    ("noise", "tp_score_range", "tp_score"),
    ("noise", "fp_score_range", "fp_score"),
    ("noise", "keypoint_score_range", "kp_score"),
)


def _scenario_from_args(args) -> ScenarioConfig:
    cfg = ScenarioConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = _dataclass_from_doc(ScenarioConfig, json.load(fh), "config")
    overrides: dict[str, dict] = {"": {}, "motion": {}, "occlusion": {}, "noise": {}}
    for section, name, flag in _SYNTH_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            overrides[section][name] = tuple(value) if isinstance(value, list) else value
    top = overrides.pop("")
    try:
        sections = {name: replace(getattr(cfg, name), **kw) for name, kw in overrides.items()}
        return replace(cfg, **sections, **top)
    except ValueError as exc:  # a flag set a value the config rejects
        raise ValueError(f"config: {exc}") from exc


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


def cmd_bench(args) -> int:
    sizes = args.frames
    if len(sizes) < 2 or len(set(sizes)) != len(sizes):
        print("bench: a linear fit needs at least two distinct --frames values, "
              "none repeated", file=sys.stderr)
        return 2
    lcfg = LinkerConfig()
    inputs = []
    for n_frames in sizes:
        cfg = ScenarioConfig(
            seed=args.seed, frames=n_frames, actors=args.actors,
            noise=NO_NOISE,
        )
        _, pred = generate_scenario(cfg)
        inputs.append((n_frames, filter_detections(pred, 0.95, 1.95)))

    for _, seq in inputs:  # warmup pass
        track_video(seq, lcfg)
    # interleave timing rounds so every size runs under the same conditions
    times: dict[int, list[float]] = {n: [] for n, _ in inputs}
    for _ in range(args.repeats):
        for n_frames, seq in inputs:
            start = time.perf_counter()
            track_video(seq, lcfg)
            times[n_frames].append(time.perf_counter() - start)
    results = [(n, float(np.median(times[n]))) for n, _ in inputs]

    xs = np.array([r[0] for r in results], dtype=float)
    ys = np.array([r[1] for r in results], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(((ys - fitted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    for n_frames, seconds in results:
        print(f"frames {n_frames:6d}  track time {seconds * 1000:9.2f} ms")
    for (n0, t0_), (n1, t1_) in zip(results, results[1:]):
        ratio = t1_ / t0_ if t0_ > 0 else float("inf")
        print(f"ratio {n0} -> {n1}: {ratio:.2f}")
    print(f"linear fit R^2 = {r_squared:.4f}")

    if args.report:
        doc = {
            "frames": [r[0] for r in results],
            "seconds": [r[1] for r in results],
            "r_squared": r_squared,
            "actors": args.actors,
            "seed": args.seed,
        }
        write_text_atomic(args.report, json.dumps(doc, indent=2) + "\n")
        _write_manifest(
            args.report, "bench",
            {"frames": sizes, "actors": args.actors,
             "seed": args.seed, "repeats": args.repeats},
            [], [args.report], {"total": float(ys.sum())},
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poselink", description=__doc__)
    parser.add_argument("--version", action="version", version=f"poselink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="link detections into tracks")
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    _add_track_flags(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score tracked predictions against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="track+eval over a configuration cross-product")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True, help="CSV output, one row per configuration")
    p.add_argument("--thresholds", type=_float_list, default=None)
    p.add_argument("--algos", type=_str_list, default=None)
    p.add_argument("--costs", type=_str_list, default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    _add_track_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="apply an upper-bound transform to predictions")
    p.add_argument("--mode", choices=sorted(ORACLE_MODES), required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth/prediction pair")
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-pred", default=None)
    p.add_argument("--config", default=None, help="scenario config JSON; flags override")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--actors", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--motion", choices=("linear", "sinusoidal"), default=None)
    p.add_argument("--speed", type=_float_list, default=None, help="min,max px per frame")
    p.add_argument("--occlusion-prob", type=float, default=None)
    p.add_argument("--occlusion-dur", type=_int_list, default=None, help="min,max frames")
    p.add_argument("--kp-jitter", type=float, default=None)
    p.add_argument("--box-jitter", type=float, default=None)
    p.add_argument("--miss-prob", type=float, default=None)
    p.add_argument("--fp-rate", type=float, default=None)
    p.add_argument("--tp-score", type=_float_list, default=None, help="lo,hi")
    p.add_argument("--fp-score", type=_float_list, default=None, help="lo,hi")
    p.add_argument("--kp-score", type=_float_list, default=None, help="lo,hi")
    p.add_argument("--feature-dim", type=int, default=None)
    p.add_argument("--label-every", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="measure tracking wall time vs frame count")
    p.add_argument("--frames", type=_int_list, default=[100, 200, 400])
    p.add_argument("--actors", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_bench)

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
