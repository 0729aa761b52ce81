"""Command-line pipeline: synth, track, eval, sweep, oracle.

Every command writes a run manifest (<output>.manifest.json), built from the
parsed flags: `inputs` and `outputs` hold the files it read and wrote, and
`config` every other setting that has a value, so a new flag is recorded
without further edits. It also holds the stage timings, tool version, and the
Python, numpy and scipy versions and CPU count it ran with. A linker flag that
only some (algorithm, cost) rows read has a value only when given, and giving
it to a run with no such row is a usage error.
Exit codes: 0 success, 1 data or validation error, 2 usage error.

`main` runs each command with the cyclic garbage collector paused. poselink's
data (decoded JSON trees, arrays, tuples, frozen dataclasses) holds no
reference cycles, so the collections that its allocations would trigger
traverse every live object and free nothing. `main` restores the collector's
state as it found it, however the command ends. Library calls leave the
collector as their caller set it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import platform
import sys
import time
import typing
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__
from .linking import ALGORITHMS, LinkerConfig, track_video_with_stats
from .metrics import csv_columns, evaluate, sweep_threshold, write_csv
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


# the flags that name files a command reads or writes, in manifest order;
# the first output given also names the manifest
_INPUT_FLAGS = ("gt", "pred", "config", "external_scores")
_OUTPUT_FLAGS = ("out", "report", "csv", "out_gt", "out_pred")


def _write_manifest(args, timings: dict[str, float], config: dict | None = None, **results) -> None:
    """Write the run manifest of the parsed flags `args`.

    Each file flag that was given is listed under inputs or outputs, and every
    other flag that has a value, given or by default, is a config setting,
    unless `config` (synth's scenario) stands in for them. `results`, such as
    track's total assignment cost, are added to config, each over the flag of
    the same name.
    """
    import scipy  # here, not at module level: only a written manifest reads its version

    flags = vars(args)
    inputs = [flags[name] for name in _INPUT_FLAGS if flags.get(name)]
    outputs = [flags[name] for name in _OUTPUT_FLAGS if flags.get(name)]
    if config is None:
        skip = {"command", "func", *_INPUT_FLAGS, *_OUTPUT_FLAGS}
        config = {name: value for name, value in flags.items() if name not in skip and value is not None}
    config.update(results)
    manifest = {
        "command": args.command,
        "config": _strict_json_value(config),
        "inputs": inputs,
        "outputs": outputs,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    write_text_atomic(outputs[0] + ".manifest.json", (json.dumps(manifest, indent=2, allow_nan=False) + "\n",))


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


class UsageError(Exception):
    """A command line that no run can honour as given; main exits 2 with its message."""


_MATCHING = ("hungarian", "greedy")  # the algorithms that match, and so read similarities

# the linker flags that only some rows read: dest -> (the algorithms, the
# costs); a row reads the flag when its algorithm and its cost are both listed
_ROW_FLAGS = {
    "min_sim": (_MATCHING, tuple(COST_KINDS)),
    "lookback": (_MATCHING, tuple(COST_KINDS)),
    "seed": (("random",), tuple(COST_KINDS)),
    "weights": (ALGORITHMS, ("combined",)),
    "external_scores": (_MATCHING, ("external",)),
    "pckh_alpha": (ALGORITHMS, ("pckh", "combined")),
    "pckh_norm_scale": (ALGORITHMS, ("pckh", "combined")),
    "random_max_id": (("random",), tuple(COST_KINDS)),
}


def _linker_configs(args, algos, costs, plural="") -> list[tuple[str, str, LinkerConfig]]:
    """(algo, cost, linker config) of every algo x cost, with every other
    setting from the flags; a flag left out keeps its config default.

    A flag that no row reads is a usage error, and `plural` ("" for track,
    "s" for sweep) spells the flags that choose the rows. An external-scores
    file is read once, when a row reads it.
    """
    for dest, readers in _ROW_FLAGS.items():
        if getattr(args, dest) is None:
            continue
        for name, chosen, reading in zip(("algo", "cost"), (algos, costs), readers):
            if not set(chosen) & set(reading):
                flag = "--" + dest.replace("_", "-")
                raise UsageError(f"{flag} is read only by --{name}{plural} {' and '.join(reading)}")
    external = None
    if "external" in costs and set(algos) & set(_MATCHING):
        if not args.external_scores:
            raise ValueError(f"--cost{plural} external requires --external-scores PATH")
        external = load_external_scores(args.external_scores)
    weights = None if args.weights is None else tuple(args.weights)
    settings = _given(weights=weights, pckh_alpha=args.pckh_alpha, pckh_norm_scale=args.pckh_norm_scale)
    criteria = {cost: SimilarityCriterion(
        kind=COST_KINDS[cost], external_scores=external if cost == "external" else None, **settings,
    ) for cost in costs}
    linker = _given(min_similarity=args.min_sim, lookback=args.lookback,
                    random_max_id=args.random_max_id, rng_seed=args.seed)
    return [(algo, cost, LinkerConfig(algorithm=algo, criterion=criteria[cost], **linker))
            for algo in algos for cost in costs]


def _given(**settings) -> dict:
    """The settings that are not None, that is, whose flags were given."""
    return {name: value for name, value in settings.items() if value is not None}


def _add_linker_flags(parser: argparse.ArgumentParser) -> None:
    """The settings `track` and every `sweep` row share. Those that only some
    rows read (`_ROW_FLAGS`) default to None, so that a flag left out is told
    apart from one that was given and keeps its config default."""
    parser.add_argument("--kp-thresh", type=float, default=1.95)
    parser.add_argument("--min-sim", type=float)
    parser.add_argument("--lookback", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--weights", type=_list_of(float), help="combined-cost weights iou,pckh,cosine")
    parser.add_argument("--external-scores")
    parser.add_argument("--pckh-alpha", type=float)
    parser.add_argument("--pckh-norm-scale", type=float)
    parser.add_argument("--random-max-id", type=int)


def cmd_track(args) -> int:
    [(_, _, cfg)] = _linker_configs(args, [args.algo], [args.cost])
    t0 = time.perf_counter()
    pred = load_sequence(args.pred, ROLE_PREDICTION)
    t_load = time.perf_counter()
    filtered = filter_detections(pred, args.det_thresh, args.kp_thresh)
    tracked, stats = track_video_with_stats(filtered, cfg)
    t_track = time.perf_counter()
    save_sequence(tracked, args.out)
    t_save = time.perf_counter()
    _write_manifest(
        args, {"load": t_load - t0, "track": t_track - t_load, "save": t_save - t_track},
        total_assignment_cost=stats.total_assignment_cost, new_tracks=stats.new_tracks,
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
        write_csv(args.csv, [csv_columns(report, (("gt", args.gt), ("pred", args.pred)))])
    _write_manifest(args, {"load": t_load - t0, "evaluate": t_eval - t_load})
    print(report.summary_line())
    return 0


def cmd_sweep(args) -> int:
    """One CSV row per threshold x algorithm x cost, thresholds outermost.

    A dimension left out takes `track`'s default: DET_THRESH, hungarian or
    iou; at least one must be given. The row configs do not depend on the
    threshold, so they are built once, before any file is loaded: a bad
    setting fails first, and an external-scores file is read once.
    """
    if args.thresholds is None and args.algos is None and args.costs is None:
        raise UsageError("give at least one of --thresholds/--algos/--costs")
    thresholds = args.thresholds or [DET_THRESH]
    algos = args.algos or ["hungarian"]
    costs = args.costs or ["iou"]

    t0 = time.perf_counter()
    configs = _linker_configs(args, algos, costs, "s")
    gt = load_sequence(args.gt, ROLE_GROUNDTRUTH)
    pred = load_sequence(args.pred, ROLE_PREDICTION)
    t_load = time.perf_counter()
    linkers = [cfg for _, _, cfg in configs]
    rows = []
    for t in thresholds:
        results = sweep_threshold(gt, pred, t, args.kp_thresh, linkers, args.alpha)
        rows += [csv_columns(report, (("det_thresh", t), ("algo", algo), ("cost", cost)),
                             stats.total_assignment_cost)
                 for (algo, cost, _), (_, report, stats) in zip(configs, results)]
    t_sweep = time.perf_counter()
    write_csv(args.out, rows)
    t_save = time.perf_counter()
    _write_manifest(
        args, {"load": t_load - t0, "sweep": t_sweep - t_load, "save": t_save - t_sweep},
        thresholds=thresholds, algos=algos, costs=costs,
    )
    print(f"swept {len(rows)} configurations -> {args.out}")
    return 0


def cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    gt = load_sequence(args.gt, ROLE_GROUNDTRUTH)
    pred = load_sequence(args.pred, ROLE_PREDICTION)
    t_load = time.perf_counter()
    out = apply_oracle(gt, pred, ORACLE_MODES[args.mode], args.alpha)
    t_oracle = time.perf_counter()
    save_sequence(out, args.out)
    t_save = time.perf_counter()
    _write_manifest(args, {"load": t_load - t0, "oracle": t_oracle - t_load, "save": t_save - t_oracle})
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
    t_generate = time.perf_counter()
    save_sequence(gt, args.out_gt)
    if args.out_pred:
        save_sequence(pred, args.out_pred)
    t_save = time.perf_counter()
    _write_manifest(args, {"generate": t_generate - t0, "save": t_save - t_generate}, asdict(cfg))
    outputs = ", ".join(filter(None, (args.out_gt, args.out_pred)))
    print(f"generated {cfg.frames} frames, {cfg.actors} actors -> {outputs}")
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
    """Run one command with the cyclic garbage collector paused, and restore
    the collector's state as found, however the command ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except (UsageError, ValueError, OSError, MemoryError) as exc:
            print(f"poselink {args.command}: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, UsageError) else 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
