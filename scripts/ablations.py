#!/usr/bin/env python3
"""Ablations on synthetic suites, averaged over seeds.

Three tables, each with its own noise model:

- detection threshold: tracks the same noisy predictions at several
  detection cut-offs, plus a random-id baseline. Low-confidence false
  positives disappear as the threshold rises, so MOTA climbs while recall can
  only fall.
- matching and cost: Hungarian against greedy matching (the optimal
  assignment can only have lower summed edge cost), then each similarity
  criterion: box IoU, pose distance, appearance cosine, and the equal-weight
  combination.
- upper bounds: substitutes ground truth into the tracker's own output one
  part at a time: ground-truth ids on matched predictions (perfect
  association), labeled poses on matched predictions (perfect keypoints),
  then both. The gap to each bound shows where the remaining headroom is.
"""

import argparse
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from poselink.cli import _list_of
from poselink.linking import LinkerConfig
from poselink.metrics import evaluate, sweep_threshold
from poselink.oracles import apply_oracle
from poselink.similarity import SimilarityCriterion
from poselink.synth import NoiseModel, ScenarioConfig, generate_scenario

# column -> (value from the report and the tracking stats, width, format)
COLUMNS = {
    "mAP": (lambda report, stats: report.map_total, 7, ".1f"),
    "MOTA": (lambda report, stats: report.mota_total, 7, ".1f"),
    "MOTP": (lambda report, stats: report.motp_total, 7, ".1f"),
    "Prec": (lambda report, stats: report.precision_total, 7, ".1f"),
    "Rec": (lambda report, stats: report.recall_total, 7, ".1f"),
    "sum cost": (lambda report, stats: stats.total_assignment_cost, 10, ".2f"),
}
METRICS = ("mAP", "MOTA", "MOTP", "Prec", "Rec")


@dataclass(frozen=True)
class Row:
    label: str
    det_thresh: float = 0.95
    algorithm: str = "hungarian"
    criterion: SimilarityCriterion = SimilarityCriterion()
    oracle: Optional[str] = None  # an apply_oracle mode run on the tracked output


@dataclass(frozen=True)
class Table:
    title: str
    noise: NoiseModel
    columns: tuple[str, ...]
    rows: tuple[Row, ...]


def tables(thresholds: list[float]) -> tuple[Table, ...]:
    return (
        Table(
            "detection threshold",
            NoiseModel(keypoint_jitter=1.5, box_jitter=1.5, miss_probability=0.05,
                       false_positive_rate=1.0, tp_score_range=(0.95, 1.0)),
            METRICS,
            (Row(f"{thresholds[0]:g}, random ids", thresholds[0], "random"),)
            + tuple(Row(f"{t:g}", t) for t in thresholds),
        ),
        Table(
            "matching and cost",
            NoiseModel(keypoint_jitter=2.0, box_jitter=1.5, miss_probability=0.05,
                       false_positive_rate=0.5, tp_score_range=(0.95, 1.0),
                       feature_dim=8, feature_noise=0.05),
            METRICS + ("sum cost",),
            tuple(
                Row(f"{algorithm}, {name}", algorithm=algorithm, criterion=SimilarityCriterion(kind))
                for algorithm, name, kind in (
                    ("hungarian", "bbox IoU", "bbox_iou"),
                    ("greedy", "bbox IoU", "bbox_iou"),
                    ("hungarian", "pose distance", "pose_pckh"),
                    ("hungarian", "feature cosine", "feature_cosine"),
                    ("hungarian", "all combined", "combined"),
                )
            ),
        ),
        Table(
            "upper bounds",
            NoiseModel(keypoint_jitter=4.0, box_jitter=2.0, miss_probability=0.08,
                       false_positive_rate=1.0, tp_score_range=(0.95, 1.0)),
            ("MOTA",),
            (Row("tracker output"),)
            + tuple(Row(label, oracle=mode) for label, mode in (
                ("perfect association", "perfect_association"),
                ("perfect keypoints", "perfect_keypoints"),
                ("both", "both"),
            )),
        ),
    )


def table_means(table: Table, seeds, frames: int, actors: int) -> list[np.ndarray]:
    """Each row's column values, averaged over the seeds.

    Per seed, the rows of each threshold go through one sweep_threshold call,
    one linker config per distinct (algorithm, criterion); an oracle row
    applies its oracle to the output of the row with its settings.
    """
    values = [[] for _ in table.rows]
    for seed in seeds:
        cfg = ScenarioConfig(seed=seed, frames=frames, actors=actors, noise=table.noise)
        gt, pred = generate_scenario(cfg)
        by_threshold = {}
        for row, row_values in zip(table.rows, values):
            lcfg = LinkerConfig(algorithm=row.algorithm, criterion=row.criterion, rng_seed=seed)
            by_threshold.setdefault(row.det_thresh, []).append((row, lcfg, row_values))
        for threshold, rows in by_threshold.items():
            configs = list(dict.fromkeys(lcfg for _, lcfg, _ in rows))
            results = dict(zip(configs, sweep_threshold(gt, pred, threshold, 1.95, configs)))
            for row, lcfg, row_values in rows:
                tracked, report, stats = results[lcfg]
                if row.oracle is not None:
                    report = evaluate(gt, apply_oracle(gt, tracked, row.oracle))
                row_values.append([COLUMNS[c][0](report, stats) for c in table.columns])
    return [np.mean(v, axis=0) for v in values]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--seeds", type=_positive_int, default=5)
    parser.add_argument("--frames", type=_positive_int, default=40)
    parser.add_argument("--actors", type=_positive_int, default=4)
    parser.add_argument("--thresholds", type=_list_of(float, empty=False), default="0,0.5,0.95")
    args = parser.parse_args(argv)

    try:
        results = [(table, table_means(table, range(args.seeds), args.frames, args.actors))
                   for table in tables(args.thresholds)]
    except ValueError as exc:
        print(f"ablations: {exc}", file=sys.stderr)
        return 1
    for k, (table, table_rows) in enumerate(results):
        if k:
            print()
        print(table.title)
        widths = [COLUMNS[c][1] for c in table.columns]
        print(f"{'configuration':>26} " + " ".join(f"{c:>{w}}" for c, w in zip(table.columns, widths)))
        for row, means in zip(table.rows, table_rows):
            cells = [f"{v:{COLUMNS[c][1]}{COLUMNS[c][2]}}" for c, v in zip(table.columns, means)]
            print(f"{row.label:>26} " + " ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
