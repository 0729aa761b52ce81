#!/usr/bin/env python3
"""Benchmark of poselink: one workload at one seed.

Run from the repository root:

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 0

Workloads are crowd (a dense scene swept over costs and algorithms),
longvideo (a sparse long scene through track, eval, oracle and eval) and tube
(the clip kernels); see README.md. With --trace 0 the run reports the
end-to-end metrics wall_s, peak_rss_mb and setup_s; with --trace 1 it wraps
poselink's public functions and reports the per-layer metrics instead. The
times of wall_s and setup_s are scaled to a reference machine speed
(calibrate.py); the per-layer times are as measured. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

Each run makes SETUP_REPEATS set-ups and one measuring process, all as
separate Python processes (worker.py), one after another, each pinned to the
highest-numbered CPU this process may use. Inputs and outputs
live in .perfbench/work/ under the repository root and are removed at the
end; the full record of the run (every sample, the SHA-256 of each input,
the Python, numpy and scipy versions and the CPU count) goes to
.perfbench/results/, and the spans of a traced run to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, set-ups included, must end within 180 s

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
WORKLOADS = ("crowd", "longvideo", "tube")

HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    pass


def run_child(role: str, spec: dict, tag: str, deadline: float) -> dict:
    spec_path = os.path.join(spec["work_dir"], f"spec-{tag}.json")
    out_path = os.path.join(spec["work_dir"], f"result-{tag}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env.pop("POSELINK_WORKERS", None)  # the sweep runs at its default worker count
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for {tag}")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), role, spec_path, out_path],
            cwd=spec["root"], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr.strip():
        print(proc.stderr[-4000:], file=sys.stderr, end="")
    with open(out_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "poselink", "__init__.py")):
        print("perfbench: src/poselink not found; run from the repository root", file=sys.stderr)
        return 2

    stamp = time.strftime("%Y%m%dT%H%M%S")
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_root = os.path.join(root, ".perfbench")
    work_dir = os.path.join(out_root, "work", f"{label}-{os.getpid()}")
    os.makedirs(work_dir)
    spec = {
        "root": root, "workload": args.workload, "seed": args.seed % 2**32,  # synth takes seeds >= 0
        "seconds": args.seconds, "trace": args.trace, "work_dir": work_dir,
        "trace_path": os.path.join(out_root, "traces", f"{label}-{stamp}.jsonl"),
        "cpu": max(os.sched_getaffinity(0)),
    }
    try:
        setups = [
            run_child("setup", dict(spec, expect=i == 0), f"setup{i}", deadline)
            for i in range(SETUP_REPEATS)
        ]
        measured = run_child("measure", dict(spec, expect=False), "measure", deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # the same seed must give the same inputs in every set-up
    same_inputs = all(s["inputs_sha256"] == setups[0]["inputs_sha256"] for s in setups)
    warmups_ok = all(s["warmup_ok"] for s in setups)
    correct = measured["correct"] and same_inputs and warmups_ok
    if not same_inputs:
        print("perfbench: set-ups wrote different inputs for one seed", file=sys.stderr)
    for i, s in enumerate(setups):
        if not s["warmup_ok"]:
            print(f"perfbench: the warm-up pass of set-up {i} failed", file=sys.stderr)
        for message in s["messages"]:
            print(f"perfbench: set-up {i} check failed: {message}", file=sys.stderr)
    for message in measured["messages"]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    if args.trace:
        import spans

        values = dict(measured["layers"])
        values["synth.generate_s"] = statistics.median(s["generate_s"] for s in setups)
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, (unit, _) in spans.PER_LAYER.items()}
        absent = sorted(set(measured.get("absent", [])))
        if absent:
            print(f"perfbench: absent from poselink, reported as 0: {', '.join(absent)}", file=sys.stderr)
    else:
        values = {
            "wall_s": statistics.median(measured["pass_s"]),
            "peak_rss_mb": measured["peak_rss_mb"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time": stamp, "correct": correct, "same_inputs": same_inputs,
        "warmups_ok": warmups_ok,
        "attempted": measured["attempted"], "failed": measured["failed"],
        "metrics": metrics,
        "wall_s": statistics.median(measured["pass_s"]),
        "measured_wall_s": statistics.median(measured["measured_pass_s"]),
        "pass_s": measured["pass_s"], "measured_pass_s": measured["measured_pass_s"],
        "kernel_s": measured["kernel_s"], "final_rss_mb": measured["final_rss_mb"], "setups": setups, "env": measured["env"], "absent": measured.get("absent", []),
        "messages": measured["messages"],
    }
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    with open(os.path.join(out_root, "results", f"{label}-{stamp}-{os.getpid()}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(json.dumps({
        "correct": correct, "attempted": measured["attempted"],
        "failed": measured["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
