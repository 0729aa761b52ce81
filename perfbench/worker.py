"""Child process of run.py: one set-up, or the measured passes, of one workload.

    python3 perfbench/worker.py setup SPEC_JSON OUT_JSON
    python3 perfbench/worker.py measure SPEC_JSON OUT_JSON

A set-up imports poselink, synthesises the inputs from the seed, and runs one
warm-up pass; the first set-up also derives the expected outputs from the
inputs. After its timing ends, every set-up checks its warm-up outputs.
The measuring process never generates inputs. It runs one warm-up pass (the
same pass on the same inputs that every set-up checks), then timed passes
until the run's seconds are used, each after a full gc.collect(). Its peak
resident memory is read right after the first timed pass, before the
expected outputs are loaded and before any check has run, so it comes from
importing poselink and running passes alone. Every timed pass is then
checked. The calibration kernel (calibrate.py) is timed twice before and
twice after each set-up, whose time is scaled by the median of the four,
and once between passes, after the checks and with the pass's outputs freed,
each pass being scaled by the two runs around it. Every time is reported
both as measured and scaled to the reference speed.

SPEC_JSON holds root, workload, seed, seconds, trace, work_dir, expect,
trace_path and cpu, the one CPU the process is pinned to. The result is written to OUT_JSON.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import time

import calibrate

MIN_PASSES = 3
KERNEL_SAMPLES = 2  # calibration runs before and after a set-up, whose median scales it


def setup(wl, import_s: float, kernel: list[float], spec: dict, tracer) -> dict:
    wl.clean()
    start = time.perf_counter()
    inputs = wl.make_inputs()
    wl.prepare()
    generated = time.perf_counter()
    ok, out = wl.run_pass()
    done = time.perf_counter()
    kernel += [calibrate.seconds() for _ in range(KERNEL_SAMPLES)]
    setup_s = import_s + (done - start)
    result = {
        "setup_s": calibrate.scaled(setup_s, statistics.median(kernel)),
        "measured_setup_s": setup_s,
        "kernel_s": kernel,
        "import_s": import_s,
        "inputs_s": generated - start,
        "warmup_s": done - generated,
        "inputs_sha256": inputs,
    }
    if tracer is not None:
        import spans
        result["generate_s"] = spans.generate_seconds(tracer.take())
    if spec["expect"]:
        with open(wl.path("expected.json"), "w", encoding="utf-8") as fh:
            json.dump(wl.expect(), fh)
    with open(wl.path("expected.json"), "r", encoding="utf-8") as fh:
        expect = json.load(fh)
    messages = [m for fails in wl.check(ok, out, expect) for m in fails]
    result["warmup_ok"] = all(ok) and not messages
    result["messages"] = messages[:20]
    return result


def measure(wl, spec: dict, tracer) -> dict:
    import numpy
    import scipy
    import spans

    wl.prepare()
    wl.run_pass()  # warm-up; every set-up checks this pass on these inputs
    all_spans = tracer.take() if tracer is not None else []

    times, scaled, kernel, layers = [], [], [calibrate.seconds()], []
    attempted = failed = 0
    correct, messages, expect, peak_rss_mb = True, [], None, None
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < spec["seconds"]:
        wl.clean()
        gc.collect()
        t0 = time.perf_counter()
        ok, out = wl.run_pass()
        times.append(time.perf_counter() - t0)
        if expect is None:
            # ru_maxrss never falls, so it is read before the checks' own data exists
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            with open(wl.path("expected.json"), "r", encoding="utf-8") as fh:
                expect = json.load(fh)
        if tracer is not None:
            taken = tracer.take()
            layers.append(spans.layer_metrics(taken))
            all_spans += taken
        fails = wl.check(ok, out, expect)
        out = None
        kernel.append(calibrate.seconds())
        scaled.append(calibrate.scaled(times[-1], 0.5 * (kernel[-2] + kernel[-1])))
        attempted += len(ok)
        failed += sum(1 for passed, msgs in zip(ok, fails) if not passed or msgs)
        if any(fails):
            correct = False
            messages += [m for msgs in fails for m in msgs]

    if tracer is not None:
        os.makedirs(os.path.dirname(spec["trace_path"]), exist_ok=True)
        with open(spec["trace_path"], "w", encoding="utf-8") as fh:
            for s in all_spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
    return {
        "pass_s": scaled,
        "measured_pass_s": times,
        "kernel_s": kernel,
        "peak_rss_mb": peak_rss_mb,
        "final_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "messages": messages[:20],
        "layers": {name: statistics.median(l[name] for l in layers) for name in layers[0]} if layers else {},
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        },
    }


def main(argv: list[str]) -> int:
    role, spec_path, out_path = argv
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    # one CPU for the kernel and the passes, so the kernel measures the speed
    # of the CPU the passes run on; the sweep's pool threads then take turns
    os.sched_setaffinity(0, {spec["cpu"]})
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)

    calibrate.seconds()  # first call warms the kernel's own code paths
    kernel = [calibrate.seconds() for _ in range(KERNEL_SAMPLES)] if role == "setup" else []
    start = time.perf_counter()
    import poselink.cli
    import poselink.tube  # noqa: F401
    import_s = time.perf_counter() - start
    if not os.path.abspath(poselink.__file__).startswith(src + os.sep):
        raise RuntimeError(f"poselink imported from {poselink.__file__}, not from {src}")

    import spans
    import workloads

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[spec["workload"]](spec["work_dir"], spec["seed"])
    if role == "setup":
        result = setup(wl, import_s, kernel, spec, tracer)
    else:
        result = measure(wl, spec, tracer)
    if tracer is not None:
        result["absent"] = tracer.absent
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
