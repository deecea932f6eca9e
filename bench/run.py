"""framestream benchmark: one run of one workload.

    python3 bench/run.py --workload {sweep,scatter,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The script starts every workload
process itself (``bench/worker.py``) with the BLAS/OpenMP thread
variables pinned to 1, so each workload is one client on one thread.
With ``--trace 0`` it first starts ``SETUP_PROBES`` processes that only
import framestream and build the inputs, then the measuring process; the
set-up time is the median over all of them.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the metric names and units are those of
``BENCHMARK.json`` (``end_to_end`` for ``--trace 0``, ``per_layer`` for
``--trace 1``).  Times are in reference seconds: each measured time is
scaled by a calibration pass timed next to it (see bench/README.md).
The environment and every sample go to the lines before the result and
to ``.bench_run/result-<workload>-seed<N>-trace<T>.json``.

Without ``src/framestream`` next to this directory the script exits with
code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("sweep", "scatter", "verify")
SETUP_PROBES = 4          # plus the measuring process itself
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = "1"             # at most nproc; one client on one thread
RUN_LIMIT_S = 170.0       # the whole run, set-up probes included
# glibc moves its mmap threshold as buffers are freed, so the peak RSS of
# identical work varied from 71 to 82 MB with the order of allocations.
# Fixing the threshold at its initial value (128 KiB) makes the peak
# follow live memory: 70 to 71 MB.
MMAP_THRESHOLD = "131072"
# Median time of worker.calibration_pass on the reference host (2-core
# KVM guest, Xeon at 2.1 GHz, Python 3.11, numpy 2.4).  Times are
# reported in reference seconds: a measured time times CALIBRATION_S
# over the calibration time measured next to it (see bench/README.md).
CALIBRATION_S = 0.25


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "threads": {v: THREADS for v in THREAD_VARS},
            "MALLOC_MMAP_THRESHOLD_": MMAP_THRESHOLD}


def _worker(args, extra, env, deadline):
    """Run bench/worker.py to completion; return (spawn time, report)."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - t0), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "framestream" / "__init__.py").is_file():
        print(f"error: no framestream sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    env = dict(os.environ, PYTHONHASHSEED="0",
               MALLOC_MMAP_THRESHOLD_=MMAP_THRESHOLD,
               **{v: THREADS for v in THREAD_VARS})

    setup, setup_scaled = [], []
    try:
        probes = [] if args.trace else [["--setup-only"]] * SETUP_PROBES
        for extra in probes + [[]]:
            t0, report = _worker(args, extra, env, deadline)
            # Each process times one calibration pass right after set-up.
            setup.append(report["ready"] - t0)
            setup_scaled.append(setup[-1] * CALIBRATION_S
                                / report["calibration"][0])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wall = CALIBRATION_S * statistics.median(
        [w / c for w, c in zip(report["walls"], report["bracket"])])
    values = dict(report.get("per_layer", {}))
    values.update(wall_s=wall, states_per_s=report["states"] / wall,
                  setup_s=statistics.median(setup_scaled),
                  peak_rss_mb=report["peak_rss_mb"],
                  measured_wall_s=statistics.median(report["walls"]),
                  measured_setup_s=statistics.median(setup))
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    env_record = _environment(args)
    env_record["numpy"] = report["numpy"]
    samples = {"passes": len(report["walls"]), "walls": report["walls"],
               "traced_walls": report.get("traced_walls", []),
               "bracket": report["bracket"], "setup": setup,
               "calibration": report["calibration"],
               "states_per_pass": report["states"],
               "failed_frac": report["failed"] / report["attempted"]}
    result = {"correct": report["failed"] == 0,
              "attempted": report["attempted"], "failed": report["failed"],
              "metrics": metrics}
    RUN_DIR.mkdir(exist_ok=True)
    side = RUN_DIR / (f"result-{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    side.write_text(json.dumps({"environment": env_record,
                                "samples": samples, "result": result,
                                "all_values": values}, indent=1) + "\n")
    print("environment " + json.dumps(env_record))
    print("samples " + json.dumps(samples))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
