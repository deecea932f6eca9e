"""One workload process of the framestream benchmark.

``run.py`` starts this script in a fresh process with the thread
variables pinned.  It imports framestream from the checkout's ``src/``,
builds the workload's inputs from the seed, notes the moment it is
ready, and times one calibration pass.  With ``--setup-only`` it stops
there.  Otherwise it runs passes as a closed loop (one client, the next
pass starts when the previous one ends) for ``--seconds``, with a
calibration pass after each.  Then it checks every pass's outputs
against the package's truth sources, outside the timed region, and
prints one JSON line with the samples.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer metrics and the untraced ones the tracing overhead.

    python3 bench/worker.py --workload sweep --seed 7 --seconds 30 --trace 0
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("sweep", "scatter", "verify")

SWEEP_AXES = (5, 5, 4)  # 100 points
SWEEP_MU, SWEEP_OMEGA = 8, 16
SCATTER_PER_FRAME = 400
CATALOG_TOL = 1e-7
ORACLE_TOL = 1e-6
ENGINE_TOL = 1e-6
GRID_TOL = 1e-12
CALIBRATION_STEPS = 6000


def _import_framestream():
    """Import framestream from this checkout's src/, never from an
    installed copy."""
    sys.path.insert(0, str(SRC))
    import framestream
    if Path(framestream.__file__).resolve().parent != SRC / "framestream":
        raise SystemExit(f"framestream imported from {framestream.__file__},"
                         f" not from {SRC}")


class Sweep:
    """``framestream sweep`` on the sphere frame: ~100 grid points, each
    with 8 x 16 directions, written as JSON.  The seed shifts the grid
    origin."""

    def __init__(self, seed: int, out: Path):
        import numpy as np
        rng = np.random.default_rng(seed)
        x0, y0 = (float(v) for v in rng.uniform(0.5, 1.5, size=2))
        z0 = float(rng.uniform(-1.5, 0.5))
        axes = ((x0, x0 + 1.6), (y0, y0 + 1.6), (z0, z0 + 1.2))
        self.axes = [np.linspace(lo, hi, k)
                     for (lo, hi), k in zip(axes, SWEEP_AXES)]
        self.out = out
        self.argv = ["sweep", "--frame", "sphere"]
        for flag, (lo, hi), k in zip("xyz", axes, SWEEP_AXES):
            self.argv.append(f"--{flag}={lo!r}:{hi!r}:{k}")
        self.argv += ["--mu-count", str(SWEEP_MU),
                      "--omega-count", str(SWEEP_OMEGA),
                      "--no-timestamp", "--out", str(out)]
        self.states = math.prod(SWEEP_AXES) * SWEEP_MU * SWEEP_OMEGA
        self.fields = ()
        self.passes = []      # (exit code or error text, digest)
        self._outputs = {}    # digest -> report bytes

    def run_pass(self):
        from framestream import cli
        return cli.main(self.argv)

    def collect(self, result) -> int:
        data = self.out.read_bytes() if result == 0 else b""
        digest = hashlib.sha256(data).hexdigest()
        self._outputs.setdefault(digest, data)
        self.passes.append((result, digest))
        return len(data)

    def _misses(self, data: bytes) -> int:
        """Records that are missing, at the wrong state, or off the
        catalog by more than CATALOG_TOL."""
        import numpy as np
        from framestream import Sphere, catalog_coefficients
        records = json.loads(data)["records"]
        mus = np.polynomial.legendre.leggauss(SWEEP_MU)[0]
        omegas = [2.0 * math.pi * j / SWEEP_OMEGA for j in range(SWEEP_OMEGA)]
        want = [(x, y, z, float(mu), om) for x in self.axes[0]
                for y in self.axes[1] for z in self.axes[2]
                for mu in mus for om in omegas]
        misses = abs(len(want) - len(records))
        fid = Sphere()
        for rec, (x, y, z, mu, om) in zip(records, want):
            got = (rec["x"], rec["y"], rec["z"], rec["mu"], rec["omega"])
            if max(abs(g - w) for g, w in zip(got, (x, y, z, mu, om))) \
                    > GRID_TOL:
                misses += 1
                continue
            a_mu, a_om = catalog_coefficients(fid, (x, y, z), mu, om)
            if max(abs(rec["a_mu"] - a_mu),
                   abs(rec["a_omega"] - a_om)) > CATALOG_TOL:
                misses += 1
        return misses

    def gate(self):
        misses = {d: self._misses(data) if data else self.states
                  for d, data in self._outputs.items()}
        failed = sum(self.states if rc != 0 else misses[d]
                     for rc, d in self.passes)
        return len(self.passes) * self.states, failed


class Scatter:
    """Random states of all seven default frames.  Every state runs the
    dual and fd engines, the catalog, and the ray oracle."""

    def __init__(self, seed: int, out: Path):
        import numpy as np
        from framestream import DiffConfig, builtin_frame
        from framestream.verification import default_frames, random_states
        rng = np.random.default_rng(seed)
        self.cases = []
        for fid in default_frames().values():
            self.cases.append((fid, builtin_frame(fid), random_states(
                fid, SCATTER_PER_FRAME, rng)))
        self.fields = [field for _, field, _ in self.cases]
        self.fd = DiffConfig(engine="fd")
        self.states = sum(len(states) for _, _, states in self.cases)
        self.passes = []

    def run_pass(self):
        from framestream import catalog, frames, streaming, verification
        out = []
        for fid, field, states in self.cases:
            for r, mu, omega in states:
                try:
                    dual = streaming.streaming_coefficients(field, r, mu,
                                                            omega)
                    fd = streaming.streaming_coefficients(field, r, mu,
                                                          omega, self.fd)
                    cat = catalog.catalog_coefficients(fid, r, mu, omega)
                    ray = verification.ray_oracle(
                        field, r,
                        frames.direction_from_angles(dual.frame, mu, omega))
                except Exception as exc:  # one state failed; keep going
                    out.append(f"{type(exc).__name__}: {exc}")
                    continue
                out.append((dual.a_mu, dual.a_omega, fd.a_mu, fd.a_omega,
                            cat[0], cat[1], ray.dmu_ds, ray.domega_ds))
        return out

    def collect(self, result) -> int:
        self.passes.append(result)
        return 0

    @staticmethod
    def _ok(row) -> bool:
        if isinstance(row, str):
            return False
        d_mu, d_om, f_mu, f_om, c_mu, c_om, o_mu, o_om = row
        return (max(abs(d_mu - c_mu), abs(d_om - c_om)) <= CATALOG_TOL
                and max(abs(d_mu - o_mu), abs(d_om - o_om)) <= ORACLE_TOL
                and max(abs(d_mu - f_mu), abs(d_om - f_om)) <= ENGINE_TOL)

    def gate(self):
        failed = 0
        for rows in self.passes:
            if isinstance(rows, str):
                failed += self.states
            else:
                failed += self.states - sum(map(self._ok, rows))
        return len(self.passes) * self.states, failed


class Verify:
    """``framestream verify --seed S``: the full check suite."""

    def __init__(self, seed: int, out: Path):
        self.out = out
        self.argv = ["verify", "--seed", str(seed), "--no-timestamp",
                     "--out", str(out)]
        self.fields = ()
        self.passes = []     # (exit code or error text, report bytes)
        self.states = 0      # samples the checks report, set by gate()

    def run_pass(self):
        from framestream import cli
        return cli.main(self.argv)

    def collect(self, result) -> int:
        data = self.out.read_bytes() if result == 0 else b""
        self.passes.append((result, data))
        return len(data)

    def gate(self):
        first = self.passes[0][1]
        failed = 0
        for rc, data in self.passes:
            if rc != 0 or data != first:
                failed += 1
                continue
            checks = json.loads(data)["checks"]
            if any(c["status"] not in ("pass", "report-only")
                   for c in checks):
                failed += 1
        if first:
            self.states = sum(c["samples"]
                              for c in json.loads(first)["checks"])
        return len(self.passes), failed


def calibration_pass(steps: int = CALIBRATION_STEPS) -> float:
    """Time a fixed piece of work that does not touch framestream.

    It is written in the package's style: Python floats and tuples,
    dicts, numpy 3-vectors and string formatting.  Its time tracks how
    fast the host runs this kind of code at the moment; run.py scales
    pass and set-up times by it."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0.0
    rows = []
    for i in range(steps):
        v = np.array([1.0 + i * 1e-6, 0.5, 0.25])
        w = np.cross(v, (0.0, 0.0, 1.0))
        m = np.column_stack([v, w, v])
        acc += float(v @ (m @ w)) + math.sqrt(abs(acc) + 1.0)
        t = tuple(x * 0.5 + 1.0 for x in (acc, 1.0, 2.0))
        d = {"a": t[0], "b": t[1], "c": t[2]}
        rows.append(f"{d['a']:.17g},{d['b']:.17g},{d['c']:.17g}")
    ",".join(rows)
    return time.perf_counter() - t0


def _run_pass(workload):
    """One pass; a pass that raises counts as failed, not as a crash."""
    try:
        return workload.run_pass()
    except Exception:
        text = traceback.format_exc()
        print(text, file=sys.stderr)
        return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_framestream()
    RUN_DIR.mkdir(exist_ok=True)
    out = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.out"
    workload = {"sweep": Sweep, "scatter": Scatter,
                "verify": Verify}[args.workload](args.seed, out)
    ready = time.monotonic()
    calibration = [calibration_pass()]
    if args.setup_only:
        print(json.dumps({"ready": ready, "calibration": calibration}))
        return 0

    import numpy as np
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    walls, traced_walls, bracket, out_bytes = [], [], [], []
    peak_rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or not walls
           or (tracer is not None and not traced_walls)):
        traced = tracer is not None and len(walls) > len(traced_walls)
        t0 = time.perf_counter()
        if traced:
            with tracer.traced_pass(workload.fields):
                result = _run_pass(workload)
        else:
            result = _run_pass(workload)
        wall = time.perf_counter() - t0
        if peak_rss_mb is None:
            # Peak of set-up plus one pass, what one command run costs.
            # Later passes reuse freed memory unevenly, so their peak
            # would depend on how many passes fit in the run.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calibration.append(calibration_pass())
        if traced:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            # The calibration passes just before and just after this one.
            bracket.append((calibration[-2] + calibration[-1]) / 2.0)
        out_bytes.append(workload.collect(result))

    attempted, failed = workload.gate()
    out.unlink(missing_ok=True)
    report = {"ready": ready, "walls": walls, "bracket": bracket,
              "calibration": calibration, "states": workload.states,
              "attempted": attempted, "failed": failed,
              "peak_rss_mb": peak_rss_mb, "numpy": np.__version__}
    if tracer is not None:
        overhead = (statistics.median(traced_walls)
                    / statistics.median(walls) - 1.0)
        report["traced_walls"] = traced_walls
        report["per_layer"] = tracer.layer_metrics(
            statistics.median(out_bytes), overhead)
        tracer.save(RUN_DIR / f"spans-{args.workload}.npz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
