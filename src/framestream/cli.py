"""Command-line front end: coefficient evaluation, grid sweeps, the
verification suite, conservation feasibility, and holonomy loops."""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .curvature import parallel_transport_holonomy
from .derivatives import DiffConfig, frame_jet
from .errors import FramestreamError, OutOfRange
from .frames import (Constant, CylindricalI, CylindricalII, Ellipsoid,
                     FramePoint, Paraboloid, Sphere, builtin_frame)
from .streaming import (angle_arrays, check_breakdown, check_mu,
                        coefficient_terms)
from .verification import (conservation_check, default_graph_id,
                           random_states, run_checks, selected_checks)

FRAME_NAMES = ("constant", "cylindrical-i", "cylindrical-ii", "sphere",
               "ellipsoid", "paraboloid", "graph")
TABLE_COLUMNS = ("x", "y", "z", "mu", "omega", "a_mu", "a_omega",
                 "mu_surface", "mu_curve_n", "omega_curve", "omega_wind",
                 "omega_tilt")
CSV_COLUMNS = TABLE_COLUMNS[:-1]
_CHUNK_ROWS = 1024
# One state as _emit_json renders a record dict at depth 2, and as a
# CSV row; "%.17g" gives the same text as _fmt's f"{x:.17g}".
_JSON_RECORD = ("    {\n"
                + ",\n".join(f"      {json.dumps(c)}: %.17g"
                             for c in TABLE_COLUMNS)
                + "\n    }")
_CSV_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS))


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, int):
        return str(x)
    if x is None:
        return "null"
    return json.dumps(x)


def _emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{json.dumps(k)}: {_emit_json(v, indent + 1)}"
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{_emit_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return _fmt(obj)


def _write_out(chunks, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _write_doc(doc, args) -> None:
    _write_out([_emit_json(doc) + "\n"], args)


def _meta(args) -> dict:
    meta = {"seed": args.seed, "engine": args.engine}
    if not args.no_timestamp:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                          time.gmtime())
    return meta


def _cfg(args) -> DiffConfig:
    return DiffConfig(engine=args.engine, fd_step=args.fd_step)


def _fid(args):
    name = args.frame
    if name == "constant":
        return Constant()
    if name == "cylindrical-i":
        return CylindricalI()
    if name == "cylindrical-ii":
        return CylindricalII()
    if name == "sphere":
        return Sphere()
    if name == "ellipsoid":
        return Ellipsoid(args.a if args.a is not None else 2.0,
                         args.b if args.b is not None else 1.0,
                         args.c if args.c is not None else 1.0)
    if name == "paraboloid":
        return Paraboloid(args.a if args.a is not None else 1.0,
                          args.b if args.b is not None else 2.0)
    return default_graph_id()


def _parse_point(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("point must be x,y,z")
    return np.array([float(p) for p in parts])


def _parse_axis(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("axis must be min:max:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise argparse.ArgumentTypeError("axis count must be >= 1")
    return np.linspace(lo, hi, count)


def _table_chunks(table, args):
    """The table as the JSON report or CSV text, a chunk of rows at a
    time, byte for byte as _emit_json renders one dict per row."""
    if args.format == "csv":
        yield ",".join(CSV_COLUMNS) + "\n"
        for lo in range(0, len(table), _CHUNK_ROWS):
            rows = table[lo:lo + _CHUNK_ROWS, :len(CSV_COLUMNS)].tolist()
            yield "".join(_CSV_ROW % tuple(row) + "\n" for row in rows)
        return
    yield '{\n  "version": 1,\n  "records": [\n'
    for lo in range(0, len(table), _CHUNK_ROWS):
        rows = table[lo:lo + _CHUNK_ROWS].tolist()
        yield (",\n" if lo else "") + ",\n".join(
            _JSON_RECORD % tuple(row) for row in rows)
    yield '\n  ],\n  "meta": ' + _emit_json(_meta(args), 1) + "\n}\n"


def _emit_states(field, points, mus, omegas, args) -> int:
    """Evaluate every (point, mu, omega) state, point-major with the
    columns TABLE_COLUMNS, then write the report; returns the exit code.
    Each point gets one frame jet and one frame validation, and its
    directions are assembled in one numpy pass.  Nothing is written
    when a state fails."""
    cfg = _cfg(args)
    mu, s, c, sn = angle_arrays(mus, omegas)
    try:
        check_mu(mu)
    except FramestreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    k = len(mu)
    table = np.empty((len(points) * k, len(TABLE_COLUMNS)))
    for i, r in enumerate(points):
        try:
            jet = frame_jet(field, r, cfg)
            FramePoint.loose(jet.n, jet.t, jet.b)
            terms = coefficient_terms(jet, mu, s, c, sn)
            check_breakdown(*terms)
        except FramestreamError as exc:
            print(f"error: frame evaluation failed at point "
                  f"({r[0]:g},{r[1]:g},{r[2]:g}): {exc}", file=sys.stderr)
            return 3
        block = table[i * k:(i + 1) * k]
        block[:, 0:3] = r
        block[:, 3] = mu
        block[:, 4] = omegas
        for j, column in enumerate(terms, start=5):
            block[:, j] = column
    _write_out(_table_chunks(table, args), args)
    return 0


def _cmd_coeffs(args) -> int:
    fid = _fid(args)
    field = builtin_frame(fid)
    if args.point:
        points = args.point
    elif args.rho is not None:
        theta = args.theta if args.theta is not None else math.pi / 2.0
        phi = args.phi if args.phi is not None else 0.0
        if args.frame == "sphere":
            points = [args.rho * np.array([
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi), math.cos(theta)])]
        else:
            points = [np.array([args.rho * math.cos(phi),
                                args.rho * math.sin(phi), args.z])]
    else:
        print("error: provide --point or --rho", file=sys.stderr)
        return 2
    return _emit_states(field, points, [args.mu], [args.omega], args)


def _cmd_sweep(args) -> int:
    fid = _fid(args)
    field = builtin_frame(fid)
    if args.mu_count < 1 or args.omega_count < 1:
        print("error: angular counts must be >= 1", file=sys.stderr)
        return 2
    nodes, _ = np.polynomial.legendre.leggauss(args.mu_count)
    omegas = [2.0 * math.pi * j / args.omega_count
              for j in range(args.omega_count)]
    points = [np.array([x, y, z])
              for x in args.x for y in args.y for z in args.z]
    return _emit_states(field, points,
                        [float(mu) for mu in nodes for _ in omegas],
                        omegas * len(nodes), args)


def _cmd_verify(args) -> int:
    # Bad flag values raise OutOfRange here, outside the try: exit 2.
    cfg = _cfg(args)
    selected_checks(args.check)
    try:
        results = run_checks(frame_filter=args.frame,
                             check_filter=args.check, seed=args.seed,
                             cfg=cfg, holonomy_theta=args.theta)
    except FramestreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    checks = [{"name": c.name, "status": c.status,
               "max_residual": c.max_residual, "tolerance": c.tolerance,
               "samples": c.samples} for c in results]
    doc = {"version": 1, "checks": checks, "meta": _meta(args)}
    _write_doc(doc, args)
    failed = [c for c in results if c.status == "fail"]
    if failed:
        print(f"FAIL: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


def _cmd_conservation(args) -> int:
    fid = _fid(args)
    field = builtin_frame(fid)
    rng = np.random.default_rng(args.seed)
    points = [r for r, _, _ in random_states(fid, 64, rng)]
    angles = [(rng.uniform(-0.9, 0.9), rng.uniform(0.0, 2.0 * math.pi))
              for _ in range(16)]
    try:
        report = conservation_check(field, points, angles, _cfg(args))
    except FramestreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    f_name = g_name = None
    if report.feasible:
        probe = np.array([0.0, 0.0, 2.0])
        f_name = "rho" if abs(report.f_factor(probe) - 2.0) < 1e-12 else "1"
        g_name = "1" if abs(report.g_factor(probe) - 1.0) < 1e-12 else "rho"
    doc = {"version": 1,
           "conservation": {"frame": args.frame,
                            "feasible": report.feasible,
                            "reason": report.reason,
                            "f": f_name, "g": g_name,
                            "samples_checked": report.samples_checked},
           "meta": _meta(args)}
    _write_doc(doc, args)
    return 0


def _cmd_holonomy(args) -> int:
    steps = args.steps
    if args.frame == "constant":
        phi = np.linspace(0.0, 2.0 * math.pi, steps + 1)
        loop = np.column_stack([args.radius * np.cos(phi),
                                args.radius * np.sin(phi),
                                np.zeros_like(phi)])
        v0 = np.array([1.0, 0.0, 0.0])
        expected = 0.0
        field = builtin_frame(Constant())
    else:
        theta = args.theta
        phi = np.linspace(0.0, 2.0 * math.pi, steps + 1)
        loop = args.radius * np.column_stack([
            np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
            np.cos(theta) * np.ones_like(phi)])
        v0 = np.array([math.cos(theta), 0.0, -math.sin(theta)])
        expected = 2.0 * math.pi * (1.0 - math.cos(theta))
        field = builtin_frame(Sphere())
    try:
        angle = parallel_transport_holonomy(field, loop, v0)
    except FramestreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    doc = {"version": 1,
           "holonomy": {"frame": args.frame, "theta": args.theta,
                        "steps": steps, "angle": angle,
                        "expected": expected,
                        "error": abs(angle - expected)},
           "meta": _meta(args)}
    _write_doc(doc, args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--engine", choices=("dual", "fd"), default="dual")
    common.add_argument("--fd-step", type=float, default=1e-5)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None)
    common.add_argument("--no-timestamp", action="store_true")

    frame_opts = argparse.ArgumentParser(add_help=False)
    frame_opts.add_argument("--frame", choices=FRAME_NAMES, required=True)
    frame_opts.add_argument("--a", type=float, default=None)
    frame_opts.add_argument("--b", type=float, default=None)
    frame_opts.add_argument("--c", type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="framestream",
        description="Streaming-term coefficients for frame-adapted "
                    "transport coordinates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[common, frame_opts],
                       help="evaluate coefficients at explicit states")
    p.add_argument("--point", type=_parse_point, action="append")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("sweep", parents=[common, frame_opts],
                       help="evaluate coefficients on a grid")
    p.add_argument("--x", type=_parse_axis, default=np.array([1.0]))
    p.add_argument("--y", type=_parse_axis, default=np.array([0.0]))
    p.add_argument("--z", type=_parse_axis, default=np.array([0.5]))
    p.add_argument("--mu-count", type=int, default=4)
    p.add_argument("--omega-count", type=int, default=4)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", parents=[common],
                       help="run the verification suite")
    p.add_argument("--frame", choices=FRAME_NAMES, default=None)
    p.add_argument("--check", default=None)
    p.add_argument("--theta", type=float, default=math.pi / 3.0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conservation", parents=[common, frame_opts],
                       help="conservation-form feasibility report")
    p.set_defaults(func=_cmd_conservation)

    p = sub.add_parser("holonomy", parents=[common],
                       help="parallel-transport holonomy of a loop")
    p.add_argument("--frame", choices=("sphere", "constant"),
                   default="sphere")
    p.add_argument("--theta", type=float, default=math.pi / 3.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10000)
    p.set_defaults(func=_cmd_holonomy)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OutOfRange as exc:
        # A flag value the parser accepts but a frame, DiffConfig or the
        # check filter rejects.  The commands catch failures of the
        # evaluation itself and exit 3.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
