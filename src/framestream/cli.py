"""Command-line front end: coefficient evaluation, grid sweeps, the
verification suite, conservation feasibility, and holonomy loops."""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from .curvature import parallel_transport_holonomy
from .derivatives import DiffConfig, frame_jet
from .errors import FramestreamError, OutOfRange
from .frames import (BUILTIN_FRAMES, Constant, Sphere, _place_cylinder,
                     _shell_placement, builtin_frame)
from .streaming import angle_arrays, check_mu, checked_terms
from .verification import (_circle_loop, _latitude_loop, run_checks,
                           sampled_conservation, selected_checks)

FRAME_NAMES = tuple(BUILTIN_FRAMES)
_MIN_HOLONOMY_STEPS = 7
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
    if isinstance(obj, float) and not math.isfinite(obj):
        return json.dumps(obj)  # NaN, Infinity: what json.loads reads
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
    """The frame's default id, with --a/--b/--c on fields so named."""
    fid = BUILTIN_FRAMES[args.frame].default
    names = {f.name for f in dataclasses.fields(fid)}
    return dataclasses.replace(fid, **{
        k: getattr(args, k) for k in ("a", "b", "c")
        if k in names and getattr(args, k) is not None})


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


def _table_chunks(points, mus, omegas, terms, args):
    """The report of the (N, 3) points by the K directions (mus, omegas),
    point-major, as JSON or CSV text a chunk of rows at a time; terms
    are the (N, K) computed columns in the order of TABLE_COLUMNS.

    Every value must be finite: then the text is byte for byte as
    _emit_json renders one dict per row.  "%.17g" writes nan and inf
    where _emit_json writes NaN and Infinity.  _emit_states enforces
    it: the angle checks reject a non-finite mu or omega, the frame test
    a non-finite point, and the breakdown check of checked_terms a
    non-finite computed value.

    The record format is cut at its column separator, so the text of
    each point and of each direction is rendered once.  In a chunk,
    each distinct computed value is rendered once, keyed by its bits so
    that 0.0 and -0.0 keep their own text, and the chunk is one format
    string filled by one % with those texts."""
    if args.format == "csv":
        yield ",".join(CSV_COLUMNS) + "\n"
        record, sep, row_sep = _CSV_ROW + "\n", ",", ""
    else:
        yield '{\n  "version": 1,\n  "records": [\n'
        record, sep, row_sep = _JSON_RECORD, ",\n", ",\n"
    pieces = record.split(sep)  # x, y, z; mu, omega; the computed columns
    head, mid, tail = (sep.join(pieces[:3]) + sep,
                       sep.join(pieces[3:5]) + sep, sep.join(pieces[5:]))
    heads = [head % tuple(p) for p in points.tolist()]
    tail = tail.replace("%.17g", "%s")
    mids = [mid % d + tail for d in zip(mus, omegas)]
    k = len(mids)
    values = np.stack([term.ravel() for term in terms[:len(pieces) - 5]],
                      axis=1)
    for lo in range(0, len(values), _CHUNK_ROWS):
        chunk = values[lo:lo + _CHUNK_ROWS]
        keys, inverse = np.unique(chunk.view(np.uint64),
                                  return_inverse=True)
        # An object array, so that one gather puts each cell's text in
        # place.
        texts = np.array(["%.17g" % v for v in keys.view(float).tolist()],
                         dtype=object)
        fmt = row_sep.join([heads[i // k] + mids[i % k]
                            for i in range(lo, lo + len(chunk))])
        yield (row_sep if lo else "") + fmt % tuple(
            texts[inverse.ravel()].tolist())
    if args.format == "json":
        yield '\n  ],\n  "meta": ' + _emit_json(_meta(args), 1) + "\n}\n"


def _emit_states(field, points, mus, omegas, args) -> int:
    """Evaluate every (point, mu, omega) state, point-major, then write
    the report; returns the exit code.  The points share one stacked
    frame jet, and the directions broadcast against each point's
    scalars in one numpy pass.  When that pass fails, the points are
    replayed one by one, so that the error is that of the first failing
    point.  Nothing is written when a state fails."""
    cfg = _cfg(args)
    angles = angle_arrays(mus, omegas)
    try:
        check_mu(angles[0])
    except FramestreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    grid = np.array(points)
    try:
        terms = checked_terms(frame_jet(field, grid, cfg),
                              *(a[None] for a in angles))
    except FramestreamError as grid_exc:
        for r in points:
            try:
                checked_terms(frame_jet(field, r, cfg), *angles)
            except FramestreamError as exc:
                print(f"error: frame evaluation failed at point "
                      f"({r[0]:g},{r[1]:g},{r[2]:g}): {exc}",
                      file=sys.stderr)
                return 3
        print(f"error: frame evaluation failed: {grid_exc}", file=sys.stderr)
        return 3
    _write_out(_table_chunks(grid, mus, omegas, terms, args), args)
    return 0


def _cmd_coeffs(args) -> int:
    field = builtin_frame(_fid(args))
    if args.point:
        points = args.point
    elif args.rho is not None:
        theta = args.theta if args.theta is not None else math.pi / 2.0
        phi = args.phi if args.phi is not None else 0.0
        if args.frame == "sphere":
            points = [_shell_placement()(args.rho, theta, phi)]
        else:
            points = [_place_cylinder(args.rho, phi, args.z)]
    else:
        print("error: provide --point or --rho", file=sys.stderr)
        return 2
    return _emit_states(field, points, [args.mu], [args.omega], args)


def _cmd_sweep(args) -> int:
    field = builtin_frame(_fid(args))
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
    # Bad flag values raise OutOfRange here, outside the try: exit 2.
    cfg = _cfg(args)
    try:
        report = sampled_conservation(fid, np.random.default_rng(args.seed),
                                      cfg)
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
    if steps < _MIN_HOLONOMY_STEPS:
        print(f"error: --steps must be at least {_MIN_HOLONOMY_STEPS}",
              file=sys.stderr)
        return 2
    if args.frame == "constant":
        loop, v0, expected = _circle_loop(args.radius, steps)
        field = builtin_frame(Constant())
    else:
        loop, v0, expected = _latitude_loop(args.theta, steps)
        loop = args.radius * loop
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
