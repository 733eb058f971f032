"""Command-line front end: region configs in, CSV/JSON artifacts out.

Commands: map, bound, faber, shifts, adi, svbounds.  Region pairs are
described by a small JSON config; every output carries a '#'-prefixed
(or JSON "meta") header with the tool version, config hash, h, boundary
rotations and seed, and identical config + seed gives byte-identical
output.  Exit codes: 0 success, 1 config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .adi import (
    adi_iterate,
    error_certificate,
    faber_shifts,
    fejer_shifts,
    leja_shifts,
    sylvester_problem,
)
from .bounds import GeometryConstants, zolotarev_upper
from .conformal import ExteriorOf, boundary_region, solve_annulus_map
from .displacement import (
    cauchy_matrix,
    singular_value_bounds,
    singular_values,
    vandermonde_h,
    vandermonde_matrix,
)
from .errors import FaberzolError
from .faber import (
    boundary_data,
    build_context,
    degree_context,
    empirical_ratio,
    eval_rn,
)
from .geometry import (
    Disk,
    boundary_samples,
    curve,
    disk,
    polygon,
    random_points,
    rectangle,
)


class ConfigError(Exception):
    """Anything wrong with flags or the config file (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _require(obj, field, where):
    if field not in obj:
        raise ConfigError(f"config field '{where}{field}' is missing")
    return obj[field]


def _as_complex(value, where):
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"config field '{where}' must be a number or [re, im]")


def _as_interval(value, where):
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value)):
        return float(value[0]), float(value[1])
    raise ConfigError(f"config field '{where}' must be [lo, hi]")


def _region_from(obj, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"config field '{where}' must be an object")
    kind = _require(obj, "kind", where + ".")
    try:
        if kind == "rectangle":
            return rectangle(
                _as_interval(_require(obj, "re", where + "."), where + ".re"),
                _as_interval(_require(obj, "im", where + "."), where + ".im"),
            )
        if kind == "disk":
            return disk(
                _as_complex(_require(obj, "center", where + "."), where + ".center"),
                float(_require(obj, "radius", where + ".")),
            )
        if kind == "polygon":
            verts = _require(obj, "vertices", where + ".")
            if not isinstance(verts, list) or len(verts) < 3:
                raise ConfigError(
                    f"config field '{where}.vertices' needs at least 3 entries"
                )
            return polygon([
                _as_complex(v, f"{where}.vertices[{i}]")
                for i, v in enumerate(verts)
            ])
        if kind == "curve":
            coeffs = _require(obj, "coefficients", where + ".")
            if not isinstance(coeffs, dict):
                raise ConfigError(
                    f"config field '{where}.coefficients' must map k to [re, im]"
                )
            return curve({
                int(k): _as_complex(c, f"{where}.coefficients[{k}]")
                for k, c in coeffs.items()
            })
        if kind == "exterior":
            return ExteriorOf(
                _region_from(_require(obj, "of", where + "."), where + ".of")
            )
    except FaberzolError as exc:
        raise ConfigError(f"config field '{where}': {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field '{where}': {exc}") from exc
    raise ConfigError(f"config field '{where}.kind' has unknown value {kind!r}")


def _load_config(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config field '<root>' must be an object")
    return data, hashlib.sha256(raw).hexdigest()


def _meta(args, digest, h, rot_e, rot_f):
    return {
        "version": __version__,
        "config_sha256": digest,
        "h": h,
        "rot_e": rot_e,
        "rot_f": rot_f,
        "seed": args.seed,
    }


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, meta, command, columns, rows):
    lines = [f"# faberzol {meta['version']}", f"# command: {command}"]
    for key in ("config_sha256", "h", "rot_e", "rot_f", "seed"):
        lines.append(f"# {key}: {_fmt(meta[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solved_pair(args, bounded_for=None):
    """(region_e, region_f, map, GeometryConstants, header) of the config.

    bounded_for names the use that needs a bounded F; a config with an
    exterior F is then rejected before the map is solved.
    """
    data, digest = _load_config(args.config)
    region_e = _region_from(_require(data, "e", ""), "e")
    region_f = _region_from(_require(data, "f", ""), "f")
    if isinstance(region_e, ExteriorOf):
        raise ConfigError("config field 'e' must describe a bounded region")
    if bounded_for is not None and isinstance(region_f, ExteriorOf):
        raise ConfigError(
            f"config field 'f' must be bounded for {bounded_for}")
    amap = solve_annulus_map(region_e, region_f, tol=args.tol)
    gc = GeometryConstants.from_regions(region_e, region_f, amap.h)
    meta = _meta(args, digest, amap.h, gc.rot_e, gc.rot_f)
    return region_e, region_f, amap, gc, meta


def _cmd_map(args):
    _, _, amap, _, meta = _solved_pair(args)
    _write_json(args.out, {
        "h": amap.h,
        "residual": amap.residual,
        "variant": amap.variant,
        "meta": meta,
    })
    return 0


def _cmd_bound(args):
    if args.n_max < args.n_min:
        raise ConfigError("--n-max must be at least --n-min")
    _, _, amap, gc, meta = _solved_pair(
        args, "bound --empirical" if args.empirical else None)
    columns = ["n", "lower", "upper", "valid", "clamped"]
    if args.empirical:
        columns.append("empirical")
        data = boundary_data(amap, n_quad=args.nq)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        bv = zolotarev_upper(gc, n)
        row = [n, bv.lower, bv.upper, bv.upper_valid, bv.clamped]
        if args.empirical:
            row.append(empirical_ratio(degree_context(data, n)))
        rows.append(row)
    _write_csv(args.out, meta, "bound", columns, rows)
    return 0


def _cmd_faber(args):
    region_e, _, amap, _, meta = _solved_pair(args, "faber")
    ctx = build_context(amap, args.n, n_quad=args.nq)
    t = np.arange(2048) / 2048.0
    bnd = region_e.boundary_point(t)
    xs = np.linspace(bnd.real.min(), bnd.real.max(), args.grid)
    ys = np.linspace(bnd.imag.min(), bnd.imag.max(), args.grid)
    zz = (xs[None, :] + 1j * ys[:, None]).ravel()
    vals = np.abs(eval_rn(ctx, zz))
    rows = [[float(z.real), float(z.imag), float(v)]
            for z, v in zip(zz, vals)]
    _write_csv(args.out, meta, "faber", ["re", "im", "abs_rn"], rows)
    return 0


def _quads(nq, region_e, region_f):
    """The boundary rules of Leja shifts and ADI certificates."""
    return (boundary_samples(region_e, max(nq, 512)),
            boundary_samples(boundary_region(region_f), max(nq, 512)))


def _shift_maker(kind, nq, amap, quads):
    """k -> the k-shift set of this kind; the boundary data that does not
    depend on k is built once.  quads are the rules of _quads, used by
    Leja shifts only."""
    if kind == "faber":
        data = boundary_data(amap, n_quad=nq)
        return lambda k: faber_shifts(degree_context(data, k), k)
    if kind == "fejer":
        return lambda k: fejer_shifts(amap, k)
    return lambda k: leja_shifts(*quads, k)


def _cmd_shifts(args):
    region_e, region_f, amap, _, meta = _solved_pair(
        args, "shifts --kind faber" if args.kind == "faber" else None)
    quads = _quads(args.nq, region_e, region_f) if args.kind == "leja" else None
    shifts = _shift_maker(args.kind, args.nq, amap, quads)(args.k)
    _write_json(args.out, {
        "kind": shifts.kind,
        "k": shifts.k,
        "kappa": [[z.real, z.imag] for z in shifts.kappa],
        "tau": [[z.real, z.imag] for z in shifts.tau],
        "meta": meta,
    })
    return 0


def _cmd_adi(args):
    region_e, region_f, amap, gc, meta = _solved_pair(args, "adi")
    problem = sylvester_problem(region_e, region_f, args.m, args.p,
                                seed=args.seed)
    quads = _quads(args.nq, region_e, region_f)
    shift_set = _shift_maker(args.kind, args.nq, amap, quads)
    rows = [[0, 1.0, 1.0, 1.0]]
    for k in range(1, args.k + 1):
        shifts = shift_set(k)
        rel = problem.relative_error(adi_iterate(problem, shifts)[-1])
        cert = error_certificate(shifts, *quads)
        rows.append([k, rel, cert, zolotarev_upper(gc, k).upper])
    _write_csv(args.out, meta, "adi",
               ["k", "rel_error", "certificate", "bound"], rows)
    return 0


def _cmd_svbounds(args):
    rng = np.random.default_rng(args.seed)
    p = args.m if args.p is None else args.p
    n_bounds = min(args.jmax + 1, min(args.m, p))
    if args.kind == "cauchy":
        region_e, region_f, _, gc, meta = _solved_pair(
            args, "svbounds --kind cauchy")
        x = random_points(region_e, args.m, rng)
        y = random_points(region_f, p, rng)
        mat = cauchy_matrix(x, y)
        zj = [zolotarev_upper(gc, j).upper for j in range(n_bounds)]
    else:
        data, digest = _load_config(args.config)
        region_e = _region_from(_require(data, "e", ""), "e")
        if not isinstance(region_e, Disk):
            raise ConfigError("config field 'e' must be a disk for vandermonde")
        try:
            h = vandermonde_h(region_e.center, region_e.radius)
        except FaberzolError as exc:
            raise ConfigError(f"config field 'e': {exc}") from exc
        meta = _meta(args, digest, h, 1.0, 1.0)
        nodes = random_points(region_e, args.m, rng)
        mat = vandermonde_matrix(nodes, p)
        zj = [h ** (-j) for j in range(n_bounds)]
    sv = singular_values(mat)
    bounds = singular_value_bounds(zj, 1.0)
    rows = [[j, float(sv[j] / sv[0]), float(bounds[j])]
            for j in range(n_bounds)]
    _write_csv(args.out, meta, "svbounds", ["j", "sigma_ratio", "bound"], rows)
    return 0


def _build_parser():
    parser = _Parser(prog="faberzol", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def at_least(low):
        """argparse type: an integer no smaller than low."""
        def parse(text):
            value = int(text)
            if value < low:
                raise argparse.ArgumentTypeError(f"must be at least {low}")
            return value
        return parse

    def positive(text):
        """argparse type: a finite float above zero."""
        value = float(text)
        if not (math.isfinite(value) and value > 0.0):
            raise argparse.ArgumentTypeError("must be finite and positive")
        return value

    def common(sp):
        sp.add_argument("--config", required=True, help="pair config JSON")
        sp.add_argument("--out", required=True, help="output file")
        sp.add_argument("--nq", type=at_least(64), default=512,
                        help="boundary quadrature size")
        sp.add_argument("--tol", type=positive, default=1e-8,
                        help="map solver residual target")
        sp.add_argument("--seed", type=at_least(0), default=0)

    sp = sub.add_parser("map", help="solve the annulus map, write JSON")
    common(sp)
    sp.set_defaults(func=_cmd_map)

    sp = sub.add_parser("bound", help="Zolotarev bound table")
    common(sp)
    sp.add_argument("--n-min", type=at_least(0), default=0)
    sp.add_argument("--n-max", type=int, default=30)
    sp.add_argument("--empirical", action="store_true",
                    help="add the measured sup-ratio of r_n")
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("faber", help="|r_n| on a grid over E")
    common(sp)
    sp.add_argument("--n", type=at_least(0), default=8)
    sp.add_argument("--grid", type=at_least(1), default=101)
    sp.set_defaults(func=_cmd_faber)

    sp = sub.add_parser("shifts", help="ADI shift parameters, JSON")
    common(sp)
    sp.add_argument("--kind", choices=("faber", "fejer", "leja"),
                    default="faber")
    sp.add_argument("--k", type=at_least(1), default=8)
    sp.set_defaults(func=_cmd_shifts)

    sp = sub.add_parser("adi", help="ADI error/certificate/bound table")
    common(sp)
    sp.add_argument("--kind", choices=("faber", "fejer", "leja"),
                    default="faber")
    sp.add_argument("--k", type=at_least(0), default=8)
    sp.add_argument("--m", type=at_least(1), default=100)
    sp.add_argument("--p", type=at_least(1), default=None)
    sp.set_defaults(func=_cmd_adi)

    sp = sub.add_parser("svbounds", help="singular value bound table")
    common(sp)
    sp.add_argument("--kind", choices=("cauchy", "vandermonde"),
                    required=True)
    sp.add_argument("--m", type=at_least(1), default=100)
    sp.add_argument("--p", type=at_least(1), default=None)
    sp.add_argument("--jmax", type=at_least(0), default=17)
    sp.set_defaults(func=_cmd_svbounds)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FaberzolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
