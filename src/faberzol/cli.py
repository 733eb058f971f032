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
    ShiftSet,
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
from .errors import FaberzolError, UncertifiedError
from .faber import (
    boundary_data,
    build_context,
    degree_contexts,
    empirical_ratios,
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


def _as_real(value, where):
    # JSON true and false load as bool, a subclass of int
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"config field '{where}' must be a number")


def _as_complex(value, where):
    if not isinstance(value, (list, tuple)):
        return complex(_as_real(value, where))
    if len(value) == 2:
        return complex(_as_real(value[0], where), _as_real(value[1], where))
    raise ConfigError(f"config field '{where}' must be a number or [re, im]")


def _as_interval(value, where):
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return _as_real(value[0], where), _as_real(value[1], where)
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
                _as_real(_require(obj, "radius", where + "."),
                         where + ".radius"),
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
            powers = {int(k): _as_complex(c, f"{where}.coefficients[{k}]")
                      for k, c in coeffs.items()}
            if len(powers) < len(coeffs):
                raise ConfigError(
                    f"config field '{where}.coefficients' repeats a power")
            return curve(powers)
        if kind == "exterior":
            return ExteriorOf(
                _region_from(_require(obj, "of", where + "."), where + ".of")
            )
    except FaberzolError as exc:
        raise ConfigError(f"config field '{where}': {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config field '{where}': {exc}") from exc
    raise ConfigError(f"config field '{where}.kind' has unknown value {kind!r}")


def _repeat_in(value, path):
    """(the path of a key given twice in value, found at path,) or None."""
    if isinstance(value, tuple):
        return (f"{path}.{value[0]}",)
    for i, item in enumerate(value if isinstance(value, list) else ()):
        found = _repeat_in(item, f"{path}[{i}]")
        if found:
            return found
    return None


def _unique_keys(pairs):
    # json.loads would keep the last of repeated keys.  An object repeating
    # one becomes (its path,), a tuple like no JSON value, up to the root
    data = {}
    for key, value in pairs:
        found = _repeat_in(value, key)
        if found or key in data:
            return found or (key,)
        data[key] = value
    return data


def _load_config(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(raw, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(data, tuple):
        field = data[0].rpartition(".")[0]
        if field.rpartition(".")[2] == "coefficients":  # a curve's powers
            raise ConfigError(f"config field '{field}' repeats a power")
        raise ConfigError(f"config field '{data[0]}' is given twice")
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
    """A '#' header line per meta field, in order, then the table."""
    lines = [f"# faberzol {meta['version']}", f"# command: {command}"]
    for key, value in meta.items():
        if key != "version":
            lines.append(f"# {key}: {_fmt(value)}")
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
    degrees = range(args.n_min, args.n_max + 1)
    rows = []
    for n in degrees:
        bv = zolotarev_upper(gc, n)
        rows.append([n, bv.lower, bv.upper, bv.upper_valid, bv.clamped])
    if args.empirical:
        columns.append("empirical")
        data = boundary_data(amap, n_quad=args.nq)
        for row, witness in zip(rows, _witnesses(data, degrees)):
            row.append(witness)
    _write_csv(args.out, meta, "bound", columns, rows)
    return 0


def _witnesses(data, degrees):
    """empirical_ratios of the degree contexts on data, in one lockstep
    search; the lowest degree whose context or witness fails raises."""
    contexts = []
    try:
        for ctx in degree_contexts(data, degrees):
            contexts.append(ctx)
    except UncertifiedError:
        empirical_ratios(contexts)  # a lower degree's failure comes first
        raise
    return empirical_ratios(contexts)


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


def _shift_sets(kind, nq, amap, quads, ks):
    """The k-shift set of this kind for each k of the range ks.  Faber
    shifts share one boundary data, whose kernels serve every k at once;
    the greedy Leja k-set is the prefix of the largest one.  quads are the
    rules of _quads, used by Leja shifts only."""
    if kind == "faber":
        data = boundary_data(amap, n_quad=nq)
        return faber_shifts(degree_contexts(data, ks))
    if kind == "fejer":
        return [fejer_shifts(amap, k) for k in ks]
    if not ks:
        return []
    full = leja_shifts(*quads, ks[-1])
    return [ShiftSet("leja", full.kappa[:k], full.tau[:k]) for k in ks]


def _cmd_shifts(args):
    region_e, region_f, amap, _, meta = _solved_pair(
        args, "shifts --kind faber" if args.kind == "faber" else None)
    quads = _quads(args.nq, region_e, region_f) if args.kind == "leja" else None
    shifts, = _shift_sets(args.kind, args.nq, amap, quads,
                          range(args.k, args.k + 1))
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
    shift_sets = _shift_sets(args.kind, args.nq, amap, quads,
                             range(1, args.k + 1))
    # each Leja k-set is a prefix of the last: one run has every iterate
    leja_run = (adi_iterate(problem, shift_sets[-1])
                if args.kind == "leja" and shift_sets else None)
    rows = [[0, 1.0, 1.0, 1.0]]
    for k, shifts in enumerate(shift_sets, start=1):
        x = (adi_iterate(problem, shifts)[-1] if leja_run is None
             else leja_run[k - 1])
        rel = problem.relative_error(x)
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
    sv = singular_values(mat, n_bounds)
    bounds = singular_value_bounds(zj, 1.0)
    rows = [[j, float(sv[j] / sv[0]), float(bounds[j])]
            for j in range(n_bounds)]
    # a computed sigma_ratio is rounding noise below this floor
    meta["floor"] = max(args.m, p) * float(np.finfo(float).eps)
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
                        help="boundary quadrature size; bound --empirical, "
                             "shifts --kind faber and adi --kind faber apply "
                             "its Cauchy kernels in parts of at most 2 MiB, "
                             "each part for all their degrees")
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
