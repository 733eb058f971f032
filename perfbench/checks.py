"""Output checks for each CLI subcommand, plus the accuracy figures they see.

`check_output` returns the problems found (empty when the output is right)
and the accuracy figures of the output.  The tolerances are those of the
repository's acceptance tests, plus the rounding floor of computed singular
values in `check_svbounds`.
"""

from __future__ import annotations

import json
import math

SANDWICH_RTOL = 1e-6      # witness against h^-n and the upper bound
CLOSED_FORM_RTOL = 1e-6   # solver h against the two-disk closed form
DEFAULT_TOL = 1e-8        # the CLI's default map residual target
EPS = 2.0 ** -52


def parse_csv(text):
    """Rows of a faberzol CSV as dicts; '#' lines are the header block."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells, header {len(columns)}")
        rows.append({c: _value(v) for c, v in zip(columns, cells)})
    return rows


def _value(cell):
    if cell in ("true", "false"):
        return cell == "true"
    return float(cell)


def two_disk_h(e, f):
    """Annulus modulus of two disjoint disks, from their inversive distance."""
    c1 = complex(*e["center"])
    c2 = complex(*f["center"])
    r1, r2 = e["radius"], f["radius"]
    delta = (abs(c1 - c2) ** 2 - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)
    return delta + math.sqrt(delta * delta - 1.0)


class _Problems:
    """Collects failed conditions, one entry per kind with a count."""

    def __init__(self):
        self.first = {}
        self.count = {}

    def add(self, kind, where):
        self.first.setdefault(kind, where)
        self.count[kind] = self.count.get(kind, 0) + 1

    def report(self):
        return [f"{kind} ({self.count[kind]} rows, first at {where})"
                for kind, where in self.first.items()]


def _finite(row):
    return all(isinstance(v, bool) or math.isfinite(v) for v in row.values())


def _args_value(args, flag, default):
    args = list(args)
    return float(args[args.index(flag) + 1]) if flag in args else default


def check_map(text, pair, args):
    data = json.loads(text)
    h, residual = data["h"], data["residual"]
    tol = _args_value(args, "--tol", DEFAULT_TOL)
    problems = []
    if not (math.isfinite(h) and h > 1.0):
        problems.append(f"h = {h!r} is not finite and > 1")
    if not residual <= tol:
        problems.append(f"residual {residual!r} > tol {tol!r}")
    if pair["e"]["kind"] == "disk" and pair["f"]["kind"] == "disk":
        exact = two_disk_h(pair["e"], pair["f"])
        if not abs(h - exact) <= CLOSED_FORM_RTOL * exact:
            problems.append(f"h = {h!r} differs from the closed form {exact!r}")
    return problems, {"h": h, "residual": residual}


def check_bound(text, pair, args):
    problems = _Problems()
    over_lower = over_upper = 0.0
    for row in parse_csv(text):
        where = f"n={int(row['n'])}"
        lower, upper = row["lower"], row["upper"]
        if not _finite({k: v for k, v in row.items() if k != "empirical"}):
            problems.add("bound value is not finite", where)
        if not lower <= upper:
            problems.add("lower > upper", where)
        if "empirical" not in row:
            continue
        witness = row["empirical"]
        if not math.isfinite(witness):
            problems.add("witness is not finite", where)
            continue
        over_lower = max(over_lower, witness / lower)
        if witness < lower * (1.0 - SANDWICH_RTOL):
            problems.add("witness below lower", where)
        if row["valid"] is True:
            over_upper = max(over_upper, witness / upper)
            if witness > upper * (1.0 + SANDWICH_RTOL):
                problems.add("witness above upper", where)
    accuracy = {}
    if "--empirical" in args:
        accuracy = {"witness_over_lower_max": over_lower,
                    "witness_over_upper_max": over_upper}
    return problems.report(), accuracy


def check_faber(text, pair, args):
    rows = parse_csv(text)
    grid = int(_args_value(args, "--grid", 101))
    problems = _Problems()
    if len(rows) != grid * grid:
        problems.add(f"{len(rows)} grid rows, expected {grid * grid}", "end")
    for i, row in enumerate(rows):
        if not math.isfinite(row["abs_rn"]):
            problems.add("abs_rn is not finite", f"row {i}")
    return problems.report(), {}


def check_shifts(text, pair, args):
    data = json.loads(text)
    k = int(_args_value(args, "--k", 8))
    problems = []
    for name in ("kappa", "tau"):
        values = data[name]
        if len(values) != k:
            problems.append(f"{len(values)} {name} values, expected {k}")
        if not all(math.isfinite(v) for pair_ in values for v in pair_):
            problems.append(f"{name} value is not finite")
    return problems, {}


def check_adi(text, pair, args):
    problems = _Problems()
    worst = 0.0
    for row in parse_csv(text):
        where = f"k={int(row['k'])}"
        if not _finite(row):
            problems.add("adi value is not finite", where)
            continue
        if row["k"] > 0:
            worst = max(worst, row["rel_error"] / row["certificate"])
        if not row["rel_error"] <= row["certificate"]:
            problems.add("rel_error above certificate", where)
    return problems.report(), {"rel_error_over_certificate_max": worst}


def check_svbounds(text, pair, args):
    # A computed sigma_j / sigma_1 is accurate only to about max(m, p) eps
    # (the rank tolerance of numpy.linalg.matrix_rank), so a bound below
    # that floor is checked against the floor.
    m = _args_value(args, "--m", 100)
    floor = max(m, _args_value(args, "--p", m)) * EPS
    problems = _Problems()
    worst = 0.0
    for row in parse_csv(text):
        where = f"j={int(row['j'])}"
        if not _finite(row):
            problems.add("svbounds value is not finite", where)
            continue
        if row["bound"] > floor:
            worst = max(worst, row["sigma_ratio"] / row["bound"])
        if not row["sigma_ratio"] <= row["bound"] + floor:
            problems.add("sigma_ratio above bound", where)
    return problems.report(), {"sigma_ratio_over_bound_max": worst}


CHECKS = {
    "map": check_map,
    "bound": check_bound,
    "faber": check_faber,
    "shifts": check_shifts,
    "adi": check_adi,
    "svbounds": check_svbounds,
}


def check_output(command, text, pair, args):
    """(problems, accuracy) for one invocation's output file."""
    try:
        return CHECKS[command](text, pair, args)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output does not parse: {exc!r}"], {}
