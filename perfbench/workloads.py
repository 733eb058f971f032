"""Workload definitions: region-pair configs and the CLI batch of each workload.

A workload is a fixed list of `faberzol` CLI invocations.  The seed draws
the random disk pairs of `zoo` and is passed as `--seed` to every `adi` and
`svbounds` invocation; nothing else depends on it.

Known defects of the program stay in the batches on purpose.  Each such
invocation carries the error text it is expected to fail with, so that it
counts as failed with that text, and an unexpected failure stands out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COMMANDS = ("map", "bound", "faber", "shifts", "adi", "svbounds")
SEEDED_COMMANDS = ("adi", "svbounds")

# Error texts of the defects the batches keep (see the workload notes).
MAP_NOT_RESOLVED = "map not resolved"
NAN_WITNESS = "witness is not finite"


def rect(re, im):
    return {"kind": "rectangle", "re": list(re), "im": list(im)}


def mirrored(re, im):
    """A rectangle and its negation, the pair shape of the sandwich test."""
    return {"e": rect(re, im), "f": rect((-re[1], -re[0]), (-im[1], -im[0]))}


def disk(center, radius):
    c = complex(center)
    return {"kind": "disk", "center": [c.real, c.imag], "radius": float(radius)}


def polygon(vertices):
    return {"kind": "polygon",
            "vertices": [[complex(v).real, complex(v).imag] for v in vertices]}


def _hexagon(center, radius):
    return [center + radius * np.exp(1j * math.pi * k / 3.0) for k in range(6)]


_HEX = _hexagon(1.5, 0.6)
_L_SHAPE = [0.0, 2.0, 2.0 + 1.0j, 1.0 + 1.0j, 1.0 + 2.0j, 2.0j]
_OUTER = {"kind": "exterior", "of": disk(0.0, 2.0)}

FIXED_PAIRS = {
    # README rectangles: 1 BLAS thread stops the ladder at degree 32
    "readme": mirrored((0.3, 1.3), (-1.3, 1.3)),
    # mirrored rectangles of the sandwich test at alpha = 0.45 and 3.0
    "mirror045": mirrored((-0.85, -0.05), (-0.6, 0.6)),
    "mirror300": mirrored((-3.4, -2.6), (-0.6, 0.6)),
    "rect_disk": {"e": rect((-2.0, -1.0), (-0.5, 0.5)), "f": disk(2.0, 0.6)},
    "disk_curve": {"e": disk(0.0, 1.0),
                   "f": {"kind": "curve",
                         "coefficients": {"0": [4.0, 0.0], "1": [0.8, 0.0]}}},
    "hexagons": {"e": polygon(_HEX), "f": polygon([-v for v in _HEX])},
    "triangle_disk": {"e": polygon([1.0, 2.0, 1.5 + 1.0j]), "f": disk(-1.5, 0.5)},
    "lshape_disk": {"e": polygon(_L_SHAPE), "f": disk(5.0, 0.5)},
    "disk_in_exterior": {"e": disk(0.0, 1.0), "f": _OUTER},
    "rect_in_exterior": {"e": rect((-0.8, 0.8), (-0.6, 0.6)), "f": _OUTER},
    # h ~ 142, so h^-n is subnormal from n ~ 143 on
    "far_disks": {"e": disk(3.0, 0.5), "f": disk(-3.0, 0.5)},
    # svbounds --kind vandermonde reads only 'e', a disk inside |z| < 1
    "vandermonde_disk": {"e": disk(0.2, 0.5), "f": disk(3.0, 0.5)},
}


def random_disk_pair(rng):
    """A disjoint disk pair drawn like the acceptance test's random pairs."""
    gap = rng.uniform(1.5, 4.0)
    r1, r2 = rng.uniform(0.2, 0.45, 2) * gap
    c1 = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0)
    c2 = c1 + (gap + r1 + r2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return {"e": disk(c1, r1), "f": disk(c2, r2)}


@dataclass(frozen=True)
class Invocation:
    command: str
    pair: str
    args: tuple = ()
    known_defect: str | None = None  # expected error text, if any

    @property
    def label(self) -> str:
        return " ".join((self.command, self.pair) + self.args)

    def argv(self, config_path, out_path, seed):
        argv = [self.command, "--config", config_path, "--out", out_path,
                *self.args]
        if self.command in SEEDED_COMMANDS:
            argv += ["--seed", str(seed)]
        return argv


def _inv(command, pair, *args, known_defect=None):
    return Invocation(command, pair, tuple(str(a) for a in args), known_defect)


RANDOM_PAIRS = ("random0", "random1", "random2")
_CHEAP = RANDOM_PAIRS + ("rect_disk", "disk_curve")

# zoo: many geometries, cold map solves, light downstream work.
ZOO = (
    [_inv("map", p) for p in RANDOM_PAIRS + (
        "mirror300", "rect_disk", "disk_curve", "hexagons",
        "disk_in_exterior", "rect_in_exterior")]
    + [_inv("map", "triangle_disk", known_defect=MAP_NOT_RESOLVED),
       _inv("map", "lshape_disk", known_defect=MAP_NOT_RESOLVED)]
    + [_inv("bound", p, "--n-max", 30)
       for p in _CHEAP + ("disk_in_exterior", "rect_in_exterior")]
    + [_inv("svbounds", p, "--kind", "cauchy", "--m", 400) for p in _CHEAP]
    + [_inv("shifts", p, "--kind", "leja", "--k", 4)
       for p in _CHEAP + ("rect_in_exterior",)]
    + [_inv("faber", p, "--n", 4, "--grid", 61)
       for p in ("rect_disk", "random0", "random1")]
    + [_inv("adi", p, "--kind", "leja", "--k", 6, "--m", 150)
       for p in ("rect_disk", "disk_curve")]
    + [_inv("svbounds", "vandermonde_disk", "--kind", "vandermonde",
            "--m", 300)]
)

# sweep: one map, many degrees; every degree rebuilds its Faber data.
SWEEP = (
    _inv("bound", "mirror045", "--n-min", 1, "--n-max", 5, "--empirical"),
    _inv("bound", "mirror300", "--n-min", 1, "--n-max", 3, "--empirical"),
    _inv("bound", "far_disks", "--n-min", 141, "--n-max", 146, "--empirical",
         known_defect=NAN_WITNESS),
    _inv("faber", "rect_disk", "--n", 20, "--grid", 101),
    _inv("map", "rect_disk"),
    _inv("map", "mirror045"),
    _inv("shifts", "rect_disk", "--kind", "faber", "--k", 6),
    _inv("shifts", "disk_curve", "--kind", "faber", "--k", 8),
    _inv("adi", "rect_disk", "--kind", "faber", "--k", 3, "--m", 200),
    _inv("svbounds", "rect_disk", "--kind", "cauchy", "--m", 400),
    _inv("svbounds", "disk_curve", "--kind", "cauchy", "--m", 400),
)

# adi: shift selection and the ADI iteration on larger matrices.
ADI = (
    _inv("adi", "readme", "--kind", "faber", "--k", 2, "--m", 200),
    _inv("adi", "rect_disk", "--kind", "fejer", "--k", 4, "--m", 300),
    _inv("adi", "rect_disk", "--kind", "leja", "--k", 4, "--m", 300),
    _inv("shifts", "rect_disk", "--kind", "fejer", "--k", 6),
    _inv("shifts", "disk_curve", "--kind", "fejer", "--k", 6),
    _inv("shifts", "rect_disk", "--kind", "faber", "--k", 8),
    _inv("svbounds", "rect_disk", "--kind", "cauchy", "--m", 400),
    _inv("svbounds", "rect_disk", "--kind", "cauchy", "--m", 300),
    _inv("svbounds", "disk_curve", "--kind", "cauchy", "--m", 400),
    _inv("map", "rect_disk"),
    _inv("map", "mirror045"),
    _inv("bound", "rect_disk", "--n-max", 30),
    _inv("bound", "rect_disk", "--n-min", 1, "--n-max", 3, "--empirical"),
    _inv("bound", "rect_in_exterior", "--n-max", 30),
    _inv("faber", "rect_disk", "--n", 8, "--grid", 41),
    _inv("faber", "disk_curve", "--n", 8, "--grid", 41),
)

WORKLOADS = {"zoo": ZOO, "sweep": SWEEP, "adi": ADI}


def build(workload: str, seed: int):
    """The workload's invocations and the configs of the pairs they use."""
    batch = tuple(WORKLOADS[workload])
    rng = np.random.default_rng(seed)
    pairs = dict(FIXED_PAIRS)
    for name in RANDOM_PAIRS:
        pairs[name] = random_disk_pair(rng)
    used = {inv.pair for inv in batch}
    return batch, {name: pairs[name] for name in sorted(used)}
