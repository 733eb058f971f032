"""End-to-end runs of the command-line interface in a temp directory."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import two_disk_h
from faberzol import cli, conformal, faber
from faberzol.adi import leja_shifts, sylvester_problem
from faberzol.cli import main
from faberzol.geometry import disk

DISK_PAIR = {
    "e": {"kind": "disk", "center": 1.0, "radius": 0.7},
    "f": {"kind": "disk", "center": -1.0, "radius": 0.7},
}
VAND_DISK = {"e": {"kind": "disk", "center": [0.2, 0.1], "radius": 0.4}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_table(path):
    header, rows = {}, []
    columns = None
    for line in path.read_text().splitlines():
        if line.startswith("# ") and ":" in line:
            key, _, value = line[2:].partition(":")
            header[key.strip()] = value.strip()
        elif line.startswith("#"):
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


def test_map_command_writes_the_annulus_parameter(tmp_path):
    cfg = write_config(tmp_path, DISK_PAIR)
    out = tmp_path / "map.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["map", "--config", cfg, "--out", str(out)]) == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    data = json.loads(out.read_text())
    assert data["h"] == pytest.approx(two_disk_h(1.0, 0.7, -1.0, 0.7),
                                      rel=1e-8)
    meta = data["meta"]
    assert meta["version"] and len(meta["config_sha256"]) == 64
    assert meta["rot_e"] == meta["rot_f"] == 1.0


def test_bound_command_rows_are_sandwiched(tmp_path):
    cfg = write_config(tmp_path, DISK_PAIR)
    out = tmp_path / "bounds.csv"
    rc = main(["bound", "--config", cfg, "--out", str(out),
               "--n-min", "0", "--n-max", "6", "--empirical", "--nq", "256"])
    assert rc == 0
    header, columns, rows = read_table(out)
    assert columns == ["n", "lower", "upper", "valid", "clamped", "empirical"]
    assert header["command"] == "bound"
    assert len(rows) == 7
    for row in rows:
        lower, upper, emp = float(row[1]), float(row[2]), float(row[5])
        assert lower - 1e-12 <= emp <= upper + 1e-12


def test_bound_rows_stay_certified_below_the_normal_range(tmp_path):
    # h ~ 142, so h^-n is subnormal from n = 143 and below 5e-324 from
    # n = 151; upper must never be certified as 0.0
    cfg = write_config(tmp_path, {
        "e": {"kind": "disk", "center": 3.0, "radius": 0.5},
        "f": {"kind": "disk", "center": -3.0, "radius": 0.5},
    })
    out = tmp_path / "bounds.csv"
    rc = main(["bound", "--config", cfg, "--out", str(out),
               "--n-max", "200"])
    assert rc == 0
    _, _, rows = read_table(out)
    assert len(rows) == 201
    for row in rows:
        lower, upper = float(row[1]), float(row[2])
        assert 0.0 < upper and lower <= upper, row
    assert float(rows[200][1]) == 0.0 and float(rows[200][2]) >= 5e-324


def test_faber_command_grids_the_modulus(tmp_path):
    cfg = write_config(tmp_path, DISK_PAIR)
    out = tmp_path / "grid.csv"
    rc = main(["faber", "--config", cfg, "--out", str(out),
               "--n", "3", "--grid", "11", "--nq", "256"])
    assert rc == 0
    _, columns, rows = read_table(out)
    assert columns == ["re", "im", "abs_rn"]
    assert len(rows) == 121
    assert all(float(r[2]) >= 0.0 for r in rows)


@pytest.mark.parametrize("kind", ["faber", "fejer", "leja"])
def test_shifts_command_kinds(tmp_path, kind):
    cfg = write_config(tmp_path, DISK_PAIR)
    out = tmp_path / "shifts.json"
    rc = main(["shifts", "--config", cfg, "--out", str(out),
               "--kind", kind, "--k", "3", "--nq", "256"])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["kind"] == kind and data["k"] == 3
    assert len(data["kappa"]) == len(data["tau"]) == 3


def test_adi_command_errors_stay_under_certificates(tmp_path):
    cfg = write_config(tmp_path, DISK_PAIR)
    out = tmp_path / "adi.csv"
    rc = main(["adi", "--config", cfg, "--out", str(out),
               "--kind", "faber", "--k", "4", "--m", "50", "--nq", "256"])
    assert rc == 0
    _, columns, rows = read_table(out)
    assert columns == ["k", "rel_error", "certificate", "bound"]
    assert len(rows) == 5
    for row in rows[1:]:
        assert float(row[1]) <= float(row[2]) + 1e-10


@pytest.mark.parametrize("kind", ["faber", "fejer"])
def test_adi_builds_its_boundary_tables_once_for_every_k(tmp_path,
                                                         monkeypatch, kind):
    # faber: the E-to-F kernel and the four scan kernels of one boundary
    # data; fejer: one psi_boundary table of Phi per boundary of the map
    kernels, tables = [], []
    cauchy_kernel, phi = faber.cauchy_kernel, conformal.phi

    def counted_kernel(quad, z):
        kernels.append(len(z))
        return cauchy_kernel(quad, z)

    def counted_phi(amap, z):
        if np.size(z) == conformal._PSI_TABLE + 1:
            tables.append(amap)
        return phi(amap, z)

    monkeypatch.setattr(faber, "cauchy_kernel", counted_kernel)
    monkeypatch.setattr(conformal, "phi", counted_phi)
    cfg = write_config(tmp_path, DISK_PAIR)
    out = tmp_path / "adi.csv"
    rc = main(["adi", "--config", cfg, "--out", str(out), "--kind", kind,
               "--k", "3", "--m", "20", "--nq", "128"])
    assert rc == 0
    assert len(read_table(out)[2]) == 4
    assert len(kernels) == (5 if kind == "faber" else 0)
    assert len(tables) == (2 if kind == "fejer" else 0)


def test_adi_runs_the_largest_leja_set_once_for_every_row(tmp_path,
                                                          monkeypatch):
    # each Leja k-set is a prefix of the largest, whose one run holds the
    # iterate of every row, bit for bit that of a k-step run
    runs, adi_iterate = [], cli.adi_iterate

    def counted(problem, shifts):
        runs.append(shifts.k)
        return adi_iterate(problem, shifts)

    monkeypatch.setattr(cli, "adi_iterate", counted)
    cfg = write_config(tmp_path, DISK_PAIR)
    out = tmp_path / "adi.csv"
    rc = main(["adi", "--config", cfg, "--out", str(out), "--kind", "leja",
               "--k", "4", "--m", "30"])
    assert rc == 0 and runs == [4]
    e, f = disk(1.0, 0.7), disk(-1.0, 0.7)
    problem = sylvester_problem(e, f, 30, seed=0)
    quads = cli._quads(512, e, f)
    for k, row in enumerate(read_table(out)[2][1:], start=1):
        x = adi_iterate(problem, leja_shifts(*quads, k))[-1]
        assert float(row[1]) == problem.relative_error(x)


def test_svbounds_cauchy_rows_hold(tmp_path):
    cfg = write_config(tmp_path, DISK_PAIR)
    out = tmp_path / "sv.csv"
    rc = main(["svbounds", "--config", cfg, "--out", str(out),
               "--kind", "cauchy", "--m", "40", "--jmax", "8"])
    assert rc == 0
    _, _, rows = read_table(out)
    assert len(rows) == 9
    for row in rows:
        assert float(row[1]) <= float(row[2]) + 1e-12


def test_svbounds_computes_no_dense_svd_of_a_low_rank_matrix(tmp_path,
                                                           monkeypatch):
    # the 400 x 400 Cauchy matrix has numerical rank far below 400, so the
    # sketch of singular_values passes its residual test
    shapes = []
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    cfg = write_config(tmp_path, DISK_PAIR)
    out = tmp_path / "sv.csv"
    rc = main(["svbounds", "--config", cfg, "--out", str(out),
               "--kind", "cauchy", "--m", "400"])
    assert rc == 0
    assert len(read_table(out)[2]) == 18
    assert shapes and (400, 400) not in shapes


def test_svbounds_vandermonde_rows_hold(tmp_path):
    cfg = write_config(tmp_path, VAND_DISK)
    out = tmp_path / "sv.csv"
    rc = main(["svbounds", "--config", cfg, "--out", str(out),
               "--kind", "vandermonde", "--m", "40", "--p", "30",
               "--jmax", "8"])
    assert rc == 0
    header, _, rows = read_table(out)
    assert float(header["h"]) == pytest.approx(2.3493504301605315, rel=1e-10)
    assert float(header["floor"]) == 40 * np.finfo(float).eps
    for row in rows:
        assert float(row[1]) <= float(row[2]) + 1e-12


def test_identical_inputs_give_identical_bytes(tmp_path):
    cfg = write_config(tmp_path, DISK_PAIR)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(["svbounds", "--config", cfg, "--out", str(out),
              "--kind", "cauchy", "--m", "30", "--jmax", "5", "--seed", "7"])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_seed_changes_the_sample(tmp_path):
    cfg = write_config(tmp_path, DISK_PAIR)
    blobs = []
    for seed in ("7", "8"):
        out = tmp_path / f"s{seed}.csv"
        main(["svbounds", "--config", cfg, "--out", str(out),
              "--kind", "cauchy", "--m", "30", "--jmax", "5",
              "--seed", seed])
        blobs.append(out.read_bytes())
    assert blobs[0] != blobs[1]


def test_missing_field_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "e": {"kind": "disk", "center": 1.0},
        "f": DISK_PAIR["f"],
    })
    rc = main(["map", "--config", cfg, "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "e.radius" in capsys.readouterr().err


def test_malformed_json_exits_with_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"e": not json')
    rc = main(["map", "--config", str(path),
               "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_file_exits_with_config_error(tmp_path):
    rc = main(["map", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x.json")])
    assert rc == 1


def test_unknown_subcommand_exits_with_config_error(capsys):
    assert main(["frobnicate"]) == 1


def test_bad_flag_combination(tmp_path):
    cfg = write_config(tmp_path, DISK_PAIR)
    rc = main(["bound", "--config", cfg, "--out", str(tmp_path / "x.csv"),
               "--n-min", "5", "--n-max", "2"])
    assert rc == 1


@pytest.mark.parametrize("flags", [
    ["faber", "--nq", "32"],
    ["adi", "--m", "0"],
    ["adi", "--p", "0"],
    ["svbounds", "--kind", "cauchy", "--m", "0"],
    ["svbounds", "--kind", "cauchy", "--jmax", "-1"],
    ["faber", "--n", "-1"],
    ["faber", "--grid", "-1"],
    ["bound", "--n-min", "-2"],
    ["adi", "--seed", "-1"],
], ids=" ".join)
def test_integer_flags_out_of_range_exit_with_config_error(tmp_path, capsys,
                                                           flags):
    cfg = write_config(tmp_path, DISK_PAIR)
    rc = main([flags[0], "--config", cfg, "--out", str(tmp_path / "x"),
               *flags[1:]])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
def test_tol_flag_must_be_finite_and_positive(tmp_path, capsys, tol):
    # the triangle-disk map is unresolved at 1e-8; a NaN or infinite tol
    # used to write its h anyway
    cfg = write_config(tmp_path, {
        "e": {"kind": "polygon", "vertices": [1.0, 2.0, [1.5, 1.0]]},
        "f": {"kind": "disk", "center": -1.5, "radius": 0.5},
    })
    out = tmp_path / "x.json"
    assert main(["map", "--config", cfg, "--out", str(out),
                 f"--tol={tol}"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_leja_shifts_on_hexagons(tmp_path):
    hexagon = [1.5 + 0.6 * np.exp(1j * np.pi * k / 3.0) for k in range(6)]
    cfg = write_config(tmp_path, {
        "e": {"kind": "polygon", "vertices": [[v.real, v.imag]
                                              for v in hexagon]},
        "f": {"kind": "polygon", "vertices": [[-v.real, -v.imag]
                                              for v in hexagon]},
    })
    out = tmp_path / "shifts.json"
    assert main(["shifts", "--config", cfg, "--out", str(out),
                 "--kind", "leja", "--k", "4"]) == 0
    assert len(json.loads(out.read_text())["kappa"]) == 4


@pytest.mark.parametrize("region_e", [
    {"kind": "disk", "center": [float("nan"), 0.0], "radius": 0.5},
    {"kind": "disk", "center": [float("inf"), 0.0], "radius": 0.5},
    {"kind": "disk", "center": 1.0, "radius": float("inf")},
    {"kind": "curve", "coefficients": {"0": [4.0, 0.0],
                                       "1": [float("nan"), 0.0]}},
    {"kind": "polygon", "vertices": [1.0, 2.0, [float("nan"), 1.0]]},
], ids=["disk_nan_center", "disk_inf_center", "disk_inf_radius",
        "curve_nan_coefficient", "polygon_nan_vertex"])
def test_non_finite_config_values_exit_with_config_error(tmp_path, capsys,
                                                         region_e):
    # json reads NaN and Infinity, so a config file can hold them
    cfg = write_config(tmp_path, {"e": region_e, "f": DISK_PAIR["f"]})
    rc = main(["map", "--config", cfg, "--out", str(tmp_path / "x.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config field 'e': ")


@pytest.mark.parametrize("region_e, error", [
    ({"kind": "disk", "center": [True, 0.0], "radius": 0.5},
     "config field 'e.center' must be a number"),
    ({"kind": "disk", "center": False, "radius": 0.5},
     "config field 'e.center' must be a number"),
    ({"kind": "disk", "center": 1.0, "radius": "0.5"},
     "config field 'e.radius' must be a number"),
    ({"kind": "disk", "center": 1.0, "radius": True},
     "config field 'e.radius' must be a number"),
    ({"kind": "rectangle", "re": [0.5, 1.5], "im": [False, 1.0]},
     "config field 'e.im' must be a number"),
    ({"kind": "polygon", "vertices": [1.0, 2.0, ["1.5", 1.0]]},
     "config field 'e.vertices[2]' must be a number"),
    ({"kind": "curve", "coefficients": {"0": [4.0, 0.0], "1": [True, 0.0]}},
     "config field 'e.coefficients[1]' must be a number"),
    ({"kind": "disk", "center": 1.0, "radius": 10**400},
     "config field 'e': int too large to convert to float"),
], ids=["disk_bool_in_center", "disk_bool_center", "disk_string_radius",
        "disk_bool_radius", "rectangle_bool_bound", "polygon_string_vertex",
        "curve_bool_coefficient", "disk_huge_int_radius"])
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, region_e,
                                             error):
    # JSON true and false load as bool, a subclass of int, and float()
    # reads strings: each used to reach the map solve
    cfg = write_config(tmp_path, {"e": region_e, "f": DISK_PAIR["f"]})
    rc = main(["map", "--config", cfg, "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]


@pytest.mark.parametrize("text, error", [
    ('{"e": {"kind": "disk", "center": 1.0, "radius": 0.7},'
     ' "f": {"kind": "disk", "center": -1.0, "radius": 0.7},'
     ' "f": {"kind": "disk", "center": -2.0, "radius": 0.7}}',
     "config field 'f' is given twice"),
    ('{"e": {"kind": "disk", "center": 1.0, "radius": 0.7, "radius": 0.5},'
     ' "f": {"kind": "disk", "center": -1.0, "radius": 0.7}}',
     "config field 'e.radius' is given twice"),
    ('{"e": {"kind": "disk", "center": 0.0, "radius": 0.5},'
     ' "f": {"kind": "exterior", "of":'
     ' {"kind": "disk", "center": 0.0, "radius": 2.0, "radius": 3.0}}}',
     "config field 'f.of.radius' is given twice"),
    ('{"e": {"kind": "disk", "center": 1.0, "radius": 0.7},'
     ' "f": {"kind": "disk", "center": -1.0, "radius": 0.7},'
     ' "notes": [[{"by": "a", "by": "b"}]]}',
     "config field 'notes[0][0].by' is given twice"),
    ('{"e": {"kind": "curve", "coefficients":'
     ' {"0": [4, 0], "1": [0.8, 0], "1": [0.3, 0]}},'
     ' "f": {"kind": "disk", "center": -6.0, "radius": 0.7}}',
     "config field 'e.coefficients' repeats a power"),
    ('{"e": {"kind": "curve", "coefficients":'
     ' {"0": [4, 0], "1": [0.8, 0], "01": [0.3, 0]}},'
     ' "f": {"kind": "disk", "center": -6.0, "radius": 0.7}}',
     "config field 'e.coefficients' repeats a power"),
    ('{"e": {"kind": "curve", "coefficients":'
     ' {"0": [4, 0], " 1": [0.8, 0], "+1": [0.3, 0]}},'
     ' "f": {"kind": "disk", "center": -6.0, "radius": 0.7}}',
     "config field 'e.coefficients' repeats a power"),
], ids=["repeated_region", "repeated_radius", "repeated_exterior_radius",
        "repeated_in_a_list", "curve_power_1", "curve_power_01",
        "curve_power_plus"])
def test_a_config_value_named_twice_is_a_config_error(tmp_path, capsys, text,
                                                      error):
    # json.loads keeps the last of repeated keys, and int() reads "01",
    # " 1" and "+1" as power 1: each config used to solve its last value
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    rc = main(["map", "--config", str(cfg), "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not (tmp_path / "x.json").exists()


def test_overflowing_polygon_exits_with_config_error(tmp_path, capsys):
    # finite vertices whose shoelace area overflows to NaN
    cfg = write_config(tmp_path, {
        "e": {"kind": "polygon",
              "vertices": [[1e308, 0.0], [1.5e308, 0.0], [1.2e308, 1e308]]},
        "f": DISK_PAIR["f"],
    })
    rc = main(["map", "--config", cfg, "--out", str(tmp_path / "x.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: config field 'e': polygon area or perimeter "
                   "overflows"]


def test_overlapping_regions_exit_with_numerical_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "e": {"kind": "disk", "center": 0.0, "radius": 1.0},
        "f": {"kind": "disk", "center": 0.5, "radius": 1.0},
    })
    rc = main(["map", "--config", cfg, "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_unresolved_map_prints_its_ladder_on_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "e": {"kind": "polygon", "vertices": [1.0, 2.0, [1.5, 1.0]]},
        "f": {"kind": "disk", "center": -1.5, "radius": 0.5},
    })
    rc = main(["map", "--config", cfg, "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: map not resolved: ") and "\n" not in err
    for degree in (8, 16, 32, 64, 128):
        assert f" {degree}: " in err


def test_benchmark_known_defects_fail_with_their_named_errors(
        tmp_path, capsys, monkeypatch):
    # the benchmark counts these invocations as known defects only while
    # their one stderr line holds the texts perfbench/workloads.py names
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import workloads

    for pair, argv, text in (
        ("triangle_disk", ["map"], workloads.MAP_NOT_RESOLVED),
    ):
        cfg = write_config(tmp_path, workloads.FIXED_PAIRS[pair], pair)
        rc = main([argv[0], "--config", cfg, "--out", str(tmp_path / "out"),
                   *argv[1:]])
        err = capsys.readouterr().err.strip()
        assert rc == 2 and "\n" not in err and text in err, (pair, err)


def test_far_disk_witnesses_beyond_the_float_range_are_certified(tmp_path):
    # h ~ 142: Phi^n overflows on the F boundary from n = 144 and h^-n is
    # subnormal from n = 143; every row still carries a finite witness
    # inside the sandwich
    cfg = write_config(tmp_path, {"e": {"kind": "disk", "center": 3.0,
                                        "radius": 0.5},
                                  "f": {"kind": "disk", "center": -3.0,
                                        "radius": 0.5}})
    out = tmp_path / "bounds.csv"
    rc = main(["bound", "--config", cfg, "--out", str(out), "--n-min", "143",
               "--n-max", "146", "--empirical"])
    assert rc == 0
    rows = read_table(out)[2]
    assert [int(row[0]) for row in rows] == [143, 144, 145, 146]
    for row in rows:
        lower, upper, witness = float(row[1]), float(row[2]), float(row[5])
        assert row[3] == "true" and np.isfinite(witness)
        assert lower * (1.0 - 1e-6) <= witness <= upper * (1.0 + 1e-6)


@pytest.mark.parametrize("failing, line", [
    ("context", "error: degree 3: context fails"),
    ("witness", "error: degree 2: the witness is not finite (nan)"),
], ids=["context", "witness"])
def test_bound_exits_with_the_error_of_the_lowest_failing_degree(
        tmp_path, capsys, monkeypatch, failing, line):
    # a context fails from degree 3 on; with failing="witness" the witness
    # of degree 2 fails too and is the one reported
    degree_context = faber.degree_context

    def failing_contexts(data, degrees):
        for n in degrees:
            if n >= 3:
                raise faber.UncertifiedError(f"degree {n}: context fails")
            ctx = degree_context(data, n)
            if failing == "witness" and n == 2:
                nan = np.full_like(ctx.inv_rn_on_f, np.nan)
                ctx = faber.FaberContext(data, n, ctx.phi_n_on_e, nan,
                                         ctx.exponent)
            yield ctx

    monkeypatch.setattr(cli, "degree_contexts", failing_contexts)
    cfg = write_config(tmp_path, DISK_PAIR)
    out = tmp_path / "bounds.csv"
    with np.errstate(invalid="ignore"):
        rc = main(["bound", "--config", cfg, "--out", str(out), "--n-min",
                   "1", "--n-max", "5", "--empirical", "--nq", "128"])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err.splitlines() == [line]


def test_vandermonde_requires_a_disk(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "e": {"kind": "rectangle", "re": [0.0, 0.3], "im": [0.0, 0.3]},
    })
    rc = main(["svbounds", "--config", cfg, "--out", str(tmp_path / "x.csv"),
               "--kind", "vandermonde", "--m", "20"])
    assert rc == 1
    assert "disk" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bounded_for", [
    (["map"], None),
    (["bound"], None),
    (["bound", "--empirical"], "bound --empirical"),
    (["faber"], "faber"),
    (["shifts", "--kind", "faber"], "shifts --kind faber"),
    (["shifts", "--kind", "fejer", "--k", "2"], None),
    (["shifts", "--kind", "leja", "--k", "2"], None),
    (["adi", "--k", "1"], "adi"),
    (["svbounds", "--kind", "cauchy"], "svbounds --kind cauchy"),
], ids=["map", "bound", "bound-empirical", "faber", "shifts-faber",
        "shifts-fejer", "shifts-leja", "adi", "svbounds-cauchy"])
def test_exterior_f_is_accepted_for_map_but_not_adi(tmp_path, capsys, argv,
                                                    bounded_for):
    # the uses that need a bounded F reject the config before the solve
    cfg = write_config(tmp_path, {
        "e": {"kind": "disk", "center": 0.0, "radius": 1.0},
        "f": {"kind": "exterior",
              "of": {"kind": "disk", "center": 0.0, "radius": 2.0}},
    })
    out = tmp_path / "out"
    rc = main([argv[0], "--config", cfg, "--out", str(out), *argv[1:]])
    err = capsys.readouterr().err.splitlines()
    if bounded_for is None:
        assert rc == 0 and err == []
    else:
        assert rc == 1 and not out.exists()
        assert err == [f"error: config field 'f' must be bounded for "
                       f"{bounded_for}"]
    if argv == ["map"]:
        assert json.loads(out.read_text())["h"] == pytest.approx(2.0,
                                                                 rel=1e-8)


def test_polygon_and_curve_configs_parse(tmp_path):
    cfg = write_config(tmp_path, {
        "e": {"kind": "polygon", "vertices": [[0.0, 0.0], [1.0, 0.0],
                                              [1.0, 1.0], [0.0, 1.0]]},
        "f": {"kind": "curve",
              "coefficients": {"0": [4.0, 0.0], "1": [0.8, 0.0]}},
    })
    out = tmp_path / "map.json"
    assert main(["map", "--config", cfg, "--out", str(out),
                 "--tol", "1e-6"]) == 0
    assert json.loads(out.read_text())["h"] > 1.0
