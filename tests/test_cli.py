"""End-to-end runs of the command-line interface in a temp directory."""

import json
import warnings

import numpy as np
import pytest

from conftest import two_disk_h
from faberzol.cli import main

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


def test_svbounds_vandermonde_rows_hold(tmp_path):
    cfg = write_config(tmp_path, VAND_DISK)
    out = tmp_path / "sv.csv"
    rc = main(["svbounds", "--config", cfg, "--out", str(out),
               "--kind", "vandermonde", "--m", "40", "--p", "30",
               "--jmax", "8"])
    assert rc == 0
    header, _, rows = read_table(out)
    assert float(header["h"]) == pytest.approx(2.3493504301605315, rel=1e-10)
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
