"""Tests of the benchmark's own checker, span arithmetic and layout.

    python3 -m pytest perfbench -q
"""

import json
import math
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

HEADER = "# faberzol 0.1.0\n# command: x\n"


def csv(columns, *rows):
    lines = [",".join(columns)] + [",".join(str(v) for v in r) for r in rows]
    return HEADER + "\n".join(lines) + "\n"


DISKS = {"e": workloads.disk(1.0, 0.7), "f": workloads.disk(-1.0, 0.7)}
BOUND_COLUMNS = ["n", "lower", "upper", "valid", "clamped", "empirical"]


def test_bound_check_accepts_a_sandwich_and_reports_its_ratios():
    text = csv(BOUND_COLUMNS, [1, 0.1, 0.5, "true", "false", 0.2],
               [2, 0.01, 1.0, "false", "true", 0.011])
    problems, acc = checks.check_output("bound", text, DISKS, ("--empirical",))
    assert problems == []
    assert acc["witness_over_lower_max"] == pytest.approx(2.0)
    assert acc["witness_over_upper_max"] == pytest.approx(0.4)


def test_bound_check_rejects_a_nan_witness():
    text = csv(BOUND_COLUMNS, [1, 0.1, 0.5, "true", "false", "nan"])
    problems, _ = checks.check_output("bound", text, DISKS, ("--empirical",))
    assert any(workloads.NAN_WITNESS in p for p in problems)


def test_bound_check_rejects_a_witness_above_a_valid_upper_bound():
    text = csv(BOUND_COLUMNS, [3, 0.1, 0.5, "true", "false", 0.5 * (1 + 1e-5)])
    problems, _ = checks.check_output("bound", text, DISKS, ("--empirical",))
    assert problems and "witness above upper" in problems[0]
    # the upper bound only binds where it is valid
    text = csv(BOUND_COLUMNS, [3, 0.1, 0.5, "false", "true", 0.6])
    assert checks.check_output("bound", text, DISKS, ("--empirical",))[0] == []


def test_adi_check_rejects_rel_error_above_certificate_and_nan():
    columns = ["k", "rel_error", "certificate", "bound"]
    ok = csv(columns, [0, 1.0, 1.0, 1.0], [1, 0.1, 0.2, 0.3])
    problems, acc = checks.check_output("adi", ok, DISKS, ())
    assert problems == [] and acc["rel_error_over_certificate_max"] == 0.5
    above = csv(columns, [0, 1.0, 1.0, 1.0], [1, 0.3, 0.2, 0.3])
    assert "rel_error above certificate" in checks.check_output(
        "adi", above, DISKS, ())[0][0]
    nan = csv(columns, [0, 1.0, 1.0, 1.0], [1, "nan", 0.2, 0.3])
    assert "not finite" in checks.check_output("adi", nan, DISKS, ())[0][0]


def test_svbounds_check_allows_only_the_svd_rounding_floor():
    columns = ["j", "sigma_ratio", "bound"]
    floor = 100 * checks.EPS
    ok = csv(columns, [0, 1.0, 1.0], [1, 1e-30 + 0.5 * floor, 1e-30])
    assert checks.check_output("svbounds", ok, DISKS, ())[0] == []
    bad = csv(columns, [0, 1.0, 1.0], [1, 0.2, 0.1])
    assert "sigma_ratio above bound" in checks.check_output(
        "svbounds", bad, DISKS, ())[0][0]


def test_map_check_compares_disk_pairs_with_the_closed_form():
    exact = checks.two_disk_h(DISKS["e"], DISKS["f"])
    good = json.dumps({"h": exact, "residual": 1e-12})
    assert checks.check_output("map", good, DISKS, ())[0] == []
    off = json.dumps({"h": exact * (1 + 1e-5), "residual": 1e-12})
    assert "closed form" in checks.check_output("map", off, DISKS, ())[0][0]
    loose = json.dumps({"h": exact, "residual": 1e-6})
    assert "residual" in checks.check_output("map", loose, DISKS, ())[0][0]


def test_faber_and_shifts_checks_reject_non_finite_values():
    text = csv(["re", "im", "abs_rn"], [0, 0, 1.0], [0, 1, "inf"],
               [1, 0, 1.0], [1, 1, 1.0])
    problems, _ = checks.check_output("faber", text, DISKS, ("--grid", "2"))
    assert problems and "abs_rn is not finite" in problems[0]
    shifts = json.dumps({"kappa": [[1.0, 0.0]], "tau": [[math.nan, 0.0]]})
    problems, _ = checks.check_output("shifts", shifts, DISKS, ("--k", "1"))
    assert problems == ["tau value is not finite"]


def test_a_non_zero_exit_fails_the_invocation(tmp_path):
    inv = workloads.Invocation("map", "p", known_defect="not resolved")
    rec = {"inv": inv, "rc": 2, "out": tmp_path / "missing",
           "stderr": "some warning\nerror: map not resolved: residual 1e-4"}
    run.check_record(rec, DISKS)
    assert rec["failed"] and rec["expected"]
    assert rec["error"] == "error: map not resolved: residual 1e-4"
    rec.update(rc=1, stderr="error: config field 'e' is missing")
    run.check_record(rec, DISKS)
    assert rec["failed"] and not rec["expected"]


def test_self_time_subtracts_nested_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans_ = [["root", 0.0, 10.0, None], ["a", 1.0, 4.0, 0],
              ["b", 2.0, 3.0, 1], ["c", 5.0, 9.0, 0], ["a", 9.5, 10.0, 0]]
    assert spans.self_times(spans_) == {
        "root": pytest.approx(10.0 - 3.0 - 4.0 - 0.5),
        "a": pytest.approx(2.0 + 0.5), "b": 1.0, "c": 4.0}


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert [s[0] for s in tracer.spans] == ["m.outer", "m.inner", "m.inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    metrics = spans.layer_metrics(tracer)
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert metrics["m.outer.self_s"] == 3.0
    assert metrics["m.inner.self_s"] == 2.0
    assert metrics["m.self_s"] == 5.0
    assert metrics["m.inner.calls"] == 2


def test_install_rebinds_every_copy_and_restore_undoes_it():
    cli = run.import_cli()
    import faberzol.conformal as conformal
    import faberzol.faber as faber
    original = conformal.phi
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert conformal.phi is not original and faber.phi is conformal.phi
        assert cli.solve_annulus_map is conformal.solve_annulus_map
    finally:
        spans.restore(undo)
    assert conformal.phi is original and faber.phi is original


def test_every_workload_invokes_all_six_subcommands():
    for name in workloads.WORKLOADS:
        batch, pairs = workloads.build(name, seed=0)
        assert {inv.command for inv in batch} == set(workloads.COMMANDS)
        assert {inv.pair for inv in batch} == set(pairs)


def test_seed_fixes_the_random_pairs():
    first = workloads.build("zoo", 5)[1]
    assert first == workloads.build("zoo", 5)[1]
    assert first["random0"] != workloads.build("zoo", 6)[1]["random0"]


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
