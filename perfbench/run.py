"""faberzol benchmark: fixed batches of in-process CLI calls, checked and timed.

    python3 perfbench/run.py --workload zoo --seed 1 --seconds 40 --trace 0

Run from a source checkout: the program is imported from its `src/`.  Each
workload (see workloads.py) is a batch of `faberzol.cli.main(argv)` calls,
run by one client in one process, one call after another (a closed loop).
BLAS is pinned to one thread in this process and its children only.

With `--trace 0` the batch runs as many passes as fit in `--seconds`, and
the timings are medians over the passes.  With `--trace 1` two untraced
passes and one traced pass run; the per-layer metrics come from the spans of
the traced pass (spans.py), and `trace.overhead_s` is its wall time minus
that of the second untraced pass.

Every output is checked (checks.py).  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}.  The line before it is a
JSON report with the seed, the environment, the failures with their error
text, the accuracy figures and the sha256 of the outputs.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIGESTS = HERE / "reference_digests.json"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    **{f"{command}_s": "s" for command in workloads.COMMANDS},
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "cli.self_s": "s",
    "conformal.self_s": "s",
    "conformal.solve_annulus_map.calls": "count",
    "conformal.solve_annulus_map.self_s": "s",
    "conformal.ladder_steps": "count",
    "conformal.basis_columns": "count",
    "conformal.phi.calls": "count",
    "conformal.phi.points": "count",
    "conformal.phi.points_per_call": "points/call",
    "conformal.phi.self_s": "s",
    "conformal.psi_boundary.calls": "count",
    "conformal.psi_boundary.self_s": "s",
    "faber.self_s": "s",
    "faber.build_context.calls": "count",
    "faber.build_context.self_s": "s",
    "faber.empirical_ratio.calls": "count",
    "faber.empirical_ratio.self_s": "s",
    "faber.eval_rn.calls": "count",
    "faber.eval_rn.points": "count",
    "faber.eval_rn.self_s": "s",
    "faber.rn_on_e_boundary.self_s": "s",
    "faber.rn_on_f_boundary.self_s": "s",
    "quadrature.self_s": "s",
    "quadrature.cauchy_boundary.calls": "count",
    "quadrature.cauchy_boundary.self_s": "s",
    "quadrature.cauchy_stabilized.calls": "count",
    "quadrature.cauchy_stabilized.self_s": "s",
    "quadrature.kernel_entries": "count",
    "rational.self_s": "s",
    "rational.aaa_fit.calls": "count",
    "rational.aaa_fit.self_s": "s",
    "rational.aaa_degree": "count",
    "rational.poles_zeros.self_s": "s",
    "adi.self_s": "s",
    "adi.adi_iterate.calls": "count",
    "adi.adi_iterate.self_s": "s",
    "adi.steps": "count",
    "adi.steps_per_row": "steps/row",
    "adi.spectral_norm.calls": "count",
    "adi.spectral_norm.self_s": "s",
    "adi.faber_shifts.self_s": "s",
    "adi.fejer_shifts.self_s": "s",
    "adi.leja_shifts.self_s": "s",
    "adi.error_certificate.self_s": "s",
    "adi.sylvester_problem.self_s": "s",
    "displacement.self_s": "s",
    "displacement.cauchy_matrix.self_s": "s",
    "displacement.vandermonde_matrix.self_s": "s",
    "displacement.singular_values.self_s": "s",
    "displacement.svd_entries": "count",
    "bounds.self_s": "s",
    "bounds.zolotarev_upper.calls": "count",
    "bounds.zolotarev_upper.self_s": "s",
    "bounds.from_regions.self_s": "s",
    "geometry.self_s": "s",
    "geometry.boundary_samples.calls": "count",
    "geometry.boundary_samples.self_s": "s",
    "geometry.contains_many.calls": "count",
    "geometry.contains_many.points": "count",
    "geometry.contains_many.self_s": "s",
    "geometry.random_points.self_s": "s",
    "geometry.rotation.self_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="import the program and write the configs to "
                             "DIR, then exit (the timed set-up step)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the sha256 of every seed-independent "
                             "output as the reference for later runs")
    return parser.parse_args(argv)


def import_cli():
    """The checkout's faberzol.cli; None when the source tree is absent."""
    if not (SRC / "faberzol" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import faberzol.cli
    return faberzol.cli


def write_configs(directory, pairs):
    paths = {}
    for name, config in pairs.items():
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
        paths[name] = str(path)
    return paths


def measure_setup(workload, seed, workdir):
    """Median time for a fresh process to import faberzol and write configs."""
    samples = []
    for i in range(SETUP_SAMPLES):
        target = Path(workdir) / f"setup{i}"
        target.mkdir()
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(target)]
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_pass(cli, batch, pairs, configs, workdir, seed, tracer=None):
    """Run the batch once, timing each call; then check every output."""
    records = []
    undo = spans.install(tracer) if tracer is not None else []
    try:
        start = time.perf_counter()
        for i, inv in enumerate(batch):
            out = Path(workdir) / f"out{i:03d}"
            out.unlink(missing_ok=True)
            argv = inv.argv(configs[inv.pair], str(out), seed)
            ladder_start = len(tracer.ladders) if tracer is not None else 0
            stderr = io.StringIO()
            # the previous call's garbage is not charged to this one
            gc.collect()
            t0 = time.perf_counter()
            with contextlib.redirect_stderr(stderr):
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # a crash is one failed invocation
                    rc = None
                    print(f"crash: {exc!r}", file=sys.stderr)
            records.append({
                "inv": inv, "seconds": time.perf_counter() - t0, "rc": rc,
                "out": out, "stderr": stderr.getvalue().strip(),
                "ladder": (tracer.ladders[ladder_start:]
                           if tracer is not None else []),
            })
        wall = time.perf_counter() - start
    finally:
        spans.restore(undo)
    for rec in records:
        check_record(rec, pairs[rec["inv"].pair])
    return {"wall": wall, "records": records}


def check_record(rec, pair):
    """Mark the record failed, with its error text, or store its accuracy."""
    inv = rec["inv"]
    rec["data"] = rec["out"].read_bytes() if rec["out"].exists() else b""
    rec["accuracy"] = {}
    if rec["rc"] != 0:
        lines = rec["stderr"].splitlines()
        errors = [lines[-1] if lines else f"exit code {rec['rc']}"]
    else:
        errors, rec["accuracy"] = checks.check_output(
            inv.command, rec["data"].decode(), pair, inv.args)
    rec["error"] = "; ".join(errors)
    rec["failed"] = bool(errors)
    rec["expected"] = (rec["failed"] and inv.known_defect is not None
                       and inv.known_defect in rec["error"])


def timing_metrics(results):
    """Median pass wall time, and per subcommand the sum over its
    invocations of each invocation's median time over the passes."""
    metrics = {"wall_s": statistics.median(r["wall"] for r in results)}
    for command in workloads.COMMANDS:
        metrics[f"{command}_s"] = sum(
            statistics.median(r["records"][i]["seconds"] for r in results)
            for i, rec in enumerate(results[0]["records"])
            if rec["inv"].command == command)
    return metrics


def output_digests(result):
    """sha256 of all outputs of a pass together, and of each output."""
    total = hashlib.sha256()
    each = {}
    for rec in result["records"]:
        each[rec["inv"].label] = hashlib.sha256(rec["data"]).hexdigest()
        total.update(rec["inv"].label.encode() + b"\0" + rec["data"])
    return total.hexdigest(), each


def seed_independent(inv):
    return (inv.command not in workloads.SEEDED_COMMANDS
            and inv.pair not in workloads.RANDOM_PAIRS)


def accuracy_report(result):
    geometries = {}
    worst = {}
    for rec in result["records"]:
        inv, acc = rec["inv"], rec["accuracy"]
        if inv.command == "map":
            entry = geometries.setdefault(inv.pair, {})
            entry.update(acc)
            if rec["ladder"]:
                entry["ladder_degree"] = rec["ladder"][-1]
                entry["ladder_steps"] = len(rec["ladder"])
        for key, value in acc.items():
            if key.endswith("_max"):
                worst[key] = max(worst.get(key, 0.0), value)
    return {"geometries": geometries, **worst}


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def load_reference():
    if REFERENCE_DIGESTS.is_file():
        return json.loads(REFERENCE_DIGESTS.read_text())
    return {}


def per_layer_metrics(tracer, traced, untraced):
    found = spans.layer_metrics(tracer)
    metrics = {name: found.get(name, 0) for name in PER_LAYER}
    calls = found.get("conformal.phi.calls", 0)
    metrics["conformal.phi.points_per_call"] = (
        found.get("conformal.phi.points", 0) / calls if calls else 0.0)
    rows = sum(int(inv.args[inv.args.index("--k") + 1])
               for inv in (r["inv"] for r in traced["records"])
               if inv.command == "adi")
    metrics["adi.steps_per_row"] = metrics["adi.steps"] / rows if rows else 0.0
    metrics["trace.overhead_s"] = traced["wall"] - untraced["wall"]
    return metrics


def measure(args, cli, workdir):
    """All passes of one run: (batch, setup_s, untraced passes, traced)."""
    batch, pairs = workloads.build(args.workload, args.seed)
    configs = write_configs(workdir, pairs)
    setup_s = measure_setup(args.workload, args.seed, workdir)
    untraced = [run_pass(cli, batch, pairs, configs, workdir, args.seed)]
    # as many passes as fit in --seconds at the first pass's pace; a traced
    # run compares with a second untraced pass, since the first one also
    # pays for a cold heap
    passes = 2 if args.trace else max(1, int(args.seconds
                                             / untraced[0]["wall"]))
    for _ in range(passes - 1):
        untraced.append(run_pass(cli, batch, pairs, configs, workdir,
                                 args.seed))
    traced = tracer = None
    if args.trace:
        tracer = spans.Tracer()
        traced = run_pass(cli, batch, pairs, configs, workdir, args.seed,
                          tracer)
    return batch, setup_s, untraced, traced, tracer


def summarise(args, batch, setup_s, untraced, traced, tracer):
    """The report dict and the result line of one run."""
    every = untraced + ([traced] if traced is not None else [])
    records = [rec for result in every for rec in result["records"]]
    attempted = len(records)
    failed = sum(rec["failed"] for rec in records)
    unexpected = sorted({rec["inv"].label for rec in records
                         if rec["failed"] and not rec["expected"]})

    if args.trace:
        metrics = per_layer_metrics(tracer, traced, untraced[-1])
        units = PER_LAYER
    else:
        metrics = timing_metrics(untraced)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics["ok_frac"] = (attempted - failed) / attempted
        units = END_TO_END

    digests = [output_digests(result) for result in every]
    reference = load_reference().get(args.workload, {})
    first = every[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "passes": len(untraced),
        "pass_wall_s": [result["wall"] for result in every],
        "invocation_s": {
            rec["inv"].label: [r["records"][i]["seconds"] for r in every]
            for i, rec in enumerate(first["records"])},
        "invocations_per_pass": len(batch),
        "samples": {command: sum(inv.command == command for inv in batch)
                    for command in workloads.COMMANDS},
        "fail_frac": failed / attempted,
        "failures": [
            {"invocation": rec["inv"].label, "error": rec["error"],
             "known_defect": rec["expected"]}
            for rec in first["records"] if rec["failed"]],
        "unexpected_failures": unexpected,
        "known_defects_not_seen": [
            rec["inv"].label for rec in first["records"]
            if rec["inv"].known_defect is not None and not rec["failed"]],
        "accuracy": accuracy_report(traced if traced is not None else first),
        "outputs_sha256": digests[0][0],
        "outputs_identical_across_passes": len({d[0] for d in digests}) == 1,
        "outputs_changed_vs_reference": sorted(
            label for label, digest in digests[0][1].items()
            if label in reference and reference[label] != digest),
    }
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return report, result


def write_reference(workload, batch, untraced):
    reference = load_reference()
    _, each = output_digests(untraced[0])
    reference[workload] = {inv.label: each[inv.label]
                           for inv in batch if seed_independent(inv)}
    REFERENCE_DIGESTS.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    if cli is None:
        print(f"perfbench: no faberzol source under {SRC}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        write_configs(args.setup_only, workloads.build(args.workload,
                                                       args.seed)[1])
        return 0
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        batch, setup_s, untraced, traced, tracer = measure(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.write_reference:
        write_reference(args.workload, batch, untraced)
    report, result = summarise(args, batch, setup_s, untraced, traced, tracer)
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"passes = {report['passes']}, invocations per pass = "
          f"{report['invocations_per_pass']}, attempted = "
          f"{result['attempted']}, failed = {result['failed']}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
