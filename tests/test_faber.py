"""Filtered-power rationals checked against the two-disk closed form.

For a disjoint disk pair the annulus map is a Mobius transformation, the
two Cauchy filters act as identities, and r_n = R_n = Phi^n everywhere.
Every quantity then has an explicit oracle.
"""

import dataclasses
import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from conftest import (
    direct_cauchy_boundary,
    direct_inv_rn,
    unscaled_context,
    unscaled_witness,
)
from faberzol import faber, quadrature, search
from faberzol.adi import faber_shifts
from faberzol.bounds import sup_rn_bound, zolotarev_upper, GeometryConstants
from faberzol.conformal import (
    ExteriorOf,
    mobius_two_disks,
    phi,
    solve_annulus_map,
)
from faberzol.errors import (
    EvaluationDomainError,
    InvalidRegionError,
    UncertifiedError,
)
from faberzol.faber import (
    _reciprocal,
    _scan,
    _scan_inv_rn,
    boundary_data,
    build_context,
    count_zeros,
    degree_context,
    degree_contexts,
    empirical_ratio,
    empirical_ratios,
    eval_Rn,
    eval_inv_rn,
    eval_rn,
)
from faberzol.geometry import contains_many, disk, rectangle
from faberzol.quadrature import _ldexp, cauchy_kernel
from faberzol.rational import aaa_fit


@pytest.fixture(scope="module")
def ctx6(disk_map):
    return build_context(disk_map, 6, n_quad=256)


def _omega_grid(disk_pair, n=20):
    e, f = disk_pair
    xs = np.linspace(-2.6, 2.6, n)
    zz = (xs[None, :] + 1j * xs[:, None]).ravel()
    in_e, on_e = contains_many(e, zz)
    in_f, on_f = contains_many(f, zz)
    return zz[~(in_e | on_e | in_f | on_f)]


def test_filtered_power_equals_the_mobius_power(disk_map, disk_pair, ctx6):
    zz = _omega_grid(disk_pair)
    expect = phi(disk_map, zz) ** 6
    got = eval_Rn(ctx6, zz)
    scale = np.maximum(1.0, np.abs(expect))
    assert (np.abs(got - expect) / scale).max() < 1e-8


def test_rational_equals_the_mobius_power_everywhere(disk_map, disk_pair,
                                                     ctx6):
    # r_n agrees on Omega, inside E and inside F (away from its pole)
    zz = np.concatenate([_omega_grid(disk_pair),
                         np.array([-1.0 + 0.2j, -0.8, -1.3 - 0.3j]),
                         np.array([1.0 + 0.2j, 0.8, 1.3 - 0.3j])])
    expect = phi(disk_map, zz) ** 6
    got = eval_rn(ctx6, zz)
    scale = np.maximum(1.0, np.abs(expect))
    assert (np.abs(got - expect) / scale).max() < 1e-8


def test_power_is_undefined_inside_f(ctx6):
    with pytest.raises(EvaluationDomainError):
        eval_Rn(ctx6, np.array([-1.0 + 0.1j]))


def test_boundary_moduli_match_the_annulus(disk_map, disk_pair, ctx6):
    e, f = disk_pair
    t = np.linspace(0.0, 1.0, 300, endpoint=False)
    on_e = np.abs(eval_rn(ctx6, e.boundary_point(t)))
    on_f = np.abs(eval_rn(ctx6, f.boundary_point(t)))
    assert np.abs(on_e - 1.0).max() < 1e-10
    assert (np.abs(on_f - disk_map.h ** 6) / disk_map.h ** 6).max() < 1e-10


def test_on_boundary_points_are_evaluated_directly(disk_map, disk_pair, ctx6):
    e, _ = disk_pair
    z = e.boundary_point(np.array([0.11, 0.43, 0.86]))
    got = eval_rn(ctx6, z)
    expect = phi(disk_map, z) ** 6
    assert (np.abs(got - expect) / np.abs(expect)).max() < 1e-8


def test_reciprocal_is_consistent(disk_pair, ctx6):
    zz = _omega_grid(disk_pair)[::5]
    prod = eval_rn(ctx6, zz) * eval_inv_rn(ctx6, zz)
    assert np.abs(prod - 1.0).max() < 1e-8


@pytest.mark.parametrize("n", [1, 3, 6])
def test_extremal_ratio_attains_the_annulus_decay(disk_map, n):
    ctx = build_context(disk_map, n, n_quad=256)
    ratio = empirical_ratio(ctx)
    assert ratio == pytest.approx(disk_map.h ** (-n), rel=1e-10)


def test_zero_count_matches_the_degree(ctx6):
    assert count_zeros(ctx6) == 6


@functools.cache
def _mirror045_map():
    e = rectangle((-0.85, -0.05), (-0.6, 0.6))
    return solve_annulus_map(e, e.negated(), tol=1e-8)


@pytest.mark.parametrize("pair, n", [("readme", 2), ("mirror045", 5),
                                     ("mirror045", 6)])
def test_zero_count_holds_where_the_level_curve_swings_far_out(pair, n,
                                                               rect_map):
    # rho lies near |Phi(infinity)|, so the curve runs far around F
    amap = rect_map if pair == "readme" else _mirror045_map()
    assert count_zeros(build_context(amap, n)) == n


def test_an_empty_rho_window_names_its_ends_and_the_cap(disk_map):
    # F = -E, so |Phi(infinity)| = sqrt(h) caps the window
    amap = _mirror045_map()
    with pytest.raises(UncertifiedError) as caught:
        count_zeros(build_context(amap, 4))
    found = re.fullmatch(
        r"zero count not certified at this n: rho_min = (\S+) is not below "
        r"rho_cap = 0\.98 \|Phi\(inf\)\| = (\S+)", str(caught.value))
    rho_min, rho_cap = float(found[1]), float(found[2])
    assert rho_cap == pytest.approx(0.98 * math.sqrt(amap.h), rel=1e-5)
    assert rho_min >= rho_cap
    with pytest.raises(UncertifiedError, match="rho_min = inf is not below"):
        count_zeros(build_context(disk_map, 0, n_quad=128))


def test_non_finite_targets_are_outside_the_domain(disk_map):
    ctx = build_context(disk_map, 3, n_quad=128)
    z = np.array([complex(np.nan, 0.0), 0.3j, complex(0.0, np.inf)])
    for evaluate in (eval_Rn, eval_inv_rn, eval_rn):
        with pytest.raises(EvaluationDomainError,
                           match="2 non-finite target"):
            evaluate(ctx, z)


@functools.cache
def _far_disks_context():
    return build_context(mobius_two_disks(disk(0.0, 1.0), disk(4.0, 1.0)),
                         3, n_quad=128)


# inside E, in the gap and inside F of the disks (0, 1) and (4, 1)
_NAN_TARGETS = np.array([0.5, 1.5 + 0.5j, 4.2])


def test_a_nan_f_density_makes_nan_errors_not_values():
    ctx = _far_disks_context()
    broken = dataclasses.replace(
        ctx, inv_rn_on_f=np.full_like(ctx.inv_rn_on_f, np.nan))
    for evaluate in (eval_inv_rn, eval_rn):
        with pytest.raises(UncertifiedError,
                           match="degree 3: 1/r_n is NaN at 3 target"):
            evaluate(broken, _NAN_TARGETS)


def test_a_nan_e_density_is_not_reported_as_an_overflow():
    ctx = _far_disks_context()
    broken = dataclasses.replace(
        ctx, phi_n_on_e=np.full_like(ctx.phi_n_on_e, np.nan))
    for evaluate, z in ((eval_Rn, _NAN_TARGETS[:2]),
                        (eval_inv_rn, _NAN_TARGETS),
                        (eval_rn, _NAN_TARGETS)):
        with pytest.raises(UncertifiedError,
                           match="degree 3: R_n is NaN at 2 target"):
            evaluate(broken, z)


def test_only_pole_markers_become_zeros_of_r_n():
    inv = np.array([np.inf + 0.0j, complex(np.nan, 0.0), 2.0, 0.5j])
    out = _reciprocal(inv)
    assert out[0] == 0.0 and np.isnan(out[1])
    assert np.array_equal(out[2:], [0.5, -2.0j])


def test_evaluations_do_not_depend_on_the_block_size(ctx6, monkeypatch):
    # a grid over inside E, the gap and inside F; in blocks of 3 targets
    # no target is alone in its block, where a one-row product would
    # round differently from a longer one
    xs, ys = np.linspace(-1.9, 1.9, 37), np.linspace(-0.6, 0.6, 9)
    zz = (xs[None, :] + 1j * ys[:, None]).ravel()
    in_e, _ = contains_many(ctx6.map.region_e, zz)
    in_f, _ = contains_many(ctx6.map.region_f, zz)
    sizes = [np.count_nonzero(m) for m in (in_e, in_f, ~in_e & ~in_f, ~in_f)]
    assert min(sizes) > 1 and all(size % 3 != 1 for size in sizes)

    def evaluate():
        return (eval_Rn(ctx6, zz[~in_f]), eval_inv_rn(ctx6, zz),
                eval_rn(ctx6, zz))

    whole = evaluate()
    monkeypatch.setattr(quadrature, "_CHUNK", 3 * len(ctx6.quad_e))
    for blocked, expect in zip(evaluate(), whole):
        assert np.array_equal(blocked, expect)


@pytest.mark.parametrize("evaluator", ["eval_Rn", "eval_inv_rn"])
def test_kernel_blocks_leave_no_lone_row(evaluator, ctx6, monkeypatch):
    # blocks of 4 rows: for every count of interior targets from 2 to
    # three blocks plus one, each value is that of the one-part call bit
    # for bit; eval_Rn inside E, eval_inv_rn inside F
    evaluate = getattr(faber, evaluator)
    region = (ctx6.map.region_e if evaluator == "eval_Rn"
              else ctx6.map.region_f)
    rng = np.random.default_rng(7)
    z = region.center + (0.9 * region.radius * rng.random(13)
                         * np.exp(2j * np.pi * rng.random(13)))
    assert contains_many(region, z)[0].all()
    whole = [evaluate(ctx6, z[:count]) for count in range(2, 14)]
    monkeypatch.setattr(quadrature, "_KERNEL_BLOCK", 4 * len(ctx6.quad_e))
    for count, expect in zip(range(2, 14), whole):
        blocks = quadrature._kernel_blocks(count, len(ctx6.quad_e))
        assert min(block.stop - block.start for block in blocks) >= 2
        assert np.array_equal(evaluate(ctx6, z[:count]), expect)


def test_count_zeros_builds_only_the_scan_kernel_it_reads(disk_map):
    data = boundary_data(disk_map, 128)
    assert count_zeros(degree_context(data, 3)) == 3
    # no F scan; the E scan fits one part at 128 nodes and keeps the one
    # kernel read, while at 256 nodes it is cut into parts and keeps none
    assert {"e_scan", "f_scan"} & set(vars(data)) == {"e_scan"}
    assert {"across_e", "across_f"} & set(vars(data.e_scan)) == {"across_e"}
    data = boundary_data(disk_map, 256)
    assert count_zeros(degree_context(data, 3)) == 3
    assert {"e_scan", "f_scan"} & set(vars(data)) == {"e_scan"}
    assert not {"across_e", "across_f"} & set(vars(data.e_scan))


def test_rational_blows_up_inside_f(disk_map, ctx6):
    # |Phi| > h inside F, so |r_n| exceeds the boundary modulus there
    vals = np.abs(eval_rn(ctx6, np.array([-1.0 + 0.15j, -0.75])))
    assert (vals > disk_map.h ** 6).all()


def test_exterior_f_regions_are_not_supported():
    amap = solve_annulus_map(disk(0.0, 1.0), ExteriorOf(disk(0.0, 2.0)),
                             tol=1e-8)
    with pytest.raises(InvalidRegionError):
        build_context(amap, 3, n_quad=128)


def test_degree_and_size_validation(disk_map):
    with pytest.raises(ValueError):
        build_context(disk_map, -1)
    with pytest.raises(ValueError):
        build_context(disk_map, 2, n_quad=32)


def test_uncertified_map_power_raises(disk_map):
    # the Mobius map of the 0.7 disk sends a 0.71 circle outside |w| = 1,
    # which a zero residual cannot certify
    wide = dataclasses.replace(disk_map, region_e=disk(1.0, 0.71))
    with pytest.raises(UncertifiedError, match="measured max 1 \\+ "):
        build_context(wide, 3, n_quad=128)


def test_degrees_beyond_the_float_range_are_certified():
    # h = 141.99 on the far disks: Phi^n overflows on the F boundary from
    # n = 144 on and h^-n is subnormal from n = 143, yet the scaled F side
    # gives every degree a finite witness inside the sandwich
    far = mobius_two_disks(disk(3.0, 0.5), disk(-3.0, 0.5))
    data = boundary_data(far, 128)
    gc = GeometryConstants.from_regions(far.region_e, far.region_f, far.h)
    degrees = range(143, 147)
    contexts = [degree_context(data, n) for n in degrees]
    for ctx in contexts:
        assert np.all(np.isfinite(ctx.inv_rn_on_f))
    for n, witness in zip(degrees, empirical_ratios(contexts)):
        bv = zolotarev_upper(gc, n)
        assert np.isfinite(witness) and bv.upper_valid
        assert bv.lower * (1.0 - 1e-6) <= witness <= bv.upper * (1.0 + 1e-6)


@given(h=st.floats(20.0, 200.0), r_e=st.floats(0.2, 1.0),
       r_f=st.floats(0.2, 1.0), angle=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=12, deadline=None)
def test_witnesses_stay_sandwiched_past_the_float_range(h, r_e, r_f, angle):
    # disk pairs at annulus parameter h, at degrees where h^-n runs from
    # 1e-290 to below 1e-320 (subnormal, and 0.0 past 5e-324)
    delta = 0.5 * (h + 1.0 / h)
    gap = math.sqrt(2.0 * r_e * r_f * delta + r_e ** 2 + r_f ** 2)
    amap = mobius_two_disks(disk(0.0, r_e),
                            disk(gap * complex(math.cos(angle),
                                               math.sin(angle)), r_f))
    gc = GeometryConstants.from_regions(amap.region_e, amap.region_f, amap.h)
    lo = math.ceil(290.0 / math.log10(amap.h))
    hi = math.ceil(322.0 / math.log10(amap.h))
    degrees = (lo, (lo + hi) // 2, hi)
    data = boundary_data(amap, 256)
    witnesses = empirical_ratios([degree_context(data, n) for n in degrees])
    for n, witness in zip(degrees, witnesses):
        bv = zolotarev_upper(gc, n)
        assert math.isfinite(witness)
        assert witness >= bv.lower * (1.0 - 1e-6)
        if bv.upper_valid:
            assert witness <= bv.upper * (1.0 + 1e-6)


def test_scaled_contexts_and_witnesses_equal_the_unscaled_path(disk_map,
                                                               rect_map):
    # where the unscaled arithmetic stays normal and n < 100 (numpy's
    # integer power then multiplies by squaring), the scale is exact
    far = mobius_two_disks(disk(3.0, 0.5), disk(-3.0, 0.5))
    for amap, nq, degrees in ((disk_map, 256, (1, 2, 5, 8)),
                              (rect_map, 512, (1, 2, 5, 8)),
                              (far, 128, (50, 99))):
        data = boundary_data(amap, nq)
        for n in degrees:
            ctx = degree_context(data, n)
            assert ctx.exponent == round(math.log2(amap.h)) * n
            phi_n_on_e, inv_rn_on_f = unscaled_context(data, n)
            assert np.array_equal(ctx.phi_n_on_e, phi_n_on_e)
            assert np.array_equal(_ldexp(ctx.inv_rn_on_f, -ctx.exponent),
                                  inv_rn_on_f)
            assert empirical_ratio(ctx) == unscaled_witness(data, n)[0]


def _counting_searches(monkeypatch):
    """Patch faber's Brent search to tally the values each search takes,
    in the order the searches start."""
    tallies, search = [], faber._bounded_brent

    def counted(lo, hi):
        tallies.append(0)
        lane, steps = len(tallies) - 1, search(lo, hi)
        x = next(steps)
        try:
            while True:
                tallies[lane] += 1
                x = steps.send((yield x))
        except StopIteration as done:
            return done.value

    monkeypatch.setattr(faber, "_bounded_brent", counted)
    return tallies


@pytest.mark.parametrize("pair", ["readme", "mirror045", "rect_disk"])
def test_lockstep_search_takes_the_steps_of_per_degree_searches(
        pair, rect_map, monkeypatch):
    if pair == "readme":
        amap = rect_map
    else:
        e = (rectangle((-0.85, -0.05), (-0.6, 0.6)) if pair == "mirror045"
             else rectangle((-2.0, -1.0), (-0.5, 0.5)))
        f = e.negated() if pair == "mirror045" else disk(2.0, 0.6)
        amap = solve_annulus_map(e, f, tol=1e-8)
    data = boundary_data(amap, 512)
    degrees = range(1, 9)
    reference = [unscaled_witness(data, n) for n in degrees]
    tallies = _counting_searches(monkeypatch)
    witnesses = empirical_ratios([degree_context(data, n) for n in degrees])
    # the searches start E side first, each side in degree order
    assert tallies == ([ev[0] for _, ev in reference]
                       + [ev[1] for _, ev in reference])
    for witness, (expect, _) in zip(witnesses, reference):
        assert abs(witness - expect) <= 1e-12 * expect


@pytest.mark.parametrize("fun", [
    lambda t: (t - 0.3) ** 2,
    lambda t: -abs(math.sin(40.0 * t)),
    lambda t: math.floor(7.0 * t) - t,
    lambda t: 0.0,
], ids=["parabola", "ripples", "steps", "flat"])
def test_bounded_brent_retraces_scipy(fun):
    for lo, hi in ((0.0, 1.0), (0.2991, 0.3015), (-1e-3, 1e-3)):
        seen = []

        def recorded(t):
            seen.append(t)
            return fun(t)

        res = minimize_scalar(recorded, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        steps = search._bounded_brent(lo, hi)
        xs = [next(steps)]
        try:
            while True:
                xs.append(steps.send(fun(xs[-1])))
        except StopIteration as done:
            least = done.value
        assert xs == seen and least == res.fun


def test_degree_contexts_equal_one_degree_calls_and_raise_in_turn(
        disk_map, rect_map):
    # 512 F nodes take 4 parts, whose kernels serve every degree at once
    data = boundary_data(rect_map, 512)
    degrees = (3, 1, 7, 0)
    for n, ctx in zip(degrees, degree_contexts(data, degrees), strict=True):
        alone = degree_context(data, n)
        assert ctx.n == n and ctx.exponent == alone.exponent
        assert np.array_equal(ctx.phi_n_on_e, alone.phi_n_on_e)
        assert np.array_equal(ctx.inv_rn_on_f, alone.inv_rn_on_f)
    # a 0.71 circle is not certified for n >= 1: degree 0 comes first
    wide = boundary_data(dataclasses.replace(
        disk_map, region_e=disk(1.0, 0.71)), 128)
    contexts = degree_contexts(wide, (0, 2, 1))
    assert next(contexts).n == 0
    with pytest.raises(UncertifiedError, match="measured max 1 \\+ "):
        next(contexts)
    with pytest.raises(ValueError):
        list(degree_contexts(data, (1, -1)))


@pytest.mark.parametrize("pair, nq, lone", [("disk", 256, 93),
                                            ("rect", 512, 89)])
def test_streamed_scans_equal_whole_scan_kernels_bit_for_bit(
        pair, nq, lone, disk_map, rect_map, monkeypatch):
    amap = disk_map if pair == "disk" else rect_map
    data = boundary_data(amap, nq)
    contexts = list(degree_contexts(data, range(1, 7)))
    expect = {}
    for scan in (data.e_scan, data.f_scan):
        across_e = cauchy_kernel(data.quad_e, scan.z)
        across_f = cauchy_kernel(data.quad_f, scan.z)
        for ctx in contexts:
            # _rn and _inv_rn through one kernel per boundary over the scan
            scale = scan.shift * ctx.n
            rn = across_e(ctx.phi_n_on_e, _ldexp(scan.phi, -scan.shift)
                          ** ctx.n, -scale)
            small = np.abs(rn) < math.ldexp(faber._POLE_EPS, -scale)
            inv = across_f(ctx.inv_rn_on_f, np.where(small, 0.0, 1.0 / rn),
                           scale - ctx.exponent)
            inv[small] = np.inf + 0.0j
            expect[id(scan), ctx.n] = rn, _ldexp(inv, -scale)
    # blocks of the default part, of 100 rows, and of `lone` rows, which
    # leave one row alone at the end (4 nq = 1 mod lone) until it joins
    # the block before it
    for rows in (None, 100, lone):
        if rows is not None:
            monkeypatch.setattr(quadrature, "_CHUNK", rows * nq)
        for scan in (data.e_scan, data.f_scan):
            blocks = [block for block, _ in faber._parts(scan)]
            assert len(blocks) >= 3
            sizes = [block.stop - block.start for block in blocks]
            assert min(sizes) >= 2
            assert rows != lone or sizes[-1] == lone + 1
            for ctx, inv in zip(contexts, _scan_inv_rn(contexts, scan)):
                rn, whole_inv = expect[id(scan), ctx.n]
                assert np.array_equal(faber._rn_at(ctx, scan), rn)
                assert np.array_equal(inv, whole_inv)
        # no part outlives the call
        assert not {"across_e", "across_f"} & (
            set(vars(data.e_scan)) | set(vars(data.f_scan)))


def test_witnesses_and_shifts_hold_no_whole_scan_kernel(rect_map):
    # one kernel over a whole 512-node scan alone takes 16 MiB
    for run in (empirical_ratios, faber_shifts):
        data = boundary_data(rect_map, 512)
        contexts = list(degree_contexts(data, range(1, 6)))
        tracemalloc.start()
        try:
            run(contexts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20


def test_degree_context_builds_no_kernel(disk_map, monkeypatch):
    data = boundary_data(disk_map, 128)
    built = []

    def counted(quad, z):
        built.append(np.size(z))
        return quadrature.cauchy_kernel(quad, z)

    monkeypatch.setattr(faber, "cauchy_kernel", counted)
    monkeypatch.setattr(quadrature, "cauchy_kernel", counted)
    for n in (0, 1, 7, 150):
        degree_context(data, n)
    assert built == []


def test_pointwise_values_beyond_the_float_range_raise():
    # on the F boundary |R_n| and |r_n| are about h^n = 142^n, beyond the
    # float range at n = 145; inside F, 1/r_n = Phi^-n is subnormal there
    # and comes from the scaled density without loss (512 nodes resolve
    # the order-145 zero of 1/r_n inside F)
    far = mobius_two_disks(disk(3.0, 0.5), disk(-3.0, 0.5))
    data = boundary_data(far, 512)
    on_f = far.region_f.boundary_point(np.linspace(0.0, 1.0, 7))
    inside_f = np.array([-2.505, -3.0 - 0.495j])
    ctx = degree_context(data, 140)
    assert np.all(np.isfinite(eval_Rn(ctx, on_f)))
    assert np.all(np.isfinite(eval_rn(ctx, on_f)))
    ctx = degree_context(data, 145)
    for evaluate in (eval_Rn, eval_rn, eval_inv_rn):
        with pytest.raises(UncertifiedError,
                           match="degree 145: R_n overflows at 7 target"):
            evaluate(ctx, on_f)
    inv = eval_inv_rn(ctx, inside_f)
    expect = (1.0 / phi(far, inside_f)) ** 145
    assert np.all((np.abs(expect) < 1e-308) & (np.abs(expect) > 1e-314))
    assert np.all(np.abs(inv - expect) <= 1e-9 * np.abs(expect))
    with pytest.raises(UncertifiedError, match="r_n overflows at 2 target"):
        eval_rn(ctx, inside_f)


def test_non_finite_witness_raises(disk_map):
    ctx = build_context(disk_map, 3, n_quad=128)
    broken = dataclasses.replace(
        ctx, inv_rn_on_f=np.full_like(ctx.inv_rn_on_f, np.inf))
    with (np.errstate(invalid="ignore"),
          pytest.raises(UncertifiedError, match="witness is not finite")):
        empirical_ratio(broken)


def _scan_cases(disk_map, rect_map):
    # trapezoid nodes, where every 4th scan point is a node, and Gauss panels
    return ((disk_map, 256), (rect_map, 512))


def test_shared_data_contexts_equal_fresh_ones(disk_map, rect_map):
    for amap, nq in _scan_cases(disk_map, rect_map):
        data = boundary_data(amap, nq)
        for n in (1, 4, 7):
            shared = degree_context(data, n)
            fresh = build_context(amap, n, n_quad=nq)
            assert shared.data is data
            assert np.array_equal(shared.phi_n_on_e, fresh.phi_n_on_e)
            assert np.array_equal(shared.inv_rn_on_f, fresh.inv_rn_on_f)


def test_scan_kernels_match_the_pointwise_transform(disk_map, rect_map):
    for amap, nq in _scan_cases(disk_map, rect_map):
        ctx = build_context(amap, 6, n_quad=nq)
        for scan, region in ((ctx.data.e_scan, amap.region_e),
                             (ctx.data.f_scan, amap.region_f)):
            z = region.boundary_point(scan.t)
            assert np.array_equal(scan.z, z)
            across_e = cauchy_kernel(ctx.quad_e, scan.z)
            across_f = cauchy_kernel(ctx.quad_f, scan.z)
            phi_n = scan.phi ** 6
            rn = direct_cauchy_boundary(ctx.phi_n_on_e, ctx.quad_e, z, phi_n)
            got = across_e(ctx.phi_n_on_e, phi_n)
            assert np.abs(got - rn).max() <= 1e-13 * np.abs(rn).max()
            inv = direct_cauchy_boundary(ctx.inv_rn_on_f, ctx.quad_f, z,
                                         1.0 / rn)
            got = across_f(ctx.inv_rn_on_f, 1.0 / rn)
            assert np.abs(got - inv).max() <= 1e-13 * np.abs(inv).max()
            # the whole chain feeds the rounding of R_n through the F
            # transform, whose sensitivity to f(z) grows near a node
            whole = direct_inv_rn(ctx, region, scan.t)
            got, = _scan_inv_rn([ctx], scan)
            assert np.abs(got - whole).max() <= 1e-12 * np.abs(whole).max()
            if nq == 256:
                own = across_e if scan is ctx.data.e_scan else across_f
                assert own.hit_rows.size == nq


def test_array_holding_objects_hash_by_identity(disk_map, rect_map, ctx6):
    # a generated __eq__/__hash__ would compare or hash the arrays and fail
    unit = np.exp(2j * np.pi * np.arange(64) / 64)
    fit = aaa_fit(unit, 1.0 / (unit - 2.0), tol=1e-13)
    data = ctx6.data
    for obj in (rect_map, disk_map, rect_map.basis, ctx6, data, data.quad_e,
                data.e_scan, fit):
        hash(obj)
        assert obj == obj
    # equality is identity: an equal-valued copy is another object
    assert dataclasses.replace(disk_map) != disk_map


# -- inequalities on a cornered pair ---------------------------------------

@pytest.fixture(scope="module")
def rect_ctx(rect_map):
    return build_context(rect_map, 6, n_quad=512)


def test_sup_bound_on_the_e_boundary(rect_map, rect_ctx):
    gc = GeometryConstants.from_regions(rect_map.region_e, rect_map.region_f,
                                        rect_map.h)
    t = np.linspace(0.0, 1.0, 1500, endpoint=False)
    z = rect_map.region_e.boundary_point(t)
    sup = np.abs(eval_Rn(rect_ctx, z)).max()
    assert sup <= sup_rn_bound(gc.rot_e, gc.rot_f, rect_map.h, 6) + 1e-8


def test_exterior_deviation_bound_on_a_cloud(rect_map, rect_ctx, rect_pair):
    e, f = rect_pair
    rng = np.random.default_rng(5)
    zz = rng.uniform(-2.5, 2.5, 2500) + 1j * rng.uniform(-2.5, 2.5, 2500)
    for region in (e, f):
        inside, on = contains_many(region, zz)
        zz = zz[~(inside | on)]
    t = np.linspace(0.0, 1.0, 1500, endpoint=False)
    sup_e = np.abs(eval_Rn(rect_ctx, e.boundary_point(t))).max()
    dev = np.abs(eval_Rn(rect_ctx, zz) - phi(rect_map, zz) ** 6)
    assert dev.max() <= 1.0 + sup_e + 1e-6


def test_boundary_evaluators_match_the_classifying_one(rect_pair, rect_ctx):
    e, f = rect_pair
    t = np.linspace(0.0, 1.0, 300, endpoint=False)
    # the unclassified boundary path of empirical_ratio's refinement
    for region, nodes in zip((e, f), (rect_ctx.data.e_nodes,
                                      rect_ctx.data.f_nodes)):
        scan = _scan(rect_ctx.data, region, nodes.shift, t)
        assert np.array_equal(
            _reciprocal(_scan_inv_rn([rect_ctx], scan)[0]),
            eval_rn(rect_ctx, region.boundary_point(t)))


def test_ratio_is_sandwiched_by_the_bounds(rect_map, rect_ctx):
    gc = GeometryConstants.from_regions(rect_map.region_e, rect_map.region_f,
                                        rect_map.h)
    bv = zolotarev_upper(gc, 6)
    ratio = empirical_ratio(rect_ctx)
    assert bv.upper_valid
    assert bv.lower <= ratio <= bv.upper
