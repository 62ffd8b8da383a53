"""Kohn singularity locator and the collision-broadening scan."""

import math
import random
import re
from collections import Counter
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from qplasma.cli import main
from qplasma.errors import NonFiniteResult, WindowContainsPole
from qplasma.kernels import _bgk_denominator, _kohn_roots, branch_points_q
from qplasma.kohn import (
    _dn_dq,
    kohn_roots_dimless,
    kohn_wavenumbers_physical,
    singularity_broadening_scan,
)
from qplasma.sweep import _linspace, _pole_nodes, load_config_file, parse_q_range
from reference import ref_bgk, ref_bgk_dq

ROOT = Path(__file__).resolve().parent.parent


def test_roots_at_x0_multiset():
    roots = kohn_roots_dimless(0.0)
    values = sorted(r.q.real for r in roots.roots)
    assert all(r.q.imag == 0.0 for r in roots.roots)
    assert values == [-2.0, -2.0, 0.0, 2.0]
    degenerate = {r.q.real for r in roots.roots if r.degenerate}
    assert 0.0 in degenerate


def test_physical_roots_keep_the_real_positive_ones_in_branch_order():
    assert kohn_roots_dimless(0.3).physical_roots() == pytest.approx(
        (1.0 + math.sqrt(1.6), 1.0 + math.sqrt(0.4)), rel=1e-15)
    # |x| > 1/2: one locus has complex roots, the other one positive root
    for x in (0.75, -0.75):
        (root,) = kohn_roots_dimless(x).physical_roots()
        assert root == pytest.approx(1.0 + math.sqrt(2.5), rel=1e-15)
        assert root.real == pytest.approx(2.5811388, abs=1e-7)
    # x = 0: the degenerate root 0 is not physical
    assert kohn_roots_dimless(0.0).physical_roots() == (2.0,)


def test_roots_small_x_splitting():
    roots = kohn_roots_dimless(0.005).roots
    q1, q2 = roots[0].q.real, roots[1].q.real
    assert q1 == pytest.approx(1.0 + math.sqrt(1.01), abs=1e-15)
    assert q2 == pytest.approx(1.0 + math.sqrt(0.99), abs=1e-15)
    assert q1 == pytest.approx(2.0049876, abs=1e-7)
    assert q2 == pytest.approx(1.9949874, abs=1e-7)
    assert q1 - q2 == pytest.approx(2 * 0.005, rel=2e-4)


def test_complex_roots_flagged_nonphysical():
    roots = kohn_roots_dimless(0.6).roots
    complex_roots = [r for r in roots if r.q.imag != 0.0]
    assert complex_roots
    assert all(not r.physical for r in complex_roots)
    # 1 - 2x < 0 only affects the sm branches
    assert {r.branch for r in complex_roots} == {(-1, +1), (+1, +1)}


def _kohn_flag_draw(rng):
    """x for the Kohn flags: 0, subnormal and |x| ~ 1e-17, where 1 +- 2x rounds to 1;
    -0x1.a847ccea1e467p-54, where sqrt(1 + 2x) != sqrt(1 - 2x) but 1 plus either rounds
    to 2; +-0.5 and its neighbours, where a discriminant is 0; uniform and log-uniform
    x up to 1e300."""
    r = rng.random()
    if r < 0.2:
        return rng.choice((0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, float.fromhex("-0x1.a847ccea1e467p-54")))
    if r < 0.3:
        h = rng.choice((0.5, -0.5))
        return rng.choice((h, math.nextafter(h, math.inf), math.nextafter(h, -math.inf)))
    if r < 0.6:
        return rng.uniform(-2.0, 2.0)
    return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-320.0, 300.0)


def test_degenerate_and_physical_flags_follow_the_root_values():
    # a root is degenerate where it is 0 or equals another root (values.count),
    # physical where it is real and positive
    rng = random.Random(2029)
    kinds = Counter()
    for _ in range(6000):
        x = _kohn_flag_draw(rng)
        _, roots = _kohn_roots(x)
        values = tuple(root[0] for root in roots)
        for q, _, _, degenerate, physical, _, _ in roots:
            assert degenerate is (q == 0.0 or values.count(q) > 1), (x, values)
            assert physical is (q.imag == 0.0 and q.real > 0.0), (x, values)
            kinds[degenerate, physical] += 1
    assert min(kinds.values()) > 300 and len(kinds) == 4, kinds


def test_residuals_across_x_range():
    for x in np.linspace(-0.4, 0.4, 81):
        for r in kohn_roots_dimless(float(x)).roots:
            assert r.residual < 1e-10


def test_both_algebraic_roots_reported():
    roots = kohn_roots_dimless(0.02).roots
    for r in roots:
        s1, s2 = r.branch
        for q in (r.q, r.q_alt):
            assert abs(q * q + 2 * s1 * q + 2 * s2 * 0.02) < 1e-12
        assert r.principal


def test_splitting_law():
    for x in (0.005, 0.01, 0.03, 0.05):
        roots = kohn_roots_dimless(x).roots
        ratio = (roots[0].q.real - roots[1].q.real) / (2 * x)
        assert 0.99 <= ratio <= 1.01


def test_physical_wavenumbers_at_omega0():
    kF = 1.2e10
    k1, k2, k3, k4 = kohn_wavenumbers_physical(0.0, kF, 1.5e6)
    assert k1 == pytest.approx(2 * kF, rel=1e-15)
    assert k3 == pytest.approx(-2 * kF, rel=1e-15)
    assert k4 == pytest.approx(-2 * kF, rel=1e-15)


def test_physical_dimensionless_consistency():
    kF, vF = 1.2e10, 1.5e6
    x = 0.01
    omega = x * kF * vF
    ks = kohn_wavenumbers_physical(omega, kF, vF)
    qs = [r.q for r in kohn_roots_dimless(x).roots]
    for k, q in zip(ks, qs):
        assert abs(k / kF - q) <= 1e-12 * abs(q)


def test_physical_fermi_energy_form():
    # k1 = (pF/hbar)(1 + sqrt(1 + hbar*omega/EF)) rewrites the same root
    kF, vF = 9.0e9, 1.1e6
    omega = 0.004 * kF * vF
    hbar_omega_over_EF = 2.0 * omega / (kF * vF)  # EF = m vF^2/2, kF = m vF/hbar
    k1 = kF * (1.0 + math.sqrt(1.0 + hbar_omega_over_EF))
    assert k1 == pytest.approx(kohn_wavenumbers_physical(omega, kF, vF)[0].real, rel=1e-14)


def test_non_finite_input_raises():
    nan, inf = float("nan"), float("inf")
    for x in (nan, inf, -inf):
        with pytest.raises(NonFiniteResult):
            kohn_roots_dimless(x)
    with pytest.raises(NonFiniteResult):
        kohn_wavenumbers_physical(nan, 1e10, 1e6)
    for kF, vF in ((inf, 1e6), (nan, 1e6), (1e10, inf), (1e10, nan)):
        with pytest.raises(ValueError):
            kohn_wavenumbers_physical(1e14, kF, vF)


def test_overflowing_roots_raise():
    # 1 +- 2x overflows from |x| ~ 8.99e307 on; just below, all roots are finite
    for x in (1e308, -1e308, 8.99e307, 1.7976931348623157e308):
        with pytest.raises(NonFiniteResult):
            kohn_roots_dimless(x)
    for r in kohn_roots_dimless(8.98e307).roots:
        assert all(math.isfinite(v) for v in (r.q.real, r.q.imag, r.q_alt.real, r.q_alt.imag, r.residual))
    # kF * q overflows although x is ordinary
    with pytest.raises(NonFiniteResult):
        kohn_wavenumbers_physical(1.0, 1e308, 1.0)


# ------------------------------------------------------------------- scan

def test_broadening_scan_monotone_in_y():
    rows = singularity_broadening_scan(0.0, 1.0, [0.005, 0.01], (1.8, 2.2))
    assert rows[0].max_abs_deps_dq > rows[1].max_abs_deps_dq


def test_broadening_scan_large_y_flat():
    rows = singularity_broadening_scan(0.0, 1.0, [0.01, 10.0], (1.8, 2.2))
    assert rows[1].max_abs_deps_dq < rows[0].max_abs_deps_dq
    assert rows[1].max_abs_deps_dq < 0.1


def test_broadening_scan_skips_singular_node():
    # 2001 nodes on [1.8, 2.2] put a node exactly on the q=2 branch point
    rows = singularity_broadening_scan(0.0, 1.0, [0.0], (1.8, 2.2))
    assert rows[0].skipped_q
    assert any(abs(q - 2.0) < 1e-9 for q in rows[0].skipped_q)
    assert math.isfinite(rows[0].max_abs_deps_dq)


def test_broadening_scan_y0_dominates():
    rows = singularity_broadening_scan(0.0, 1.0, [0.0, 0.005, 0.01], (1.8, 2.2))
    slopes = [r.max_abs_deps_dq for r in rows]
    assert slopes[0] > slopes[1] > slopes[2]


@pytest.mark.parametrize("n_points", [5.9, 3.0, math.inf, math.nan, "11", 2, -1])
def test_broadening_scan_rejects_a_non_integer_point_count(n_points):
    # before: 5.9 ran 5 nodes, inf raised OverflowError, nan a conversion error
    with pytest.raises(ValueError, match="^n_points must be an integer >= 3"):
        singularity_broadening_scan(0.0, 1.0, [0.005], (1.5, 2.5), n_points)


@pytest.mark.parametrize("x, xp, ys, window", [
    (math.nan, 1.0, (0.0, 0.005), (1.5, 2.5)),
    (math.inf, 1.0, (0.005,), (1.5, 2.5)),
    (0.0, math.nan, (0.005,), (1.5, 2.5)),
    (0.0, math.inf, (0.005,), (1.5, 2.5)),
    (0.0, 1.0, (0.005, math.inf), (1.5, 2.5)),
    (0.0, 1.0, (math.nan,), (1.5, 2.5)),
    (0.0, 1.0, (0.005,), (1.5, math.inf)),
    (0.0, 1.0, (0.005,), (-math.inf, 2.5)),
], ids=["x-nan", "x-inf", "xp-nan", "xp-inf", "y-inf", "y-nan", "window-inf", "window-minus-inf"])
def test_broadening_scan_rejects_non_finite_input(x, xp, ys, window):
    # before: every node skipped and a slope of 0.0 returned, with no error
    with pytest.raises(ValueError, match="must be finite"):
        singularity_broadening_scan(x, xp, ys, window, 201)


def test_broadening_scan_overflowing_slope_raises_non_finite():
    # eps is finite at every node, but with xp = 5e153 and a step of 1e-9 the
    # central difference overflows; the scan returned max_abs_deps_dq = inf
    with pytest.raises(NonFiniteResult):
        singularity_broadening_scan(0.3, 5e153, [0.0], (1.4 + 2e-9, 1.4 + 6e-9), 5)


def test_broadening_scan_skips_nodes_near_a_branch_point_outside_the_window():
    # all 5 nodes lie within 1e-9 of q = 2, which lies outside the window;
    # the node rule must not depend on the grid step (1e-10 here), so every
    # node is a gap and the row, left with no central difference, raises
    assert _pole_nodes(_linspace(2 + 2e-10, 2 + 6e-10, 5), branch_points_q(0.0)) == [0, 1, 2, 3, 4]
    with pytest.raises(WindowContainsPole, match=r"grid node q=2\.0000000002 "):
        singularity_broadening_scan(0.0, 1.0, [0.0], (2 + 2e-10, 2 + 6e-10), 5)


@pytest.mark.parametrize("window, n_points, step", [
    ((-1e308, 1e308), 5, "inf"),  # the span overflows
    ((1e-323, 3e-323), 7, "5e-324"),  # a subnormal step, which rounded nodes past q_max
    ((0.0, 1e-320), 4916, "0.0"),  # a step that underflows to 0
])
def test_broadening_scan_y0_row_needs_a_normal_grid_step(window, n_points, step):
    # a y = 0 row builds its grid only on a normal step, and raises where it
    # stands in the y list: a negative y before it still raises first
    text = rf"^the grid step \(q_max - q_min\)/\(n_points - 1\) of {re.escape(repr(window))} = {step} leaves"
    with pytest.raises(NonFiniteResult, match=text):
        singularity_broadening_scan(0.0, 1.0, [0.01, 0.0], window, n_points)
    with pytest.raises(ValueError, match="^y must be >= 0"):
        singularity_broadening_scan(0.0, 1.0, [-0.01, 0.0], window, n_points)


def test_broadening_scan_y_positive_row_on_an_overflowing_window():
    # a y > 0 row samples its own 33 points and never builds the y = 0 grid,
    # so a window whose span overflows keeps its value, bit for bit
    (row,) = singularity_broadening_scan(0.0, 1.0, [0.01], (-1e308, 1e308))
    assert row.max_abs_deps_dq == 3.2756137736628874 and row.skipped_q == ()


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1e308, -1e308, 8.99e307])
def test_branch_points_that_overflow_raise(x):
    # before: (-inf, inf, inf, -inf) at x = 1e308 and four nans at x = nan
    text = f"^the branch points at x={re.escape(repr(x))} overflow or are undefined$"
    with pytest.raises(NonFiniteResult, match=text):
        branch_points_q(x)
    assert all(map(math.isfinite, branch_points_q(math.copysign(8.98e307, x))))


def test_broadening_scan_raises_where_the_branch_points_overflow():
    for ys in ([0.0], [0.01]):
        with pytest.raises(NonFiniteResult, match=r"^the branch points at x=1e\+308 overflow"):
            singularity_broadening_scan(1e308, 1.0, ys, (1.5, 2.5), 5)


@pytest.mark.parametrize("args, error", [
    ((0.0, 1e200, [0.0], (1.5, 2.5), 11), NonFiniteResult),  # 1.5 xp^2 overflows at each node off q = 2
    ((0.3, 1.0, [0.0], (1e200, 2e200), 5), NonFiniteResult),  # N overflows at each node
    ((0.0, 1.0, [0.0], (2 - 1e-10, 2 + 1e-10), 3), WindowContainsPole),  # each node within 1e-9 of q = 2
])
def test_broadening_scan_row_without_a_central_difference_raises(args, error):
    # a y = 0 row whose inner nodes each have a gap beside them measures no
    # slope, so it raises the first error of its nodes, or WindowContainsPole
    # if its gaps are pole nodes, rather than report 0.0
    with pytest.raises(error):
        singularity_broadening_scan(*args)
    # an inner node whose two neighbours are evaluated is enough for a value
    (row,) = singularity_broadening_scan(0.0, 1.0, [0.0], (2 - 2e-9, 2 + 2e-9), 3)
    assert row.skipped_q == (2.0,) and row.max_abs_deps_dq > 0.0


def test_broadening_scan_grid_step_of_zero_raises_non_finite():
    # 40 nodes over two ulps: the nodes repeat and the step is 0, and a bare
    # ZeroDivisionError escaped from the first central difference
    window = (0.0019325585203012372, 0.0019325585203012374)
    with pytest.raises(NonFiniteResult, match="grid step"):
        singularity_broadening_scan(280.9517344579988, 0.07172534008470595, [0.0], window, 40)
    (row,) = singularity_broadening_scan(280.9517344579988, 0.07172534008470595, [0.003], window, 40)
    assert math.isfinite(row.max_abs_deps_dq) and row.skipped_q == ()


def test_broadening_scan_row_whose_slope_overflows_raises():
    # 1.5 xp^2 overflows: every node of the grid failed, and the row read
    # max_abs_deps_dq = 0.0 with all 11 nodes in skipped_q
    with pytest.raises(NonFiniteResult, match="square of xp"):
        singularity_broadening_scan(0.0, 1e200, [0.01], (1.5, 2.5), 11)
    # 1.5 xp^2 = 1.5e308 is finite, the slope at the kink is not
    with pytest.raises(NonFiniteResult, match="d eps/d q"):
        singularity_broadening_scan(0.0, 1e154, [0.01], (1.5, 2.5), 11)


@pytest.mark.parametrize("x, xp, ys, window", [
    (1751.517185655992, 25.40381425564319, [0.006045294939366307, 0.14710324977137182], (-2.0, 5.0)),
    (0.0, 1.0, [0.1, 3.0], (-1e-6, 2e-6)),
    (0.3, 1.0, [0.1], (1e-300, 1e-299)),
])
def test_broadening_scan_slope_where_the_closed_form_terms_cancel(x, xp, ys, window):
    # dN/dq ~ -q/(3 (z^2 - 1)^2) grows with |q| here, so the maximum is at the
    # far edge; the closed form's terms cancel at small q/(z^2 - 1), and its
    # rounding error grows as q -> 0, so a search on it found that error
    # (1.2e36 in the first window, 1.8e300 in the last)
    for row in singularity_broadening_scan(x, xp, ys, window, 29):
        ref = abs(ref_bgk_dq(x, row.y, window[1], xp))
        assert abs(row.max_abs_deps_dq - ref) <= 1e-10 * ref, (row, ref)


def _slope(x, y, q, xp):
    """d eps/d q as the scan's y > 0 rows take it."""
    z = complex(x, y)
    return 1.5 * xp ** 2 / _bgk_denominator(z) * _dn_dq(z, q)


def test_slope_matches_mpmath_diff_of_the_reference():
    # seeded points of the oracle box, a quarter at x = 0
    rng = random.Random(20261020)
    for _ in range(150):
        x = 0.0 if rng.random() < 0.25 else rng.uniform(-2.0, 2.0)
        y, q, xp = 10.0 ** rng.uniform(-3.0, 1.0), rng.uniform(0.05, 5.0), rng.uniform(0.1, 10.0)
        with mp.workdps(40):
            ref = mp.diff(lambda t: ref_bgk(x, y, t, xp), mp.mpf(q), h=mp.mpf("1e-15"))
            assert abs(ref_bgk_dq(x, y, q, xp) - ref) <= mp.mpf("1e-15") * abs(ref)
        assert abs(mp.mpc(_slope(x, y, q, xp)) - ref) <= 1e-10 * abs(ref), (x, y, q, xp)


def _dense_max(x, y, xp, lo, hi, nodes=501):
    """max |d eps/d q| over [lo, hi] from ref_bgk_dq: the best of a uniform
    grid of ``nodes`` (a spacing no wider than the peaks at y >= 0.002), then
    golden section over its neighbours down to a 1e-12 bracket, at 40 digits."""
    f = lambda q: abs(ref_bgk_dq(x, y, q, xp))  # noqa: E731
    with mp.workdps(40):
        qs = mp.linspace(mp.mpf(lo), mp.mpf(hi), nodes)
        values = [f(q) for q in qs]
        i = max(range(nodes), key=values.__getitem__)
        a, b = qs[max(i - 1, 0)], qs[min(i + 1, nodes - 1)]
        ratio = (mp.sqrt(5) - 1) / 2
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        fc, fd = f(c), f(d)
        while b - a > mp.mpf("1e-12"):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - ratio * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + ratio * (b - a)
                fd = f(d)
        return max(values[i], fc, fd)


@pytest.mark.parametrize("name", ["fig1.cfg", "fig2.cfg", "fig3.cfg"])
def test_broadening_scan_is_the_dense_maximum_on_the_figure_windows(name):
    values = load_config_file(ROOT / "configs" / name)
    x, xp = float(values["x"]), float(values["xp"])
    ys = [float(t) for t in values["y"].split(",") if float(t) > 0.0]
    window = parse_q_range(values["q"])[:2]
    for row in singularity_broadening_scan(x, xp, ys, window):
        ref = _dense_max(x, row.y, xp, *window)
        assert abs(row.max_abs_deps_dq - ref) <= 1e-12 * ref, (name, row, ref)


def test_broadening_scan_finds_the_higher_of_two_close_kinks():
    # at small x the kinks 2(1 - x) and 2(1 + x) often share one interval of
    # the 32-interval grid; the search must reach the higher peak, which a
    # dense grid of the same derivative, 1001 nodes over b +- 5y around each
    # branch point b, bounds from below (each coarse-grid-only search missed
    # it on 36 of 300 such draws, by up to 3%)
    rng = random.Random(3)
    for _ in range(60):
        x, y = rng.uniform(-0.05, 0.05), 10.0 ** rng.uniform(-4.0, -2.0)
        lo, hi = rng.uniform(1.0, 1.9), rng.uniform(2.1, 3.0)
        (row,) = singularity_broadening_scan(x, 1.0, [y], (lo, hi))
        dense = [b + (i / 100.0 - 5.0) * y for b in (2.0 * (1.0 - x), 2.0 * (1.0 + x)) for i in range(1001)]
        best = max(abs(_slope(x, y, q, 1.0)) for q in dense if lo <= q <= hi)
        assert row.max_abs_deps_dq >= best * (1.0 - 1e-12), (x, y, lo, hi, row, best)


# (q, q_alt, degenerate, physical, principal, residual.hex()) of each root in
# branch order (-,-), (-,+), (+,-), (+,+), as the list-and-loop form of
# kohn_roots_dimless computed them; q and q_alt as repr, so signed zeros count.
_EDGE_ROOTS = [
    (0.0, [
        ('(2+0j)', '0j', False, True, True, '0x0.0p+0'),
        ('0j', '(2+0j)', True, False, False, '0x0.0p+0'),
        ('(-2+0j)', '0j', True, False, True, '0x0.0p+0'),
        ('(-2+0j)', '0j', True, False, True, '0x0.0p+0'),
    ]),
    (-0.0, [
        ('(2+0j)', '0j', False, True, True, '0x0.0p+0'),
        ('0j', '(2+0j)', True, False, False, '0x0.0p+0'),
        ('(-2+0j)', '0j', True, False, True, '0x0.0p+0'),
        ('(-2+0j)', '0j', True, False, True, '0x0.0p+0'),
    ]),
    # 1 +- 2x rounds to 1, so all four roots coincide with their partners
    (5e-324, [
        ('(2+0j)', '0j', True, True, True, '0x0.0000000000002p-1022'),
        ('(2+0j)', '0j', True, True, True, '0x0.0000000000002p-1022'),
        ('(-2+0j)', '0j', True, False, True, '0x0.0000000000002p-1022'),
        ('(-2+0j)', '0j', True, False, True, '0x0.0000000000002p-1022'),
    ]),
    (1e-17, [
        ('(2+0j)', '0j', True, True, True, '0x1.70ef54646d497p-56'),
        ('(2+0j)', '0j', True, True, True, '0x1.70ef54646d497p-56'),
        ('(-2+0j)', '0j', True, False, True, '0x1.70ef54646d497p-56'),
        ('(-2+0j)', '0j', True, False, True, '0x1.70ef54646d497p-56'),
    ]),
    (0.5, [
        ('(2.414213562373095+0j)', '(-0.41421356237309515+0j)', False, True, True, '0x0.0p+0'),
        ('(1+0j)', '(1+0j)', False, True, True, '0x0.0p+0'),
        ('(-2.414213562373095+0j)', '(0.41421356237309515+0j)', False, False, True, '0x0.0p+0'),
        ('(-1+0j)', '(-1+0j)', False, False, True, '0x0.0p+0'),
    ]),
    (-0.5, [
        ('(1+0j)', '(1+0j)', False, True, True, '0x0.0p+0'),
        ('(2.414213562373095+0j)', '(-0.41421356237309515+0j)', False, True, True, '0x0.0p+0'),
        ('(-1+0j)', '(-1+0j)', False, False, True, '0x0.0p+0'),
        ('(-2.414213562373095+0j)', '(0.41421356237309515+0j)', False, False, True, '0x0.0p+0'),
    ]),
    (2.0, [
        ('(3.23606797749979+0j)', '(-1.2360679774997898+0j)', False, True, True, '0x0.0p+0'),
        ('(1+1.7320508075688772j)', '(1-1.7320508075688772j)', False, False, True, '0x1.0000000000000p-51'),
        ('(-3.23606797749979+0j)', '(1.2360679774997898+0j)', False, False, True, '0x0.0p+0'),
        ('(-1-1.7320508075688772j)', '(-1+1.7320508075688772j)', False, False, True, '0x1.0000000000000p-51'),
    ]),
    (-2.0, [
        ('(1+1.7320508075688772j)', '(1-1.7320508075688772j)', False, False, True, '0x1.0000000000000p-51'),
        ('(3.23606797749979+0j)', '(-1.2360679774997898+0j)', False, True, True, '0x0.0p+0'),
        ('(-1-1.7320508075688772j)', '(-1+1.7320508075688772j)', False, False, True, '0x1.0000000000000p-51'),
        ('(-3.23606797749979+0j)', '(1.2360679774997898+0j)', False, False, True, '0x0.0p+0'),
    ]),
    (1e300, [
        ('(1.4142135623730951e+150+0j)', '(-1.4142135623730951e+150+0j)', False, True, True, '0x1.0000000000000p+945'),
        ('(1+1.4142135623730951e+150j)', '(1-1.4142135623730951e+150j)', False, False, True, '0x1.0000000000000p+945'),
        ('(-1.4142135623730951e+150+0j)', '(1.4142135623730951e+150+0j)', False, False, True, '0x1.0000000000000p+945'),
        ('(-1-1.4142135623730951e+150j)', '(-1+1.4142135623730951e+150j)', False, False, True, '0x1.0000000000000p+945'),
    ]),
]


@pytest.mark.parametrize("x, expected", _EDGE_ROOTS, ids=[repr(x) for x, _ in _EDGE_ROOTS])
def test_roots_at_edge_x_are_pinned(x, expected):
    roots = kohn_roots_dimless(x)
    assert repr(roots.x) == repr(x)
    assert [r.branch for r in roots.roots] == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert [(repr(r.q), repr(r.q_alt), r.degenerate, r.physical, r.principal, r.residual.hex())
            for r in roots.roots] == expected


# `qplasma kohn` stdout, byte for byte, as the tree before the CLI read plain root
# tuples printed it: --x at the edge x of _EDGE_ROOTS, and one physical triple
_KOHN_STDOUT = [
    (['--x', '0.0'], (
        'Kohn singularities at x = 0  (q^2 +- 2q +- 2x = 0)\n'
        'branch                              q flags                              residual\n'
        '(-,-)                               2 -                                  0.00e+00\n'
        '(-,+)                               0 degenerate,non-physical,alt-root   0.00e+00\n'
        '(+,-)                              -2 degenerate,non-physical            0.00e+00\n'
        '(+,+)                              -2 degenerate,non-physical            0.00e+00\n'
    )),
    (['--x', '-0.0'], (
        'Kohn singularities at x = -0  (q^2 +- 2q +- 2x = 0)\n'
        'branch                              q flags                              residual\n'
        '(-,-)                               2 -                                  0.00e+00\n'
        '(-,+)                               0 degenerate,non-physical,alt-root   0.00e+00\n'
        '(+,-)                              -2 degenerate,non-physical            0.00e+00\n'
        '(+,+)                              -2 degenerate,non-physical            0.00e+00\n'
    )),
    (['--x', '5e-324'], (
        'Kohn singularities at x = 4.94066e-324  (q^2 +- 2q +- 2x = 0)\n'
        'branch                              q flags                              residual\n'
        '(-,-)                               2 degenerate                        9.88e-324\n'
        '(-,+)                               2 degenerate                        9.88e-324\n'
        '(+,-)                              -2 degenerate,non-physical           9.88e-324\n'
        '(+,+)                              -2 degenerate,non-physical           9.88e-324\n'
    )),
    (['--x', '1e-17'], (
        'Kohn singularities at x = 1e-17  (q^2 +- 2q +- 2x = 0)\n'
        'branch                              q flags                              residual\n'
        '(-,-)                               2 degenerate                         2.00e-17\n'
        '(-,+)                               2 degenerate                         2.00e-17\n'
        '(+,-)                              -2 degenerate,non-physical            2.00e-17\n'
        '(+,+)                              -2 degenerate,non-physical            2.00e-17\n'
    )),
    (['--x', '0.5'], (
        'Kohn singularities at x = 0.5  (q^2 +- 2q +- 2x = 0)\n'
        'branch                              q flags                              residual\n'
        '(-,-)                   2.41421356237 -                                  0.00e+00\n'
        '(-,+)                               1 -                                  0.00e+00\n'
        '(+,-)                  -2.41421356237 non-physical                       0.00e+00\n'
        '(+,+)                              -1 non-physical                       0.00e+00\n'
    )),
    (['--x', '-0.5'], (
        'Kohn singularities at x = -0.5  (q^2 +- 2q +- 2x = 0)\n'
        'branch                              q flags                              residual\n'
        '(-,-)                               1 -                                  0.00e+00\n'
        '(-,+)                   2.41421356237 -                                  0.00e+00\n'
        '(+,-)                              -1 non-physical                       0.00e+00\n'
        '(+,+)                  -2.41421356237 non-physical                       0.00e+00\n'
    )),
    (['--x', '2.0'], (
        'Kohn singularities at x = 2  (q^2 +- 2q +- 2x = 0)\n'
        'branch                              q flags                              residual\n'
        '(-,-)                    3.2360679775 -                                  0.00e+00\n'
        '(-,+)                1+1.73205080757j non-physical                       4.44e-16\n'
        '(+,-)                   -3.2360679775 non-physical                       0.00e+00\n'
        '(+,+)               -1-1.73205080757j non-physical                       4.44e-16\n'
    )),
    (['--x', '-2.0'], (
        'Kohn singularities at x = -2  (q^2 +- 2q +- 2x = 0)\n'
        'branch                              q flags                              residual\n'
        '(-,-)                1+1.73205080757j non-physical                       4.44e-16\n'
        '(-,+)                    3.2360679775 -                                  0.00e+00\n'
        '(+,-)               -1-1.73205080757j non-physical                       4.44e-16\n'
        '(+,+)                   -3.2360679775 non-physical                       0.00e+00\n'
    )),
    (['--x', '1e300'], (
        'Kohn singularities at x = 1e+300  (q^2 +- 2q +- 2x = 0)\n'
        'branch                              q flags                              residual\n'
        '(-,-)              1.41421356237e+150 -                                 2.97e+284\n'
        '(-,+)           1+1.41421356237e+150j non-physical                      2.97e+284\n'
        '(+,-)             -1.41421356237e+150 non-physical                      2.97e+284\n'
        '(+,+)          -1-1.41421356237e+150j non-physical                      2.97e+284\n'
    )),
    (['--omega', '1e14', '--kf', '1e10', '--vf', '1e6'], (
        'x = omega/(kF vF) = 0.01\n'
        'k1 = 20099504938.4 1/m  (k1/kF = 2.00995049384)\n'
        'k2 = 19899494936.6 1/m  (k2/kF = 1.98994949366)\n'
        'k3 = -20099504938.4 1/m  (k3/kF = -2.00995049384)\n'
        'k4 = -19899494936.6 1/m  (k4/kF = -1.98994949366)\n'
    )),
]


@pytest.mark.parametrize("argv, text", _KOHN_STDOUT, ids=[" ".join(argv) for argv, _ in _KOHN_STDOUT])
def test_kohn_command_stdout_is_pinned(argv, text, capsys):
    assert main(["kohn", *argv]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (text, "")
