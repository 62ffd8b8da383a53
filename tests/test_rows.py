"""A sweep row gives, node for node, what the scalar model gives at that node:
the same value to the last bit (signed zeros included) or the same error
class and text; y < 0 or xp < 0 raises the scalar's ValueError out of the row."""

import cmath
import importlib.util
import math
import random
import sys
from collections import Counter
from pathlib import Path

import mpmath as mp
import pytest
from reference import MP_DIGITS, rel_err, ref_numerator
from reference import _g as ref_g, _n as ref_n, _z as ref_z

from qplasma.dielectric import (
    DimensionlessPointA,
    branch_points_q,
    epsilon_collisional_a,
    epsilon_lindhard,
    epsilon_mermin,
)
from qplasma import kernels
from qplasma.errors import DenominatorVanishes, NonFiniteResult, QplasmaError, WindowContainsPole
from qplasma.kernels import _Q0_POINT, _numerator, _one, g_a
from qplasma.kohn import singularity_broadening_scan
from qplasma.sweep import (
    MODELS,
    SweepConfig,
    _grid,
    _linspace,
    _pole_nodes,
    _singular_q,
    run_sweep,
)

ROOT = Path(__file__).resolve().parent.parent

SCALAR = {
    "bgk": lambda x, y, q, xp: epsilon_collisional_a(DimensionlessPointA(x, y, q, xp)).epsilon,
    "mermin": lambda x, y, q, xp: epsilon_mermin(DimensionlessPointA(x, y, q, xp)).epsilon,
    "lindhard": lambda x, y, q, xp: epsilon_lindhard(x, q, xp).epsilon,
}


def _outcome(value):
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    return value.real.hex(), value.imag.hex()


def _scalar(model, x, y, q, xp):
    try:
        return _outcome(SCALAR[model](x, y, q, xp))
    except (QplasmaError, ValueError) as exc:
        return _outcome(exc)


def _row(model, x, y, qs, xp):
    try:
        return [_outcome(v) for v in MODELS[model](x, (y,), qs, xp)[0]]
    except ValueError as exc:
        return [_outcome(exc)] * len(qs)


def _branch_points(x):
    """The four q = +-2(1 -+ x) of branch_points_q, computed as it does, but
    left inf or nan where it raises (|x| >~ 9e307, x nan): adversarial q."""
    return 2.0 * (1.0 - x), 2.0 * (1.0 + x), -2.0 * (1.0 - x), -2.0 * (1.0 + x)


def _check(model, x, y, qs, xp):
    assert _row(model, x, y, qs, xp) == [_scalar(model, x, y, q, xp) for q in qs], (model, x, y, qs, xp)


def _row_draws(seed, n):
    spec = importlib.util.spec_from_file_location("compare_builds", ROOT / "scripts" / "compare_builds.py")
    cb = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cb)
    for name, (x, y, xp, *qs) in cb.draws(seed, n, cb.row_table()):
        yield name[len("row_"):], x, y, qs, xp


@pytest.mark.parametrize("seed", [21, 22])
def test_seeded_adversarial_rows_match_the_scalar_path(seed):
    rng = random.Random(seed)
    for model, x, y, qs, xp in _row_draws(seed, 1500):
        _check(model, x, y, qs, xp)
        # again with x, y, xp or one q an int beyond double range
        huge, k = rng.choice((10 ** 400, -10 ** 400)), rng.randrange(len(qs) + 3)
        if k < 3:
            args = [x, y, xp]
            args[k] = huge
            _check(model, args[0], args[1], qs, args[2])
        else:
            _check(model, x, y, qs[:k - 3] + [huge] + qs[k - 2:], xp)


_SIGNED = (0.0, -0.0)


@pytest.mark.parametrize("model", list(MODELS))
def test_signed_zero_rows_and_branch_points(model):
    for x in _SIGNED + (0.25, -0.5, math.nan):
        for y in _SIGNED + (0.01, math.inf):
            qs = [0.0, -0.0, 2.0, -2.0, 1.5, *_branch_points(x), math.nan, 1e308]
            for xp in (0.0, 1.0, 1e200, math.inf):
                _check(model, x, y, qs, xp)


@pytest.mark.parametrize("model, x, y", [
    ("bgk", 0.3, 0.1), ("mermin", 0.3, 0.1), ("lindhard", 0.3, 0.0),
], ids=["bgk", "mermin", "lindhard"])
def test_q0_node_names_the_classical_limit(model, x, y):
    assert _row(model, x, y, [0.0, 1.0], 1.0)[0] == ("DegenerateQ", "q = 0: use epsilon_classical_limit")
    assert _row(model, x, y, [-0.0], 1.0) == [_scalar(model, x, y, -0.0, 1.0)]
    # a row whose z is not finite still reports q = 0 first
    bad = (x, math.nan) if model != "lindhard" else (math.inf, y)
    assert [c for c, _ in _row(model, *bad, [0.0, 1.0], 1.0)] == ["DegenerateQ", "NonFiniteResult"]


def test_mermin_error_precedence_per_route():
    # x = 0 is static and squares xp before N0, whose kernel sits on its branch
    # point at q = 2; the other routes evaluate N first, then square xp
    static = _row("mermin", 0.0, 0.1, [2.0, 1.0], 1e200)
    assert [c for c, _ in static] == ["NonFiniteResult", "NonFiniteResult"]
    assert "square of xp" in static[0][1]
    assert _row("mermin", 0.0, 0.1, [2.0], 1.0)[0][0] == "PoleAtBranchPoint"
    # y = 0: N hits its branch point at x + q/2 = 1; y > 0: N0 hits it at q = 2
    assert [c for c, _ in _row("mermin", 0.5, 0.0, [1.0, 2.5], 1e200)] == ["PoleAtBranchPoint", "NonFiniteResult"]
    assert [c for c, _ in _row("mermin", 0.5, 0.1, [2.0, 2.5], 1e200)] == ["PoleAtBranchPoint", "NonFiniteResult"]
    assert [c for c, _ in _row("bgk", 0.5, 0.0, [1.0, 2.5], 1e200)] == ["PoleAtBranchPoint", "NonFiniteResult"]
    assert [c for c, _ in _row("lindhard", 0.5, 0.0, [1.0, 2.5], 1e200)] == ["PoleAtBranchPoint", "NonFiniteResult"]


@pytest.mark.parametrize("model, y, xp, text", [
    ("bgk", -0.1, 1.0, "y must be >= 0, got -0.1"),
    ("mermin", -0.1, -1.0, "y must be >= 0, got -0.1"),
    ("bgk", 0.1, -1.0, "xp must be >= 0, got -1.0"),
    ("mermin", 0.0, -1.0, "xp must be >= 0, got -1.0"),
    ("lindhard", 0.0, -1.0, "xp must be >= 0, got -1.0"),
    # an int beyond double range: its sign is checked before it is converted
    pytest.param("bgk", -10 ** 400, 1.0, f"y must be >= 0, got {-10 ** 400}", id="bgk-huge-int-y"),
    pytest.param("mermin", -10 ** 400, 1.0, f"y must be >= 0, got {-10 ** 400}", id="mermin-huge-int-y"),
    pytest.param("bgk", 0.1, -10 ** 400, f"xp must be >= 0, got {-10 ** 400}", id="bgk-huge-int-xp"),
    pytest.param("lindhard", 0.0, -10 ** 400, f"xp must be >= 0, got {-10 ** 400}", id="lindhard-huge-int-xp"),
])
def test_negative_y_or_xp_raises_out_of_the_row(model, y, xp, text):
    with pytest.raises(ValueError, match=f"^{text}$"):
        MODELS[model](0.3, (y,), [0.0, 1.0], xp)
    _check(model, 0.3, y, [0.0, 1.0], xp)


@pytest.mark.parametrize("y", [10 ** 400, -10 ** 400, -1.0, math.nan], ids=["huge-int", "-huge-int", "-1", "nan"])
def test_lindhard_rows_ignore_y(y):
    # the scalar epsilon_lindhard takes no y, so its row neither checks nor converts it
    assert _row("lindhard", 0.3, y, [1.0, 1.5], 1.0) == [_scalar("lindhard", 0.3, y, q, 1.0) for q in (1.0, 1.5)]


@pytest.mark.parametrize("model, x, ys, z", [
    ("mermin", 0.0, (0.0, 0.01, 0.02), 0j),
    ("mermin", 0.3, (0.01, 0.0, 0.02, 3.0), 0j),
    ("lindhard", 0.3, (0.0, -0.0), 0.3 + 0j),
])
def test_y_independent_rows_are_evaluated_once(monkeypatch, model, x, ys, z):
    # the Mermin x = 0 row, the Lindhard row and Mermin's N0(q) = N(0, q) at
    # x != 0 are the same for every y: N(z, q) is evaluated once per q, counted
    # in nodes over the calls of the row kernel
    nodes = Counter()
    evaluate = kernels._numerator

    def counting(at, qs, what):
        nodes[at] += len(qs)
        return evaluate(at, qs, what)

    monkeypatch.setattr(kernels, "_numerator", counting)
    qs = [0.25 * k for k in range(1, 12)]
    rows = MODELS[model](x, ys, qs, 1.0)
    assert nodes[z] == len(qs)
    assert [[_outcome(v) for v in row] for row in rows] == [_row(model, x, y, qs, 1.0) for y in ys]


@pytest.mark.parametrize("q, xp", [(1, 1), (1.0, 1.0), (-1, 2.0), (0.5, 1)])
def test_mermin_denominator_text_names_the_point(q, xp):
    # |x + i y N/N0| ~ 1e-40: the row writes the text from plain values,
    # with an int q printed as the float the scalar's point stores
    x = y = 1e-40
    (node,) = MODELS["mermin"](x, (y,), [q], xp)[0]
    assert isinstance(node, DenominatorVanishes)
    assert str(node) == f"Mermin denominator vanished at x={x!r}, y={y!r}, q={float(q)!r}, xp={float(xp)!r}"
    assert _row("mermin", x, y, [q], xp) == [_scalar("mermin", x, y, q, xp)]


@pytest.mark.parametrize("model, x, y", [
    ("bgk", 0.3, 0.1), ("mermin", 0.3, 0.1), ("mermin", 0.3, 0.0), ("mermin", 0.0, 0.1), ("lindhard", 0.3, 0.0),
])
def test_int_xp_whose_coupling_overflows_raises_as_the_scalar(model, x, y):
    # an int's exact square does not overflow, its float does: the scalar
    # raises NonFiniteResult, as for the float 1e200, and so does the node
    xp = 10 ** 200
    with pytest.raises(NonFiniteResult, match="square of xp"):
        SCALAR[model](x, y, 1.0, xp)
    assert _row(model, x, y, [1.0], xp)[0][0] == "NonFiniteResult"
    _check(model, x, y, [0.0, -0.0, 1.0], xp)


# --- the hoisted parts of the sweep, against the rules they replace ------

def _adversarial_qs(rng, poles):
    """Unsorted q lists with nan, +-0, repeated values and nodes 1e-10 apart
    around a pole, so that several sit within its 1e-9."""
    special = (0.0, -0.0, math.nan, 2.0, -2.0, 1e-9, -1e-9, 5e-324, 1e308, *poles)
    qs = [rng.choice(special) if rng.random() < 0.4 else rng.uniform(-4.0, 4.0) for _ in range(rng.randint(0, 12))]
    if poles and rng.random() < 0.5:
        b = rng.choice(poles)
        qs += [b + k * 1e-10 for k in range(-15, 16)]
    qs += rng.sample(qs, min(len(qs), rng.randint(0, 4)))  # repeats
    rng.shuffle(qs)
    return qs


def _on_pole_rule(q, poles):
    return any(abs(q - b) < 1e-9 for b in poles)


def _ulps_above(q, k):
    for _ in range(k):
        q = math.nextafter(q, math.inf)
    return q


def _normal_step(lo, hi, n):
    """Whether the grid step (hi - lo)/(n - 1) is a normal double, the one
    precondition of a _linspace grid that SweepConfig and the scan check."""
    return sys.float_info.min <= (hi - lo) / (n - 1) < math.inf


def _window_at_pole(rng, b):
    """(lo, hi, n) of a grid at the pole b, as the sweep and the scan accept
    them: nodes 1e-10 apart around b, a window a few ulps wide where nodes
    repeat, a window from or to q = +-0, or up to 4096 dyadic nodes through
    b; a draw whose step is not a normal double is drawn again."""
    while True:
        r = rng.random()
        if r < 0.4:  # many nodes within 1e-9 of b
            below, above = rng.randint(0, 30), rng.randint(1, 30)
            window = b - below * 1e-10, b + above * 1e-10, below + above + 1
        elif r < 0.6:
            lo = _ulps_above(b, rng.randint(0, 2)) if rng.random() < 0.5 else -_ulps_above(-b, rng.randint(1, 3))
            window = lo, _ulps_above(lo, rng.randint(1, 16)), rng.randint(2, 40)
        elif r < 0.8:
            edge, span = rng.choice((0.0, -0.0)), rng.choice((1e-9, 2e-9, abs(b) + 1e-9, rng.uniform(1e-12, 4.0)))
            window = ((edge, span) if rng.random() < 0.5 else (-span, edge)) + (rng.randint(2, 64),)
        else:
            h = 2.0 ** -rng.randint(0, 10)
            below, above = rng.randint(0, 2048), rng.randint(1, 2048)
            window = b - below * h, b + above * h, below + above + 1
        if _normal_step(*window):
            return window


@pytest.mark.parametrize("seed", [31, 32])
def test_pole_nodes_follow_the_node_rule(seed):
    # _pole_nodes bisects a _linspace grid of a normal step, which ascends
    # inside its window; the brute-force rule, |q - b| < 1e-9 node by node,
    # is the oracle, for nan and infinite poles too
    rng = random.Random(seed)
    hits = 0
    for _ in range(1000):
        x = rng.choice((0.0, -0.0, 0.5, -0.25, 1.0, -1.0, math.nan, 1e308, rng.uniform(-2.0, 2.0)))
        poles = rng.choice(((), _branch_points(x), (2.0, -2.0, *_branch_points(x), *branch_points_q(0.0)),
                            (0.0, -0.0, math.nan, 2.0, 2.0)))
        pole = rng.choice([b for b in poles if math.isfinite(b)] or [rng.uniform(-4.0, 4.0)])
        lo, hi, n = _window_at_pole(rng, pole)
        qs = _linspace(lo, hi, n)
        assert lo == qs[0] and all(a <= b for a, b in zip(qs, qs[1:])) and qs[-1] == hi, qs
        expected = [i for i, q in enumerate(qs) if _on_pole_rule(q, poles)]
        assert _pole_nodes(qs, poles) == expected, (qs, poles)
        hits += bool(expected)
    assert hits > 300, hits


def _scan_by_points(x, xp, y, window, n_points):
    """A y = 0 row of singularity_broadening_scan rebuilt node by node from
    epsilon_collisional_a: (y, max slope, skipped q), or the class it
    raises.  A node is a gap if it is within 1e-9 of a branch point, or if
    its point raises a QplasmaError; a row with no central difference raises
    the first such error, or WindowContainsPole if it has none."""
    qs = _linspace(*window, n_points)
    h = qs[1] - qs[0]
    on_pole_here = [_on_pole_rule(q, branch_points_q(x)) for q in qs]
    eps, errors = [], []
    for q, skip in zip(qs, on_pole_here):
        try:
            eps.append(None if skip else epsilon_collisional_a(DimensionlessPointA(x, y, q, xp)).epsilon)
        except QplasmaError as exc:
            eps.append(None)
            errors.append(type(exc))
    slopes = [abs(hi - lo) / (2.0 * h) for lo, hi in zip(eps, eps[2:]) if lo is not None and hi is not None]
    if not slopes:
        return errors[0] if errors else WindowContainsPole
    max_slope = max([s for s in slopes if not math.isnan(s)], default=0.0)
    return y.hex(), max_slope.hex(), tuple(q for q, e in zip(qs, eps) if e is None)


_U = 2.0 ** -53


def _eps_rounding(x, y, q, xp, eps):
    """A running-error bound on eps = 1 + 1.5 xp^2 N/(1 - g0) from its
    closed form: 16 u times the sizes of its terms, T = |c|(|ln(a + 1)| +
    |ln(a - 1)|) for each shift a = z +- q/2 with c = (a^2 - 1)/(2q), and
    (y/2)(|ln(z + 1)| + |ln(z - 1)|) for g0."""
    z = complex(x, y)
    t = 1.0
    for a in (z + q / 2.0, z - q / 2.0):
        t += abs((a * a - 1.0) / (2.0 * q)) * (abs(cmath.log(a + 1.0)) + abs(cmath.log(a - 1.0)))
    den = 1.0 - kernels.g0_a(z)
    kappa_den = (1.0 + y / 2.0 * (abs(cmath.log(z + 1.0)) + abs(cmath.log(z - 1.0)))) / abs(den)
    return 16.0 * _U * (abs(eps) + abs(eps - 1.0) * kappa_den + 1.5 * xp * xp * t / abs(den))


def _central_differences(x, xp, y, window, n_points):
    """(|eps(q + h) - eps(q - h)|/(2h), its rounding bound) at each inner node
    of the scan's grid, from epsilon_collisional_a."""
    qs = _linspace(*window, n_points)
    h2 = 2.0 * (qs[1] - qs[0])
    eps = [epsilon_collisional_a(DimensionlessPointA(x, y, q, xp)).epsilon for q in qs]
    bounds = [_eps_rounding(x, y, q, xp, e) for q, e in zip(qs, eps)]
    return [(abs(eps[i + 1] - eps[i - 1]) / h2, (bounds[i + 1] + bounds[i - 1]) / h2) for i in range(1, len(qs) - 1)]


def _scan_window(rng, x):
    """(q_min, q_max, n_points): dyadic nodes through q = 0 and, for dyadic
    x, the branch points; nodes 1e-10 apart around (or just beside) a
    branch point or q = +-2; or a window from a pole or a random edge."""
    pole = rng.choice((0.0, 2.0, -2.0, *branch_points_q(x)))
    r = rng.random()
    if r < 0.4:
        h = 2.0 ** -rng.randint(0, 3)
        lo, hi = rng.randint(0, 24), rng.randint(2, 24)
        return -lo * h, hi * h, lo + hi + 1
    if r < 0.7:
        lo = rng.randint(-12, 20)
        return pole - lo * 1e-10, pole + rng.randint(max(1, 3 - lo), 20) * 1e-10, rng.randint(3, 30)
    q_min = rng.choice((pole, rng.uniform(-4.0, 4.0)))
    return q_min, q_min + rng.uniform(1e-6, 4.0), rng.randint(3, 40)


def _scan_outcome(*args):
    try:
        return [(r.y.hex(), r.max_abs_deps_dq.hex(), r.skipped_q) for r in singularity_broadening_scan(*args)]
    except QplasmaError as exc:
        return type(exc)


@pytest.mark.parametrize("seed", [38, 39])
def test_broadening_scan_matches_the_scalar_path(seed):
    # a y = 0 row gives the slope and gaps of the scalar points to the last
    # bit, or raises WindowContainsPole as they say; a y > 0 row skips no q,
    # raises NonFiniteResult exactly where 1.5 xp^2 overflows, and its slope,
    # the maximum of |d eps/d q|, is at least each central difference of the
    # scalar points (each is a mean of d eps/d q) less its rounding bound,
    # checked where every node has |q| >= 1e-3 (nearer q = 0 eps has no
    # correct digits); the scan of all ys gives the rows of the scans of one
    rng = random.Random(seed)
    seen = Counter()
    for _ in range(1200):
        x = rng.choice((0.0, -0.0, rng.randint(-12, 12) / 8.0, rng.uniform(-2.0, 2.0)))
        xp = rng.choice((1.0, 0.0, 1e200, rng.uniform(0.0, 10.0)))
        ys = [rng.choice((0.0, -0.0, 10.0 ** rng.uniform(-3.0, 1.0))) for _ in range(rng.randint(1, 3))]
        window = _scan_window(rng, x)
        outcomes = []
        for y in ys:
            got = _scan_outcome(x, xp, [y], window[:2], window[2])
            outcomes.append(got)
            if y == 0.0:
                expected = _scan_by_points(x, xp, y, window[:2], window[2])
                assert got == (expected if isinstance(expected, type) else [expected]), (x, xp, y, window)
                seen["y = 0 row raised" if isinstance(got, type) else
                     "y = 0 row with gaps" if expected[2] else "y = 0 row without gaps"] += 1
            elif xp == 1e200:
                assert got is NonFiniteResult, (x, xp, y, window)
                seen["y > 0 row raised"] += 1
            else:
                ((_, slope, skipped),) = got
                assert skipped == ()
                if all(abs(q) >= 1e-3 for q in _linspace(*window)):
                    for cd, bound in _central_differences(x, xp, y, window[:2], window[2]):
                        assert float.fromhex(slope) >= cd - bound, (x, xp, y, window, cd, bound)
                    seen["y > 0 row above its central differences"] += 1
        raised = [o for o in outcomes if not isinstance(o, list)]
        assert _scan_outcome(x, xp, ys, window[:2], window[2]) == (
            raised[0] if raised else [row for rows in outcomes for row in rows])
    assert len(seen) == 5 and min(seen.values()) > 50, seen


def test_broadening_scan_y_positive_rows_do_not_depend_on_the_grid():
    rows = [singularity_broadening_scan(x, 1.0, [0.0, 0.003, 0.5], (1.5, 2.5), n)
            for x in (0.0, 0.1) for n in (3, 201, 2001)]
    for by_n in (rows[:3], rows[3:]):
        assert len({r[0].max_abs_deps_dq for r in by_n}) == 3  # the y = 0 grid value moves
        for i in (1, 2):
            assert len({r[i].max_abs_deps_dq for r in by_n}) == 1


@pytest.mark.parametrize("q_min, q_max, q_steps", [
    (-3.0, 3.0, 49),  # dyadic nodes on every pole of x = 0.5 and on 0
    (2.0 - 2e-9, 2.0 + 2e-9, 41),  # nodes 1e-10 apart: many within 1e-9 of q = 2
    (-2.0 - 5e-10, 3.0, 20),
])
def test_grid_nudges_in_node_order(q_min, q_max, q_steps):
    cfg = SweepConfig(model="mermin", x=0.5, y=(0.0, 0.1), q_min=q_min, q_max=q_max, q_steps=q_steps,
                      xp=1.0, output="unused")
    poles = _singular_q(cfg)
    nodes = _linspace(q_min, q_max, q_steps)
    expected = [(q, q + 1e-6) for q in nodes if _on_pole_rule(q, poles)]
    qs, nudged = _grid(cfg)
    assert nudged == expected and len(expected) > 0
    assert qs == [q + 1e-6 if _on_pole_rule(q, poles) else q for q in nodes]


def _g_sum(z, q):
    return 1.0 - g_a(z, q, +1) + g_a(z, q, -1)


def _n(z, q):
    """N at one q, as the scalar models take it: a one-node row, whose error is raised."""
    return _one(_numerator(z, (q,), "N"))


def _reference_n(y, q):
    """(N, |g(iy,+q)|) at z = iy from the reference closed form, with digits
    added for the cancellations of large |log10 q| and y >> 1."""
    digits = MP_DIGITS + int(3.0 * (abs(math.log10(abs(q))) + max(0.0, math.log10(y))))
    with mp.workdps(digits):
        z, q = ref_z(0.0, y), mp.mpf(q)
        return ref_n(z, q), abs(ref_g(z, q, 1))


def test_numerator_is_the_sum_of_the_shifted_kernels():
    # bit for bit, except at z = +-0 + iy, y > 0, where N is 1 - 2 Re g(iy,+|q|)
    # (g(iy,-q) = -conj(g(iy,+q))), taken in floats: there Im N is +0.0 and
    # Re N within eps*(1 + 2|g+|) of the reference, eps = 2**-52, or the error
    # of the two-shift sum
    rng = random.Random(34)
    mirrored = 0
    reals = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 5e-324, 1e-170, 1e154, -1e200, 1.7976931348623157e308)
    for _ in range(20000):
        x = rng.choice(reals) if rng.random() < 0.4 else rng.uniform(-4.0, 4.0)
        y = rng.choice((0.0, -0.0, 0.0, 1e-300, 5e-324, 0.1, 1e200, rng.uniform(0.0, 3.0)))
        z = complex(x, y)
        q = rng.choice((math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, *_branch_points(x),
                        *branch_points_q(0.0), rng.uniform(-5.0, 5.0), rng.choice(reals)))
        if q == 0.0:  # the row's q = 0 text, checked in test_real_axis_numerator_equals_the_complex_evaluation
            continue
        try:
            g_sum = _g_sum(z, q)
        except QplasmaError as exc:
            assert _outcome_or_error(_n, z, q) == _outcome(exc), (z, q)
            continue
        n = _n(z, q)
        if x == 0.0 and y > 0.0:
            assert _outcome(n)[1] == "0x0.0p+0", (z, q)
            ref, g = _reference_n(y, q)
            assert abs(n.real - ref) <= sys.float_info.epsilon * (1.0 + 2.0 * g), (z, q)
            mirrored += 1
        else:
            assert _outcome(n) == _outcome(g_sum), (z, q)
    assert mirrored > 300, mirrored


def _complex_mirror(z, q):
    """N at z = +-0 + iy as the complex path takes it, where the float path
    falls back: 1 - 2 Re g_a(z, q, +1) with Im N = +0.0, or g_a's error."""
    g = g_a(z, q, +1)
    return complex((1.0 - g.real) - g.real, 0.0)


def _iy_draw(rng, box):
    """(y, q) at z = +-0 + iy: the figure window, the oracle box, |q|/2 within
    1e-9 of the branch point 1 (or on it) at small y, and y whose square
    underflows (q = +-2 included, where m*m + y*y is 0 or subnormal)."""
    sign = rng.choice((1.0, -1.0))
    if box == "figure":
        return 10.0 ** rng.uniform(-3.0, -1.5), rng.uniform(1.5, 2.5)
    if box == "oracle":
        return 10.0 ** rng.uniform(-3.0, 1.0), sign * 10.0 ** rng.uniform(math.log10(0.05), math.log10(5.0))
    if box == "near h = 1":
        return 10.0 ** rng.uniform(-16.0, -8.0), sign * 2.0 * (1.0 + rng.choice((0.0, rng.uniform(-1e-9, 1e-9))))
    q = sign * rng.choice((2.0, 10.0 ** rng.uniform(math.log10(0.05), math.log10(5.0))))
    return 10.0 ** rng.uniform(-323.0, -154.0), q


@pytest.mark.parametrize("box, bound", [("figure", 1e-15), ("oracle", 1e-13), ("near h = 1", 1e-15),
                                        ("y*y underflows", 4e-15)])
def test_numerator_at_iy_is_at_least_as_accurate_as_the_complex_path(box, bound):
    # N at z = +-0 + iy in floats: worst relative error against the reference
    # within the box's bound and no larger than the complex path's
    rng = random.Random(28)
    worst_floats = worst_complex = 0.0
    for _ in range(300):
        y, q = _iy_draw(rng, box)
        z = complex(rng.choice((0.0, -0.0)), y)
        ref = ref_numerator(0.0, y, q)
        worst_floats = max(worst_floats, rel_err(_n(z, q), ref))
        worst_complex = max(worst_complex, rel_err(_complex_mirror(z, q), ref))
    assert worst_floats <= min(bound, worst_complex), (worst_floats, worst_complex)


def test_numerator_at_iy_falls_back_where_a_square_overflows():
    # h = |q|/2 or y at or above 1e154: the complex path's value, bit for bit, or its error, class and text
    rng = random.Random(29)
    kinds = Counter()
    for _ in range(3000):
        if rng.random() < 0.5:  # the complex path overflows
            big, other = 10.0 ** rng.uniform(154.0, 308.25), 10.0 ** rng.uniform(-3.0, 308.25)
        else:  # it does not: h*h + y*y stays finite
            big, other = rng.uniform(1e154, 1.3e154), 10.0 ** rng.uniform(-3.0, 153.0)
        y, h = (big, other) if rng.random() < 0.5 else (other, big)
        q = rng.choice((1.0, -1.0)) * 2.0 * h
        z = complex(rng.choice((0.0, -0.0)), y)
        expected = _outcome_or_error(_complex_mirror, z, q)
        assert _outcome_or_error(_n, z, q) == expected, (z, q)
        kinds[expected[0] if expected[0] == "NonFiniteResult" else "value"] += 1
    assert min(kinds.values()) > 300, kinds


def _real_axis_draw(rng):
    """(x, q) for N on the real axis: +-0 and subnormal x and q, dyadic nodes
    on the branch points 2(1 +- x), |x| and |q| up to 1e300, inside shifts
    whose c*L is finite but c*(-pi) is not, and 2q that overflows with
    x = +-q/2, where one shift is 0 and its c*(-pi), c = -1/(2q), is 0."""
    tiny = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308)
    sign = rng.choice((1.0, -1.0))
    r = rng.random()
    if r < 0.1:
        x = rng.choice(tiny)
    elif r < 0.4:
        x = rng.randint(-96, 96) / 32.0
    elif r < 0.6:
        x = sign * 10.0 ** rng.uniform(-6.0, 300.0)
    else:
        x = rng.uniform(-4.0, 4.0)
    r = rng.random()
    if r < 0.25:
        return x, rng.choice((2.0, -2.0)) * (1.0 + rng.choice((1.0, -1.0)) * x)
    if r < 0.35:
        q = sign * rng.uniform(2.0 ** 1023, 1.7976931348623157e308)
        return rng.choice((1.0, -1.0)) * q / 2.0, q
    if r < 0.42:
        x = rng.uniform(-0.9, 0.9)
        return x, sign * (1.0 - x * x) * rng.uniform(0.5, 2.0) / 1.7976931348623157e308
    if r < 0.5:
        return x, rng.choice((0.0, -0.0, sign * 10.0 ** rng.uniform(-323.5, -300.0)))
    if r < 0.6:
        return x, sign * 10.0 ** rng.uniform(-6.0, 300.0)
    return x, sign * rng.uniform(0.0, 6.0)


def _shift_kind(r, q):
    if abs(r) == 1.0:
        return "branch point"
    c = (r * r - 1.0) / (2.0 * q)
    if abs(r) > 1.0:
        return "outside"
    if c * math.pi == 0.0:
        return "inside, c*(-pi) = 0"
    if math.isinf(c * math.pi) and math.isfinite(c * (math.log(1.0 + r) - math.log(1.0 - r))):
        return "inside, only c*(-pi) overflows"
    return "inside"


def test_real_axis_numerator_equals_the_complex_evaluation():
    # N(x +- 0j, q) is evaluated in floats: it must give the bits of the
    # complex kernels (signed zeros included), or their error, class and text;
    # a q = 0 node names the classical limit, as every model's q = 0 does
    rng = random.Random(36)
    kinds = Counter()
    for _ in range(24000):
        x, q = _real_axis_draw(rng)
        z = complex(x, rng.choice((0.0, -0.0)))
        expected = ("DegenerateQ", _Q0_POINT) if q == 0.0 else _outcome_or_error(_g_sum, z, q)
        assert _outcome_or_error(_n, z, q) == expected, (z, q)
        if q != 0.0 and math.isfinite(q):
            kinds.update(_shift_kind(x + s * (q / 2.0), q) for s in (1.0, -1.0))
        else:
            kinds["q = 0 or inf"] += 1
    assert min(kinds.values()) > 300, kinds


def _outcome_or_error(f, *args):
    try:
        return _outcome(f(*args))
    except QplasmaError as exc:
        return _outcome(exc)


def _mermin_sweep(x, ys, q_min, q_max, q_steps, xp):
    cfg = SweepConfig(model="mermin", x=x, y=ys, q_min=q_min, q_max=q_max, q_steps=q_steps, xp=xp, output="unused")
    return run_sweep(cfg, write=False)


@pytest.mark.parametrize("x", [0.0, -0.0, 0.5, -1.25])
def test_multi_row_mermin_sweep_matches_the_scalar_per_y(x):
    rng = random.Random(35)
    for xp in (1.0, 1e200):
        for q_min, q_max, q_steps in ((-3.0, 3.0, 49), (2.0 - 2e-9, 2.0 + 2e-9, 41), (0.1, 4.0, 57)):
            ys = (0.0, 0.005, 0.01, rng.uniform(0.1, 10.0))
            result = _mermin_sweep(x, ys, q_min, q_max, q_steps, xp)
            skipped = {(p.q, p.y): p.reason for p in result.skipped}
            for q, node in zip(result.q_values, result.eps):
                for y, v in zip(ys, node):
                    expected = _scalar("mermin", x, y, q, xp)
                    if v is None:
                        assert skipped.pop((q, y)) == "%s: %s" % expected
                    else:
                        assert _outcome(v) == expected
            assert not skipped


@pytest.mark.parametrize("seed", [36, 37])
def test_mermin_rows_match_their_rows_one_by_one(seed):
    rng = random.Random(seed)
    for _ in range(400):
        x = rng.choice((0.0, -0.0, 0.5, rng.uniform(-2.0, 2.0)))
        ys = rng.sample((0.0, -0.0, 0.01, 0.5, 3.0, math.inf, math.nan, 10 ** 400, -10 ** 400), rng.randint(1, 4))
        xp = rng.choice((1.0, 0.0, 1e200))
        qs = _adversarial_qs(rng, list(branch_points_q(x)))
        if any(y < 0 for y in ys):  # a negative y's ValueError leaves the whole call, as it leaves its own row
            with pytest.raises(ValueError, match="^y must be >= 0, got -"):
                MODELS["mermin"](x, ys, qs, xp)
            continue
        rows = MODELS["mermin"](x, ys, qs, xp)
        assert [[_outcome(v) for v in row] for row in rows] == [_row("mermin", x, y, qs, xp) for y in ys]


def test_copied_mermin_static_rows_still_check_y():
    with pytest.raises(ValueError, match="^y must be >= 0, got -0.1$"):
        MODELS["mermin"](0.0, (0.1, -0.1), [1.0, 2.0], 1.0)
    with pytest.raises(ValueError, match=f"^y must be >= 0, got {-10 ** 400}$"):
        MODELS["mermin"](0.0, (0.1, -10 ** 400), [1.0, 2.0], 1.0)
