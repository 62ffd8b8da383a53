"""The reference's precision follows its arguments: where 40 digits hold no
digit of N, and where doubling from 40 digits settles on a wrong value,
it still returns the closed form's value.  Convention B's reference is even
in q on the real axis, and every public ``ref_*`` has a caller."""

import re
from pathlib import Path

import mpmath as mp
import pytest
import reference
from reference import ref_bgk_b, ref_numerator, rel_err

from qplasma.dielectric import DimensionlessPointB, epsilon_collisional_b


@pytest.mark.parametrize("x, y, q, expected", [
    # at 40 (or 80) digits a + 1 = 1 + q/2 + iy drops q/2, and N reads -0.107
    (0.0, 0.5, 1e-160, 0.8928512822059095),
    # at 40 digits the shifted kernels, ~q/4 each, cancel to N = 1 in place of ~8/(3 q^2)
    (0.0, 0.1, 1e154, 2.6666666666666666e-308),
])
def test_reference_numerator_at_tiny_and_huge_q(x, y, q, expected):
    ref = ref_numerator(x, y, q)
    assert rel_err(expected, ref) <= 2e-16 and abs(ref.imag) <= mp.mpf("1e-300") * abs(ref), ref


@pytest.mark.parametrize("x, q", [(3.0727284512426256, 2.187239368716083), (0.5, 1.4)])
def test_reference_convention_b_is_even_in_q_on_the_real_axis(x, q):
    # at q < 0, u/q took the log's real-axis limit from below and gave conj(eps)
    for s in (1.0, -1.0):
        got = epsilon_collisional_b(DimensionlessPointB(x, 0.0, s * q, 1.0)).epsilon
        assert rel_err(got, ref_bgk_b(x, 0.0, s * q, 1.0)) <= 1e-15, (x, s * q)


def test_every_public_reference_has_a_caller():
    tests = "".join(path.read_text(encoding="utf-8") for path in Path(__file__).parent.glob("test_*.py"))
    public = [name for name in vars(reference) if name.startswith("ref_")]
    assert public and [name for name in public if not re.search(rf"\b{name}\(", tests)] == []
