"""The reference's precision follows its arguments: where 40 digits hold no
digit of N, and where doubling from 40 digits settles on a wrong value,
it still returns the closed form's value."""

import mpmath as mp
import pytest
from reference import ref_numerator, rel_err


@pytest.mark.parametrize("x, y, q, expected", [
    # at 40 (or 80) digits a + 1 = 1 + q/2 + iy drops q/2, and N reads -0.107
    (0.0, 0.5, 1e-160, 0.8928512822059095),
    # at 40 digits the shifted kernels, ~q/4 each, cancel to N = 1 in place of ~8/(3 q^2)
    (0.0, 0.1, 1e154, 2.6666666666666666e-308),
])
def test_reference_numerator_at_tiny_and_huge_q(x, y, q, expected):
    ref = ref_numerator(x, y, q)
    assert rel_err(expected, ref) <= 2e-16 and abs(ref.imag) <= mp.mpf("1e-300") * abs(ref), ref
