import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dualpart.exactarith import CycInt, _cyclotomic_coeffs, _reduction_rows, euler_phi_degree, root_of_unity_sum
from paper import SparsePoly


def _numeric(c: CycInt) -> complex:
    z = cmath.exp(2j * cmath.pi / c.m)
    return sum(a * z**j for j, a in enumerate(c.coeffs))


class TestCyclotomicPolynomial:
    # frozen expansions, independently derivable by hand
    KNOWN = {
        1: [-1, 1],
        2: [1, 1],
        3: [1, 1, 1],
        4: [1, 0, 1],
        6: [1, -1, 1],
        12: [1, 0, -1, 0, 1],
    }

    @pytest.mark.parametrize("m", sorted(KNOWN))
    def test_small_expansions(self, m):
        assert list(_cyclotomic_coeffs(m)) == self.KNOWN[m]

    @pytest.mark.parametrize("m", range(1, 40))
    def test_matches_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, sympy.Symbol("x"))).all_coeffs()
        assert list(_cyclotomic_coeffs(m)) == list(reversed([int(c) for c in theirs]))

    @pytest.mark.parametrize("m", range(1, 40))
    def test_degree_is_totient(self, m):
        assert euler_phi_degree(m) == sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)


class TestCycInt:
    def test_primitive_root_vanishes_on_cyclotomic(self):
        # zeta_12 satisfies Phi_12: z^4 - z^2 + 1 = 0
        z4 = CycInt.root_of_unity(12, 4)
        z2 = CycInt.root_of_unity(12, 2)
        one = CycInt.from_int(1, 12)
        assert (z4 - z2 + one).is_zero()
        assert z4 * z4 * z4 == one  # zeta^12 = 1

    def test_full_orbit_sums_to_zero(self):
        for m in range(2, 30):
            assert root_of_unity_sum(m, range(m)).as_int() == 0

    def test_partial_sums_match_complex_floats(self):
        import random

        rng = random.Random(7)
        for m in [5, 8, 9, 12, 15]:
            exps = [rng.randrange(m) for _ in range(11)]
            exact = root_of_unity_sum(m, exps)
            approx = sum(cmath.exp(2j * cmath.pi * e / m) for e in exps)
            assert abs(_numeric(exact) - approx) < 1e-9

    def test_as_int_detects_rational_integers(self):
        assert CycInt.from_int(-17, 30).as_int() == -17
        z = CycInt.root_of_unity(5, 1)
        assert z.as_int() is None

    @given(
        m=st.sampled_from([3, 4, 5, 8, 12]),
        ea=st.integers(0, 30),
        eb=st.integers(0, 30),
    )
    def test_multiplication_adds_exponents(self, m, ea, eb):
        a = CycInt.root_of_unity(m, ea % m)
        b = CycInt.root_of_unity(m, eb % m)
        assert a * b == CycInt.root_of_unity(m, (ea + eb) % m)

    def test_reduction_matrix_shape(self):
        for m in [2, 3, 12, 15]:
            rows = _reduction_rows(m)
            assert len(rows) == m
            assert all(len(r) == euler_phi_degree(m) for r in rows)


class TestSparsePoly:
    """The polynomial arithmetic that tests/paper.py builds F with."""

    def test_basic_algebra(self):
        x = SparsePoly.monomial(1, 1)
        p = (x + SparsePoly.monomial(1)) * (x - SparsePoly.monomial(1))
        assert p == SparsePoly.monomial(1, 2) - SparsePoly.monomial(1)

    def test_rational_exponents_allowed(self):
        p = SparsePoly.monomial(2, Fraction(1, 2)) * SparsePoly.monomial(3, Fraction(3, 2))
        assert p.coefficient(Fraction(2)) == 6
