import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dualpart.config import InputError

from dualpart.exactarith import (
    CycInt,
    _cyclotomic_coeffs,
    _is_prime,
    _prime_factors,
    euler_phi_degree,
)
from oracles import (
    as_int,
    cyc_add,
    cyc_mul,
    cyc_sub,
    cyclotomic_by_division,
    from_int,
    reduction_rows,
    root_of_unity,
    root_of_unity_sum,
)
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

    @pytest.mark.parametrize("m", list(range(1, 40)) + [2310, 4620])
    def test_matches_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, sympy.Symbol("x"))).all_coeffs()
        assert list(_cyclotomic_coeffs(m)) == list(reversed([int(c) for c in theirs]))

    def test_moebius_product_matches_division_oracle(self):
        assert [m for m in range(1, 1001) if _cyclotomic_coeffs(m) != cyclotomic_by_division(m)] == []

    def test_bad_modulus_rejected(self):
        for m in (0, -6):
            with pytest.raises(InputError):
                _cyclotomic_coeffs(m)
            with pytest.raises(InputError):
                euler_phi_degree(m)

    @pytest.mark.parametrize("m", list(range(1, 40)) + [9240, 30030, 65537])
    def test_degree_is_totient(self, m):
        assert euler_phi_degree(m) == sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)

    def test_totient_of_large_moduli(self):
        # 9699690 = 2 * 3 * ... * 19; 2^24 is the default enumeration_cap and
        # 2^24 - 3 a prime
        known = {9699690: 1658880, 1 << 24: 1 << 23, 10**6: 400000, 16777213: 16777212}
        assert {m: euler_phi_degree(m) for m in known} == known

    def test_prime_factors_match_a_primality_scan(self):
        for m in range(1, 2001):
            assert _prime_factors(m) == tuple(q for q in range(2, m + 1) if m % q == 0 and _is_prime(q))
        assert _prime_factors(9699690) == (2, 3, 5, 7, 11, 13, 17, 19)
        assert _prime_factors(1 << 24) == (2,)


class TestCycInt:
    def test_value_semantics(self):
        # the library's CycInt is a value: built against the totient,
        # compared and hashed by modulus and coordinates, never changed
        a = CycInt(12, [1, 0, 0, 0])
        assert a == from_int(1, 12) and hash(a) == hash(from_int(1, 12))
        assert a != CycInt(5, [1, 0, 0, 0]) and a != 1
        assert repr(a) == "CycInt(m=12, [1, 0, 0, 0])"
        with pytest.raises(InputError, match="needs 4 coordinates, got 3"):
            CycInt(12, [1, 0, 0])
        with pytest.raises(AttributeError):
            a.m = 5

    def test_primitive_root_vanishes_on_cyclotomic(self):
        # zeta_12 satisfies Phi_12: z^4 - z^2 + 1 = 0
        z4 = root_of_unity(12, 4)
        z2 = root_of_unity(12, 2)
        one = from_int(1, 12)
        assert cyc_add(cyc_sub(z4, z2), one) == from_int(0, 12)
        assert cyc_mul(cyc_mul(z4, z4), z4) == one  # zeta^12 = 1

    def test_full_orbit_sums_to_zero(self):
        for m in range(2, 30):
            assert as_int(root_of_unity_sum(m, range(m))) == 0

    def test_partial_sums_match_complex_floats(self):
        import random

        rng = random.Random(7)
        for m in [5, 8, 9, 12, 15]:
            exps = [rng.randrange(m) for _ in range(11)]
            exact = root_of_unity_sum(m, exps)
            approx = sum(cmath.exp(2j * cmath.pi * e / m) for e in exps)
            assert abs(_numeric(exact) - approx) < 1e-9

    def test_as_int_detects_rational_integers(self):
        assert as_int(from_int(-17, 30)) == -17
        assert as_int(root_of_unity(5, 1)) is None

    @given(
        m=st.sampled_from([3, 4, 5, 8, 12]),
        ea=st.integers(0, 30),
        eb=st.integers(0, 30),
    )
    def test_multiplication_adds_exponents(self, m, ea, eb):
        a = root_of_unity(m, ea % m)
        b = root_of_unity(m, eb % m)
        assert cyc_mul(a, b) == root_of_unity(m, (ea + eb) % m)

    def test_reduction_matrix_shape(self):
        for m in [2, 3, 12, 15]:
            rows = reduction_rows(m)
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
