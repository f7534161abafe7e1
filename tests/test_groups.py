import cmath

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualpart.config import BudgetError, InputError, RunConfig
from dualpart.groups import (
    GroupElement,
    GroupProduct,
    build_group_product,
    pairing,
    pairing_exponent,
)


def test_mixed_radix_enumeration_contract():
    # Z_3 x Z_2: index = 2 * (Z_3 residue) + Z_2 residue
    g = build_group_product([[3], [2]])
    seen = []
    for idx in range(6):
        el = g.element_from_index(idx)
        assert el.index == idx
        seen.append(el.residues)
        assert idx == 2 * el.residues[0] + el.residues[1]
    assert len(set(seen)) == 6


def test_structure_derivation():
    g = build_group_product([[2], [2], [2, 3]])
    assert g.n == 3
    assert g.h == (2, 2, 6)
    assert g.exponent == 6
    assert g.order == 24
    assert g.factor_coordinate == (0, 1, 2, 2)


def test_residue_matrix_matches_elements():
    g = build_group_product([[2], [3, 2]])
    v = g.residue_matrix()
    for idx, el in enumerate(g.enumerate_elements()):
        assert tuple(v[idx]) == el.residues


def test_support_spans_factors_of_a_coordinate():
    g = build_group_product([[2], [2, 3]])
    el = g.element([0, 0, 2])
    assert el.support() == {1}
    assert g.identity().support() == set()


def test_group_axioms_small():
    g = build_group_product([[2], [3]])
    els = list(g.enumerate_elements())
    for a in els:
        assert (a * a.inverse()).is_identity()
        for b in els:
            assert (a * b).residues == (b * a).residues


@given(st.integers(0, 23), st.integers(0, 23))
def test_pairing_is_bicharacter(i, j):
    g = build_group_product([[2], [2, 3], [2]])
    a = g.element_from_index(i)
    b = g.element_from_index(j)
    c = g.element_from_index((i * 7 + 3) % g.order)
    lhs = pairing_exponent(a * c, b)
    rhs = (pairing_exponent(a, b) + pairing_exponent(c, b)) % g.exponent
    assert lhs == rhs
    assert pairing_exponent(a, b) == pairing_exponent(b, a)


def test_pairing_matches_complex_product():
    g = build_group_product([[4], [3]])
    m = g.exponent
    for i in range(g.order):
        for j in range(g.order):
            a, b = g.element_from_index(i), g.element_from_index(j)
            val = pairing(a, b)
            direct = 1.0
            for ra, rb, d in zip(a.residues, b.residues, g.factor_orders):
                direct *= cmath.exp(2j * cmath.pi * ra * rb / d)
            z = cmath.exp(2j * cmath.pi / m)
            approx = sum(c * z**k for k, c in enumerate(val.coeffs))
            assert abs(direct - approx) < 1e-9


def test_character_orthogonality_per_element():
    # sum over beta of f(alpha, beta) is |H| at identity, 0 elsewhere
    from dualpart.exactarith import CycInt, root_of_unity_sum

    g = build_group_product([[2], [2, 3]])
    m = g.exponent
    for a in g.enumerate_elements():
        s = root_of_unity_sum(m, (pairing_exponent(a, b) for b in g.enumerate_elements()))
        expect = g.order if a.is_identity() else 0
        assert s.as_int() == expect


def test_validation_errors():
    with pytest.raises(InputError):
        build_group_product([])
    with pytest.raises(InputError):
        build_group_product([[1]])
    g = build_group_product([[2]])
    with pytest.raises(InputError):
        g.element([2])
    with pytest.raises(InputError):
        g.element_from_index(5)


def test_enumeration_cap_enforced():
    tight = RunConfig(enumeration_cap=8)
    with pytest.raises(BudgetError):
        build_group_product([[2]] * 4, tight)


def test_cap_messages_name_field_amount_and_cap():
    tight = RunConfig(enumeration_cap=8)
    with pytest.raises(BudgetError, match=r"^\|H\| = 16 exceeds enumeration_cap = 8$"):
        build_group_product([[2]] * 4, tight)
    group = build_group_product([[2]] * 4)
    with pytest.raises(BudgetError, match=r"^\|H\| to materialize = 16 exceeds enumeration_cap = 8$"):
        group.residue_matrix(tight)
    with pytest.raises(BudgetError, match=r"^\|H\| = 16 exceeds enumeration_cap = 8$"):
        next(group.enumerate_elements(tight))
