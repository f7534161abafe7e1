import cmath

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualpart.config import BudgetError, InputError, RunConfig
from dualpart.groups import build_group_product
from dualpart.metrics import pk_covering
from dualpart.partitions import DualityContext, induce_CO
from oracles import (
    GroupElement,
    as_int,
    element_from_index,
    enumerate_elements,
    root_of_unity,
    root_of_unity_sum,
)


def test_mixed_radix_enumeration_contract():
    # Z_3 x Z_2: index = 2 * (Z_3 residue) + Z_2 residue
    g = build_group_product([[3], [2]])
    v = g.residue_matrix()
    for idx in range(6):
        assert idx == 2 * v[idx, 0] + v[idx, 1]
        assert tuple(v[idx]) == np.unravel_index(idx, g.factor_orders)
        assert element_from_index(g, idx).index == idx
    assert len({tuple(row) for row in v.tolist()}) == 6


def test_structure_derivation():
    g = build_group_product([[2], [2], [2, 3]])
    assert g.n == 3
    assert g.h == (2, 2, 6)
    assert g.exponent == 6
    assert g.order == 24
    assert g.factor_orders == (2, 2, 2, 3)


def test_residue_matrix_matches_elements():
    g = build_group_product([[2], [3, 2]])
    v = g.residue_matrix()
    for idx, el in enumerate(enumerate_elements(g)):
        assert tuple(v[idx]) == el.residues


def test_support_spans_factors_of_a_coordinate():
    g = build_group_product([[2], [2, 3]])
    assert GroupElement(g, (0, 0, 2)).support() == {1}
    assert element_from_index(g, 0).support() == set()


def test_group_axioms_small():
    g = build_group_product([[2], [3]])
    els = enumerate_elements(g)
    for a in els:
        assert (a * a.inverse()).index == 0
        for b in els:
            assert (a * b).residues == (b * a).residues


@given(st.integers(0, 23), st.integers(0, 23))
def test_pairing_is_bicharacter(i, j):
    g = build_group_product([[2], [2, 3], [2]])
    table = DualityContext(g).exponents
    k = (i * 7 + 3) % g.order
    ik = (element_from_index(g, i) * element_from_index(g, k)).index
    assert table[ik, j] == (table[i, j] + table[k, j]) % g.exponent
    assert table[i, j] == table[j, i]


def test_pairing_matches_complex_product():
    g = build_group_product([[4], [3]])
    m = g.exponent
    table = DualityContext(g).exponents
    v = g.residue_matrix()
    z = cmath.exp(2j * cmath.pi / m)
    for i in range(g.order):
        for j in range(g.order):
            val = root_of_unity(m, int(table[i, j]))
            direct = 1.0
            for ra, rb, d in zip(v[i], v[j], g.factor_orders):
                direct *= cmath.exp(2j * cmath.pi * ra * rb / d)
            approx = sum(c * z**k for k, c in enumerate(val.coeffs))
            assert abs(direct - approx) < 1e-9


def test_character_orthogonality_per_element():
    # sum over beta of f(alpha, beta) is |H| at identity, 0 elsewhere
    g = build_group_product([[2], [2, 3]])
    table = DualityContext(g).exponents
    for a in range(g.order):
        s = root_of_unity_sum(g.exponent, table[a].tolist())
        assert as_int(s) == (g.order if a == 0 else 0)


def test_validation_errors():
    with pytest.raises(InputError):
        build_group_product([])
    with pytest.raises(InputError):
        build_group_product([[1]])


def test_enumeration_cap_enforced():
    # a product is built without listing it; listing its elements is refused
    tight = RunConfig(enumeration_cap=8)
    group = build_group_product([[2]] * 4)
    with pytest.raises(BudgetError):
        group.residue_matrix(tight)
    assert group.residue_matrix(RunConfig(enumeration_cap=16)).shape == (16, 4)


def test_cap_messages_name_field_amount_and_cap():
    tight = RunConfig(enumeration_cap=8)
    group = build_group_product([[2]] * 4)
    with pytest.raises(BudgetError, match=r"^\|H\| to materialize = 16 exceeds enumeration_cap = 8$"):
        group.residue_matrix(tight)
    # an induced partition lists G only when its class ids are read
    gamma = induce_CO(group, pk_covering(1, 4), tight)
    with pytest.raises(BudgetError, match=r"^\|G\| to list a partition = 16 exceeds enumeration_cap = 8$"):
        gamma.class_ids
