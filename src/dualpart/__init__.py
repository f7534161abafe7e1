"""Dual partitions of finite abelian group products.

Exact character-sum duality for partitions induced by weighted poset metrics
and combinatorial (covering) metrics, Krawtchouk-polynomial reflexivity
criteria with exact root isolation, and MacWilliams identity / extension
property machinery over prime fields.
"""

from .config import BudgetError, DualpartError, InputError, RunConfig, DEFAULT_CONFIG
from .exactarith import CycInt, root_of_unity_sum
from .groups import GroupProduct, build_group_product
from .posets import Poset, antichain, chain, validate_and_close
from .metrics import Covering, WeightFunction, covering_from_members, pk_covering
from .partitions import (
    DualityContext,
    Partition,
    induce_CO,
    induce_Q,
    reflexivity_check,
)

__all__ = [
    "BudgetError",
    "CycInt",
    "Covering",
    "DEFAULT_CONFIG",
    "DualityContext",
    "DualpartError",
    "GroupProduct",
    "InputError",
    "Partition",
    "Poset",
    "RunConfig",
    "WeightFunction",
    "antichain",
    "build_group_product",
    "chain",
    "covering_from_members",
    "induce_CO",
    "induce_Q",
    "pk_covering",
    "reflexivity_check",
    "root_of_unity_sum",
    "validate_and_close",
]

__version__ = "0.1.0"
