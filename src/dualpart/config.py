"""Run configuration and budget guards.

All size/work limits live here so that library callers and the CLI share one
notion of "too big".  Budget violations always raise; nothing is silently
truncated.
"""

from __future__ import annotations

import dataclasses


class DualpartError(Exception):
    """Base class for all library errors."""

    #: short machine-parsable reason code, used by the CLI exit path
    code = "error"


class InputError(DualpartError):
    """Malformed or invalid input data."""

    code = "invalid-input"


class BudgetError(DualpartError):
    """A configured enumeration or work budget would be exceeded."""

    code = "budget-exceeded"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Caps and budgets.

    enumeration_cap: maximum group order where elements are listed (the
                     residue matrix, and the pull-back of a support-induced
                     partition's class ids to G), maximum exponent m of a
                     duality context (its Phi_m is listed), maximum number
                     p^dim of codewords listed for a linear code, and
                     maximum number of subspaces of F_p^N (the sum of the
                     Gaussian binomials) that the all-codes MacWilliams
                     check lists, checked before it lists any.
    pair_work_cap:   maximum cells of a dual-partition engine: for the
                     pairwise engine, |G|*|H| for the pairing table, |G| *
                     k for the class sums evaluated at the split prime (k
                     classes), |G| * phi(m) for the index of u*a at every
                     unit u of Z/m (m the exponent), and rows * k *
                     deg(Phi_m) for the cyclotomic coordinates of the rows
                     it folds, one per dual class, when a dual is numbered
                     and labelled; states * k * sum(n_b + 1) for each
                     transform of the twin-class engine (twin blocks of
                     sizes n_b, prod(n_b + 1) states), which pads its dual
                     to rows * k * deg(Phi_m) label cells too.  Also the
                     states of a support-induced partition, the 2^n *
                     members covering weights of a covering, the |V|^2
                     orthogonality table of the MacWilliams statements,
                     the |V|^2 addition table of the invariance-subgroup
                     search, and the 2|V|^2 cells of each
                     colour-refinement round before that search.  Each is
                     checked before its cells are allocated.
    ideal_cap_n:     maximum poset size for ideal enumeration.
    aut_cap_n:       maximum poset size for the automorphism-group search.
    krawtchouk_cap_n: maximum n and k of a Krawtchouk polynomial that
                     ``ku_build`` or ``ku_roots`` is asked for (and of
                     ``krawtchouk --n/--k``), maximum n of the value
                     table, distinct-value counts and profile prefix
                     sums of ``scan-co`` and ``refute``, and maximum last
                     n of a ``scan-co`` range, checked before any
                     polynomial or table is built.  A scan row costs
                     O(n^2) big-integer operations for its value table and
                     profiles; a polynomial of degree k costs O(k^2) for
                     its coefficients, O(nk) for its values at 0..n, which
                     place each root, and O(k) per pass of the recurrence
                     that refines a root: 5.4 to 6.4 passes per root on
                     the criteria workload's root ladder at width 1e-9
                     (``tests/test_krawtchouk.py`` allows 12), and about
                     4 at n = k = 512.
    """

    enumeration_cap: int = 1 << 24
    pair_work_cap: int = 1 << 26
    ideal_cap_n: int = 20
    aut_cap_n: int = 12
    krawtchouk_cap_n: int = 512

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"{field.name} must be an integer, got {value!r}")
        if self.enumeration_cap <= 0 or self.pair_work_cap <= 0:
            raise InputError("caps must be positive")

    def check(self, field: str, asked: int, what: str) -> None:
        """Raise BudgetError if ``asked`` exceeds the cap named ``field``;
        the message names the amount asked for, the field and the cap."""
        cap = getattr(self, field)
        if asked > cap:
            raise BudgetError(f"{what} = {asked} exceeds {field} = {cap}")


DEFAULT_CONFIG = RunConfig()
