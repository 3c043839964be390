"""Every proved bound as a pure formula behind its hypothesis gate.

:data:`BOUNDS` is the single statement of the bounds: each entry holds a
gate and one check per direction, all functions of an invariant record
and the index k. A corollary holds its theorem's check under its own
gate. A record computes only the invariants those functions read. Bound
values are exact rationals, never floored, held as integer pairs and
checked in integer arithmetic. A graph failing a gate yields a
not-applicable report, never a vacuous pass. A violated bound in a
report signals an implementation bug (all bounds are proven) and is
surfaced through ``satisfied=False``, never dropped.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .graph import Graph
from .records import InvariantRecord, compute_record


class BoundId(enum.Enum):
    """Identifies one proved inequality; :data:`BOUNDS` states it."""

    LOWER_DEG = "LOWER_DEG"
    MAIN = "MAIN"
    KCOR = "KCOR"
    RATIO = "RATIO"
    CONN_KDOM = "CONN_KDOM"
    CONN_DOM = "CONN_DOM"
    MAIN2 = "MAIN2"
    COR3 = "COR3"
    CHAIN = "CHAIN"
    GAMMA_LOWER = "GAMMA_LOWER"
    HAM_CHORDS = "HAM_CHORDS"
    HAM_CUBIC = "HAM_CUBIC"
    CYCLE_TREE = "CYCLE_TREE"
    TREE_LEAF = "TREE_LEAF"
    TREE_COR = "TREE_COR"
    K1R = "K1R"
    K1R_ALPHA = "K1R_ALPHA"
    CLAWFREE = "CLAWFREE"

    # members are singletons compared by identity, so they may hash by it;
    # Enum's own hash reads the name through a Python-level call
    __hash__ = object.__hash__


ALL_BOUNDS = tuple(BoundId)


class Check(NamedTuple):
    """One direction of a bound: ``value`` bounds ``exact`` from ``side``."""

    side: str  # "upper" | "lower"
    value: Callable[[InvariantRecord, int], tuple[int, int]]
    exact: Callable[[InvariantRecord, int], int]
    detail: Callable[[InvariantRecord, int], tuple] = lambda rec, k: ()  # (name, int) pairs


class Bound(NamedTuple):
    """A gate, whose hypotheses are tested in order up to the first that
    fails, and the checks it admits, in report order."""

    gate: tuple[tuple[str, Callable[[InvariantRecord, int], bool]], ...]  # (name, test)
    checks: tuple[Check, ...]


# the hypotheses that several gates state; a gate's own are written inline
K1 = ("k = 1", lambda rec, k: k == 1)
N_GE_2 = ("n >= 2", lambda rec, k: rec.n >= 2)
CONNECTED = ("connected", lambda rec, k: rec.connected)
K_CONNECTED = ("k-connected", lambda rec, k: rec.n > k and rec.kappa >= k)
TREE = ("tree", lambda rec, k: rec.connected and rec.m == rec.n - 1)
HAMILTONIAN = ("Hamiltonian", lambda rec, k: rec.hamiltonian)
D_GE_K = ("D >= k", lambda rec, k: rec.max_degree >= k)
D_GE_2 = ("D >= 2", lambda rec, k: rec.max_degree >= 2)
MIN_D_GE_1 = ("d >= 1", lambda rec, k: rec.min_degree >= 1)


def _q(p: int, q: int = 1) -> tuple[int, int]:
    """The bound value p/q as its integer pair; every gated q is positive."""
    return p, q


def _f_k(rec: InvariantRecord, k: int) -> int:
    return rec.forcing[k]


def _main2(rec: InvariantRecord, k: int, less: int = 0) -> tuple[int, int]:
    d = rec.max_degree
    return _q((d - 2) * rec.n + 2 - less * (d + k - 2), d + k - 2)


def _k1r_index(rec: InvariantRecord, k: int) -> int:
    return k * (rec.star_free_index - 1)


# the checks of the theorems whose corollaries reuse them under their own gates
KCOR_CHECK = Check("upper", lambda rec, k: _q(
    (rec.max_degree - k + 1) * rec.n, rec.max_degree + 1), _f_k)
CONN_KDOM_CHECK = Check("upper", lambda rec, k: _q(rec.n - rec.gamma_kc[k]), _f_k)
MAIN2_CHECK = Check("upper", _main2, _f_k)
K1R_CHECK = Check("upper", lambda rec, k: _q(rec.n - rec.alpha[k]),
                  lambda rec, k: rec.forcing[_k1r_index(rec, k)],
                  lambda rec, k: (("r", rec.star_free_index), ("index", _k1r_index(rec, k))))

BOUNDS: dict[BoundId, Bound] = {
    BoundId.LOWER_DEG: Bound(  # no hypothesis
        (), (Check("lower", lambda rec, k: _q(rec.min_degree - k + 1), _f_k),)),
    BoundId.MAIN: Bound(
        (D_GE_K, MIN_D_GE_1),
        (Check("upper", lambda rec, k: _q(
            (rec.max_degree - k + 1) * rec.n,
            rec.max_degree - k + 1 + min(rec.min_degree, k)), _f_k),),
    ),
    BoundId.KCOR: Bound((("d >= k", lambda rec, k: rec.min_degree >= k),), (KCOR_CHECK,)),
    BoundId.RATIO: Bound((K1, MIN_D_GE_1), (KCOR_CHECK,)),
    BoundId.CONN_KDOM: Bound((K_CONNECTED,), (CONN_KDOM_CHECK,)),
    BoundId.CONN_DOM: Bound((K1, CONNECTED, N_GE_2), (CONN_KDOM_CHECK,)),
    BoundId.MAIN2: Bound((K_CONNECTED, D_GE_2), (MAIN2_CHECK,)),
    BoundId.COR3: Bound((K1, CONNECTED, D_GE_2), (MAIN2_CHECK,)),
    BoundId.CHAIN: Bound(
        (K1, CONNECTED, D_GE_2),
        (Check("upper", _main2, lambda rec, k: rec.n - rec.gamma_c),),
    ),
    BoundId.GAMMA_LOWER: Bound(
        (K1, CONNECTED, D_GE_2),
        (Check("lower", lambda rec, k: _q(rec.n - 2, rec.max_degree - 1),
               lambda rec, k: rec.gamma_c),),
    ),
    BoundId.HAM_CHORDS: Bound(
        (K1, HAMILTONIAN, ("t >= 1", lambda rec, k: rec.chord_count >= 1)),
        (Check("upper", lambda rec, k: _q(rec.chord_count + 1), _f_k,
               lambda rec, k: (("chords", rec.chord_count),)),),
    ),
    BoundId.HAM_CUBIC: Bound(
        (K1, ("D = 3", lambda rec, k: rec.max_degree == 3), HAMILTONIAN),
        (Check("upper", lambda rec, k: _q(rec.degree3_count + 2, 2), _f_k,
               lambda rec, k: (("degree3", rec.degree3_count),)),),
    ),
    BoundId.CYCLE_TREE: Bound(
        (K1, ("cycle-tree", lambda rec, k: rec.cycle_tree_q is not None)),
        (Check("upper", lambda rec, k: _q(2 * rec.cycle_tree_q), _f_k,
               lambda rec, k: (("cycles", rec.cycle_tree_q),)),),
    ),
    BoundId.TREE_LEAF: Bound(
        (K1, TREE, N_GE_2),
        (Check("lower", lambda rec, k: _q((rec.leaf_count + 1) // 2), _f_k),
         Check("upper", lambda rec, k: _q(rec.leaf_count - 1), _f_k)),
    ),
    BoundId.TREE_COR: Bound(
        (K1, TREE, D_GE_2),
        (Check("upper", lambda rec, k: _main2(rec, k, less=1), _f_k),),
    ),
    BoundId.K1R: Bound((D_GE_K, CONNECTED), (K1R_CHECK,)),
    BoundId.K1R_ALPHA: Bound((K1, MIN_D_GE_1), (K1R_CHECK,)),
    BoundId.CLAWFREE: Bound(
        (D_GE_K, CONNECTED, ("claw-free", lambda rec, k: rec.star_free_index == 3)),
        (Check("upper", K1R_CHECK.value, lambda rec, k: rec.forcing[2 * k],
               lambda rec, k: (("index", 2 * k),)),),
    ),
}


class BoundReport(NamedTuple):
    """Outcome of one bound check on one graph.

    ``side`` says whether the formula bounds the exact quantity from
    above or below; slack is non-negative whenever the inequality holds.
    """

    k: int
    bound: BoundId
    side: str  # "upper" | "lower"
    applicable: bool
    bound_value: Fraction | None = None
    exact_value: int | None = None
    slack: Fraction | None = None
    equality: bool | None = None
    satisfied: bool | None = None
    detail: tuple[tuple[str, int], ...] = ()


def bound_outcomes(
    rec: InvariantRecord, ks: Sequence[int], ids: Sequence[BoundId] = ALL_BOUNDS
) -> list[tuple]:
    """Each check's outcome in integers, for each k in turn, in ``ids`` order.

    Not applicable: ``(k, bound, side)``, the side of the entry's last check.
    Applicable: ``(k, bound, side, p, q, exact, d, detail)``, whose bound
    value is p/q (q > 0, not always in lowest terms) and d = q * slack.
    """
    entries = [(bound, BOUNDS[bound]) for bound in ids]
    outcomes = []
    for k in ks:
        for bound, entry in entries:
            for _, holds in entry.gate:
                if not holds(rec, k):
                    outcomes.append((k, bound, entry.checks[-1].side))
                    break
            else:
                for side, value, exact, detail in entry.checks:
                    p, q = value(rec, k)
                    x = exact(rec, k)
                    outcomes.append((k, bound, side, p, q, x,
                                     p - x * q if side == "upper" else x * q - p,
                                     detail(rec, k)))
    return outcomes


def evaluate_bounds(
    g: Graph,
    ks: Sequence[int],
    ids: Sequence[BoundId] = ALL_BOUNDS,
    rec: InvariantRecord | None = None,
) -> list[BoundReport]:
    """Evaluate bounds against exact values: one report per check, holding
    its :func:`bound_outcomes` outcome with the rationals as ``Fraction``s.

    Reports come out sorted by k, then bound id (declaration order),
    then side, each k and bound once; TREE_LEAF contributes a lower and
    an upper report.
    """
    if any(k < 1 for k in ks):
        raise ValueError(f"forcing indices must be positive: {tuple(ks)}")
    if rec is None:
        rec = compute_record(g)
    ids = [bound for bound in BoundId if bound in ids]
    reports = []
    for k, bound, side, *checked in bound_outcomes(rec, sorted(set(ks)), ids):
        if not checked:
            reports.append(BoundReport(k, bound, side, False))
            continue
        p, q, exact, d, detail = checked
        reports.append(BoundReport(k, bound, side, True, Fraction(p, q), exact,
                                   Fraction(d, q), d == 0, d >= 0, detail))
    return reports
