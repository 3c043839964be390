"""One bound's exact value, read from ``bounds.bound_outcomes``."""

from fractions import Fraction

from kforcing.bounds import BoundId, bound_outcomes
from kforcing.records import InvariantRecord


def bound_value(
    bound: BoundId, rec: InvariantRecord, k: int, side: str | None = None
) -> Fraction | None:
    """The bound's value p/q at ``k`` as a ``Fraction``, or None when its
    gate fails. ``side`` picks a direction of the one two-sided bound
    (TREE_LEAF); by default the first is read."""
    for _, _, check_side, *checked in bound_outcomes(rec, [k], [bound]):
        if checked and side in (None, check_side):
            return Fraction(checked[0], checked[1])
    return None
