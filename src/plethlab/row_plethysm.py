"""Large plethysm coefficients against a one-row inner shape.

For an inner shape with a single row, the outer Schur function is expanded
through its Jacobi-Trudi determinant, over its rows or its columns
(whichever side is shorter; the terms are the ones
:func:`lr.dual_pieri_expansion` uses), and composition distributes over the
determinant because composing with a fixed symmetric function is a ring
homomorphism in the first argument. Each determinant term is then a product
of one-piece compositions: complete homogeneous pieces on the row side,
elementary pieces on the column side.

Pairing a determinant term against the target Schur function peels off the
small factors by skew expansions of the target (cheap as long as the peeled
degrees stay small) and finishes with a lookup of the single remaining big
factor:

* for a row of size 2 the lookups are classical closed forms: the complete
  side is supported on partitions with all rows even, the elementary side on
  partitions whose Frobenius arm lengths exceed the leg lengths by exactly
  one, both with multiplicity one;
* for larger rows the one-piece compositions are tabulated by Newton's
  identities lifted through the composition, keeping full Schur expansions
  pruned to an envelope of the target shapes (row bounds, the "cap").
  Pruning is sound because multiplying by a power sum only adds boxes, so
  anything outside a downward-closed envelope can never re-enter it. The
  multiplication (``_horner`` of :mod:`powersum`, which also evaluates the
  full expansions) adds border strips on beta numbers of fixed length
  ``len(cap)`` and rejects a move before building its shape when the shape
  would leave the cap, so no shape outside the envelope is ever made. The
  sums run in integers scaled by m!, which every centralizer order z
  divides, with one exact division per table entry at the end.

The route declines (returns None) when the outer shape is not thin enough or
a determinant term would carry two large factors; callers then fall back to
a slower general method.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from typing import Iterable

from .lr import _jacobi_trudi_terms, dual_pieri_expansion
from .partitions import Partition, as_partition, contains
from .powersum import (
    _exact_quotients,
    _horner,
    _integral_schur,
    _plethysm_items,
    _strip_additions,  # noqa: F401  perfbench/layers.py reads the kernel's cache here
    _trie,
)

__all__ = ["row_coefficient", "warm_tables", "reset_tables"]

# A determinant term may carry at most one factor whose composed degree
# exceeds this; all smaller factors are peeled through skew expansions.
_SMALL_FACTOR_CAP = 18
# Maximum number of Jacobi-Trudi rows (= permutations up to 120 terms).
_THIN_MAX = 5


def _all_even_rows(p: Partition) -> bool:
    return all(part % 2 == 0 for part in p)


def _arm_excess_one(p: Partition) -> bool:
    """True iff every Frobenius arm is exactly one longer than its leg.

    Read off the rows alone: along the diagonal (p_i >= i+1) the i-th column
    has #{j : p_j >= i+1} boxes, and the condition is p_i = that + 1."""
    if not p:
        return False
    rows = len(p)
    for i, part in enumerate(p):
        if part <= i:
            break
        while p[rows - 1] <= i:
            rows -= 1
        if part != rows + 1:
            return False
    return True


class _RowTables:
    """Envelope-pruned Schur expansions of the one-piece compositions.

    ``tables[kind][a]`` maps each partition inside the envelope ``cap`` to
    its coefficient in the composition of (h_a or e_a) with the one-row
    shape. Table a is built from tables a-1, ..., 0 by Newton's identity:
    for each r, :func:`_horner` multiplies table a-r by the composed power
    sums p_(r·κ) over a trie, restricted to the cap. The weights are the row
    shape's m!/z_κ from :func:`_integral_schur`, and :func:`_exact_quotients`
    divides each entry by m!·a once and raises on a remainder.
    Coefficients inside the envelope are exact; growing the envelope resets
    the tables, so callers should warm it with every target shape they will
    query (see :func:`warm_tables`).
    """

    def __init__(self, m: int):
        self.cap = Partition()
        self._targets: tuple[int, ...] = ()  # row-wise union of the target shapes
        self._scale, weights = _integral_schur(Partition((m,)))
        self._row_pexp = tuple(weights.items())
        self._reset()

    def _reset(self) -> None:
        one = {Partition(): 1}
        self.tables: dict[str, list[dict[Partition, int]]] = {
            "h": [dict(one)],
            "e": [dict(one)],
        }

    def extend_cap(self, shapes: Iterable[Partition]) -> None:
        # the slack goes on the union of every target so far, so repeated
        # rebuilds do not ratchet the cap wider than any target needs
        shapes = [self._targets, *shapes]
        rows = max(len(s) for s in shapes)
        targets = tuple(max(s[i] for s in shapes if i < len(s)) for i in range(rows))
        cap = list(targets)
        if cap:
            cap[0] += 2  # mild slack against near-miss rebuilds
            cap.append(min(cap[-1], 1))
        self._targets = targets
        self.cap = Partition(cap)
        self._reset()

    def ensure(self, kind: str, a: int) -> None:
        tabs = self.tables[kind]
        while len(tabs) <= a:
            b = len(tabs)
            acc: defaultdict[Partition, int] = defaultdict(int)
            for r in range(1, b + 1):
                sign = 1 if kind == "h" else (-1) ** (r - 1)
                # increasing parts, so Horner adds the largest strip first; the
                # reverse order builds 14% more kernel entries on the default scan
                trie = _trie(
                    (sorted(r * part for part in kappa), sign * weight)
                    for kappa, weight in self._row_pexp
                )
                _horner(trie, self.cap, tabs[b - r], acc)
            tabs.append(_exact_quotients(acc, self._scale * b))


_tables_for = cache(_RowTables)
reset_tables = _tables_for.cache_clear


def _tables_covering(shapes: list[Partition], m: int) -> _RowTables:
    """The tables for m, their envelope grown first if it misses a shape."""
    tables = _tables_for(m)
    if not all(contains(tables.cap, s) for s in shapes):
        tables.extend_cap(shapes)
    return tables


def warm_tables(nus: Iterable[Iterable[int]], m: int) -> None:
    """Grow the envelope for m once, before a batch of queries.

    Purely a performance hint: queries outside the envelope grow it on the
    fly, at the cost of a table rebuild per growth.
    """
    if m > 2:
        _tables_covering([as_partition(nu) for nu in nus], m)


def row_coefficient(nu: Partition, lam: Partition, m: int) -> int | None:
    """Coefficient of nu in the composition of lam with a one-row shape.

    Returns None when this route does not apply; the caller falls back.
    Assumes the caller already checked degrees and the row-count bound.
    """
    rows, cols = len(lam), lam[0]
    if min(rows, cols) > _THIN_MAX:
        return None
    horizontal, jacobi_trudi = _jacobi_trudi_terms(lam)
    kind = "h" if horizontal else "e"
    terms = []
    for sign, sizes in jacobi_trudi:
        big_i = sizes.index(max(sizes))
        smalls = tuple(
            sorted((s for i, s in enumerate(sizes) if i != big_i and s > 0), reverse=True)
        )
        if smalls and m * smalls[0] > _SMALL_FACTOR_CAP:
            return None
        terms.append((sign, sizes[big_i], smalls))
    if m == 2:
        predicate = _all_even_rows if kind == "h" else _arm_excess_one

        def pair(big: int, level: dict[Partition, int]) -> int:
            return sum(c for rho, c in level.items() if predicate(rho))

    else:
        tables = _tables_covering([nu], m)

        def pair(big: int, level: dict[Partition, int]) -> int:
            tables.ensure(kind, big)
            tab = tables.tables[kind][big]
            return sum(c * tab.get(rho, 0) for rho, c in level.items())

    inner = Partition((m,))
    total = 0
    for sign, big, smalls in terms:
        level: dict[Partition, int] = {nu: 1}
        for s in smalls:
            nxt: defaultdict[Partition, int] = defaultdict(int)
            shape = Partition((s,)) if kind == "h" else Partition((1,) * s)
            expansion = _plethysm_items(shape, inner).items()
            for rho, c in level.items():
                for theta, tc in expansion:
                    for smaller, c2 in dual_pieri_expansion(rho, theta):
                        nxt[smaller] += c * tc * c2
            level = {sh: v for sh, v in nxt.items() if v}
            if not level:
                break
        if level:
            total += sign * pair(big, level)
    return total
