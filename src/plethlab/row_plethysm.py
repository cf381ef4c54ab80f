"""Large plethysm coefficients against a one-row inner shape.

For an inner shape with a single row, the outer Schur function is expanded
through its Jacobi-Trudi determinant, over its rows or its columns,
whichever side is shorter, and composition distributes over the determinant
because composing with a fixed symmetric function is a ring homomorphism in
the first argument. Each determinant term is then a product of one-piece
compositions: complete homogeneous pieces on the row side, elementary pieces
on the column side.

One function, :func:`_term_coefficient`, pairs a determinant term against
the target Schur function: it peels the small factors off the target (see
the end) and looks up the single remaining big factor:

* for a row of size 2 the lookups are classical closed forms: the complete
  side is supported on partitions with all rows even, the elementary side on
  partitions whose Frobenius arm lengths exceed the leg lengths by exactly
  one, both with multiplicity one;
* for larger rows the one-piece compositions are tabulated by Newton's
  identities lifted through the composition: since p_r composed with h_m is
  h_m[p_r], the step is b·T_b = Σ_r ±h_m[p_r]·T_(b-r), and each product
  by h_m[p_r] is read off a signed sum over horizontal strips of m ribbons
  of size r (Lascoux, Leclerc and Thibon, J. Math. Phys. 38 (1997); a case
  of the generalised Murnaghan-Nakayama rule of Evseev, Paget and Wildon).
  Everything is an integer, and each entry is divided by b exactly. The
  full Schur expansions are kept pruned to an envelope: exactly the union
  of the down-sets of the shapes warmed or queried, which all come in
  through :func:`warm_tables`. Membership is a bitmask AND, computed on
  each lookup and stored nowhere. Pruning is sound because a ribbon strip
  only adds boxes, so a coefficient inside a downward-closed envelope
  depends only on coefficients inside it, and a new target's down-set can
  be added to the tables later on its own. The strip kernel of
  :mod:`powersum` moves beads on ``len(cap)`` beta numbers, where the
  "cap" is the targets' row-wise maximum, and a branch ends at the first
  ribbon whose shape leaves the envelope.

The peel reads the same identity for adjoints, b·P_b = Σ_r ±(h_m[p_r])^⊥
P_(b-r) with P_0 the target's expansion so far: each skew by h_m[p_r] is a
signed sum over removals of horizontal strips of m ribbons, again divided by
b exactly. The route answers every outer shape: there is no other route
for a one-row inner shape above the full-expansion cutoff.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from itertools import zip_longest
from typing import Callable, Iterable

from .lr import _jacobi_trudi_terms
from .partitions import Partition, as_partition
from .powersum import (
    _add_ribbon_strips,
    _exact_quotients,
    _remove_ribbon_strips,
    _strip_additions,  # noqa: F401  perfbench/layers.py reads the border-strip cache here
)

__all__ = ["row_coefficient", "warm_tables", "reset_tables"]


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


class _DownSet:
    """Membership in the union of the targets' down-sets, stored nowhere.

    ``self[shape]`` is True when the shape fits inside some target. One
    bitmask per (row i, value v) marks the targets whose row i is at least
    v, and the AND of the masks of a shape's rows marks the targets that
    contain it. ``cap`` is the targets' row-wise maximum, read off the masks.
    """

    def __init__(self, targets: tuple[Partition, ...]):
        self._all = (1 << len(targets)) - 1
        tops = map(max, zip_longest(*targets, fillvalue=0))
        self._masks = [[0] * (top + 1) for top in tops]
        self.cap = Partition(len(row) - 1 for row in self._masks)
        # each target's bit goes in at its own part, then spreads to the smaller values
        for j, target in enumerate(targets):
            for row, part in zip(self._masks, target):
                row[part] |= 1 << j
        for row in self._masks:
            for v in range(len(row) - 2, -1, -1):
                row[v] |= row[v + 1]

    def __getitem__(self, shape: Partition) -> bool:
        masks = self._masks
        hit = self._all if len(shape) <= len(masks) else 0
        for row, part in zip(masks, shape):
            if not hit:
                break
            hit &= row[part] if part < len(row) else 0
        return hit != 0


class _RowTables:
    """Schur expansions of the one-piece compositions on an envelope.

    The envelope is the union of the down-sets of the targets, the shapes
    warmed or queried so far that lay outside it when they came.
    ``inside(shape)`` tests membership, with no memo, and ``cap``, the
    targets' row-wise maximum, gives the number of beta numbers.
    ``tables[kind][a]`` maps each partition inside the envelope to its
    coefficient in the composition of (h_a or e_a) with the one-row shape
    h_m. Table a is built from tables a-1, ..., 0 by Newton's identity: for
    each r, :func:`_add_ribbon_strips` multiplies each entry of table a-r
    inside the envelope by h_m[p_r], and :func:`_exact_quotients` divides
    each total by a once and raises on a remainder. Coefficients inside the
    envelope are exact. A new target, added by :func:`warm_tables`, extends
    every built table in place (:meth:`extend_cap`), so the tables are never
    reset, though a growth recomputes the entries of the old envelope that
    lie below a new target.
    """

    def __init__(self, m: int):
        self._targets: tuple[Partition, ...] = ()
        envelope = _DownSet(self._targets)
        self.inside, self.cap = envelope.__getitem__, envelope.cap
        self._m = m
        one = {Partition(): 1}
        self.tables: dict[str, list[dict[Partition, int]]] = {
            "h": [dict(one)],
            "e": [dict(one)],
        }

    def extend_cap(self, new: Iterable[Partition]) -> None:
        """Add new targets, outside the envelope, and extend the built tables.

        Targets are never dropped. Each built table is then recomputed, in
        increasing order, on the new targets' down-sets alone and merged in:
        a new shape's Newton inputs are the shapes inside it, where the lower
        tables are already complete, and an entry the table already holds is
        recomputed to the same value.
        """
        new = tuple(new)
        self._targets += new
        envelope = _DownSet(self._targets)
        self.inside, self.cap = envelope.__getitem__, envelope.cap
        grown = _DownSet(new).__getitem__
        for kind, tabs in self.tables.items():
            for b in range(1, len(tabs)):
                tabs[b].update(_exact_quotients(self._newton(kind, b, grown), b))

    def _newton(
        self, kind: str, b: int, inside: Callable[[Partition], bool]
    ) -> dict[Partition, int]:
        """b times table b on the shapes that pass inside (a down-closed
        test), from the lower tables' entries that pass it."""
        tabs, n, m = self.tables[kind], len(self.cap), self._m
        acc: defaultdict[Partition, int] = defaultdict(int)
        for r in range(1, b + 1):
            sign = 1 if kind == "h" else (-1) ** (r - 1)
            for shape, c in tabs[b - r].items():
                if inside(shape):
                    _add_ribbon_strips(acc, shape, sign * c, r, m, n, inside)
        return acc

    def ensure(self, kind: str, a: int) -> None:
        tabs = self.tables[kind]
        while len(tabs) <= a:
            b = len(tabs)
            tabs.append(_exact_quotients(self._newton(kind, b, self.inside), b))


_tables_for = cache(_RowTables)
reset_tables = _tables_for.cache_clear


def warm_tables(nus: Iterable[Iterable[int]], m: int) -> None:
    """Add a batch of target shapes for m: the one way targets come in.

    The shapes outside the envelope become targets, and the envelope is the
    union of their down-sets with the earlier ones, so warming batch by batch
    gives the tables of one warm with all of them. :func:`row_coefficient`
    warms each query, so a query outside a caller's warmed batches extends
    the tables by one Newton pass per built table over its down-set.
    """
    if m > 2:
        tables = _tables_for(m)
        new = dict.fromkeys(s for s in map(as_partition, nus) if not tables.inside(s))
        if new:
            tables.extend_cap(new)


def _term_coefficient(kind: str, sizes: tuple[int, ...], nu: Partition, m: int) -> int:
    """Coefficient of nu in the product of (h or e, by kind)_s over the
    positive decreasing sizes, composed with h_m: the smaller factors are
    peeled off nu by ribbon-strip removals, and the largest is read off the
    m = 2 closed forms or the row tables of m, which must already cover nu."""
    big, *smalls = sizes
    level: dict[Partition, int] = {nu: 1}
    for s in smalls:
        peeled = [level]
        for b in range(1, s + 1):
            acc: defaultdict[Partition, int] = defaultdict(int)
            for r in range(1, b + 1):
                for shape, c in peeled[b - r].items():
                    for smaller, sign in _remove_ribbon_strips(shape, r, m):
                        acc[smaller] += sign * c if kind == "h" or r % 2 else -sign * c
            peeled.append(_exact_quotients(acc, b))
        level = peeled[s]
    if m == 2:
        closed_form = _all_even_rows if kind == "h" else _arm_excess_one
        return sum(c for rho, c in level.items() if closed_form(rho))
    tables = _tables_for(m)
    if big >= len(tables.tables[kind]):
        tables.ensure(kind, big)
    table = tables.tables[kind][big]
    return sum(c * table.get(rho, 0) for rho, c in level.items())


def row_coefficient(nu: Partition, lam: Partition, m: int) -> int:
    """Coefficient of nu in the composition of lam with a one-row shape.

    Any outer shape: its determinant is taken over its shorter side.
    Assumes the caller already checked degrees, the row-count bound and m > 1.
    """
    horizontal, terms = _jacobi_trudi_terms(lam)
    warm_tables((nu,), m)
    kind = "h" if horizontal else "e"
    return sum(weight * _term_coefficient(kind, sizes, nu, m) for weight, sizes in terms)
