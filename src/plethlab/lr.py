"""Littlewood-Richardson fillings and coefficients.

A filling of a skew diagram is admissible when rows weakly increase left to
right, columns strictly increase top to bottom, and the reading word (right
to left along each row, rows taken top to bottom) is a lattice word: each
value v > 1 may only appear once strictly more copies of v-1 have been read.
The coefficient c^nu_{lambda,mu} counts admissible fillings of nu/mu whose
content is lambda.

Enumeration is a backtracking search over the boxes in reading order; the
lattice condition is a prefix property, so every constraint is checked the
moment a box is filled and dead branches are cut immediately.

For large diagrams the package never enumerates fillings of the big shape.
Skew expansions of large shapes by a small removed shape go through
:func:`dual_pieri_expansion`, an iterated horizontal strip removal driven by
the Jacobi-Trudi determinant of the small shape (conjugated first when it is
tall). The two routes compute the same numbers and are tested against each
other.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from itertools import permutations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .partitions import (
    ExactnessError,
    Partition,
    SkewShape,
    as_partition,
    as_skew,
    conjugate,
    contains,
    partitions_between,
)

__all__ = [
    "is_lattice_word",
    "LRFilling",
    "lr_fillings",
    "lr_coefficient",
    "skew_schur_expansion",
    "dual_pieri_expansion",
]


def is_lattice_word(seq: Sequence[int]) -> bool:
    """True iff every prefix has at least as many i's as (i+1)'s, all i."""
    counts: defaultdict[int, int] = defaultdict(int)
    for v in seq:
        if v < 1:
            raise ValueError(f"lattice words contain positive integers, got {v}")
        if v != 1 and counts[v - 1] <= counts[v]:
            return False
        counts[v] += 1
    return True


def _inner_bound(inner: Partition, r: int) -> int:
    return inner[r] if r < len(inner) else 0


def _reading_boxes(outer: Partition, inner: Partition) -> list[tuple[int, int]]:
    """Boxes of outer minus inner in reading order (rows top to bottom, each
    row right to left)."""
    boxes = []
    for r, hi in enumerate(outer):
        for c in range(hi - 1, _inner_bound(inner, r) - 1, -1):
            boxes.append((r, c))
    return boxes


def _iter_words(
    outer: Partition, inner: Partition, lam: Partition | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield the reading words of all admissible fillings of outer/inner.

    With ``lam`` given, only fillings of that content are produced (with
    pruning as the counts fill up). Entries never exceed their 1-based row
    index, a consequence of the lattice condition used as a search bound.
    This is where the enumeration route decides that an inner shape which
    does not fit in ``outer`` has no fillings: it yields nothing.
    """
    if not contains(outer, inner):
        return
    boxes = _reading_boxes(outer, inner)
    n = len(boxes)
    if n == 0:
        if lam is None or not lam:
            yield ()
        return
    if lam is not None and lam.size != n:
        return
    bound = len(lam) if lam is not None else len(outer)
    grid: dict[tuple[int, int], int] = {}
    counts = [0] * (bound + 2)
    word: list[int] = []

    def place(k: int) -> Iterator[tuple[int, ...]]:
        if k == n:
            if lam is None or all(counts[v + 1] == lam[v] for v in range(len(lam))):
                yield tuple(word)
            return
        r, c = boxes[k]
        right = grid.get((r, c + 1))
        above = grid.get((r - 1, c))
        vmax = min(bound, r + 1)
        if right is not None and right < vmax:
            vmax = right
        for v in range(1, vmax + 1):
            if above is not None and v <= above:
                continue
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            if lam is not None and counts[v] >= lam[v - 1]:
                continue
            grid[(r, c)] = v
            counts[v] += 1
            word.append(v)
            yield from place(k + 1)
            word.pop()
            counts[v] -= 1
            del grid[(r, c)]

    yield from place(0)


def _word_type(word: Sequence[int]) -> Partition:
    if not word:
        return Partition()
    mult = [0] * max(word)
    for v in word:
        mult[v - 1] += 1
    # weakly decreasing by the lattice condition; the constructor raises otherwise
    return Partition(mult)


class LRFilling(NamedTuple):
    """An admissible filling: the shape plus the values of its boxes.

    ``rows[r]`` lists the values of row r left to right, skew boxes only.
    """

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    @property
    def weight(self) -> Partition:
        """The content: weight[i] counts the occurrences of i+1."""
        return _word_type(self.reading_word())

    def reading_word(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in reversed(row))

    def boxes(self) -> Iterator[tuple[tuple[int, int], int]]:
        inner = self.shape.inner
        for r, row in enumerate(self.rows):
            start = _inner_bound(inner, r)
            for i, v in enumerate(row):
                yield (r, start + i), v


def _word_to_rows(
    outer: Partition, inner: Partition, word: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    rows = []
    pos = 0
    for r, hi in enumerate(outer):
        width = hi - _inner_bound(inner, r)
        rows.append(tuple(reversed(word[pos:pos + width])))
        pos += width
    return tuple(rows)


def lr_fillings(s: SkewShape) -> tuple[LRFilling, ...]:
    """All admissible fillings of the skew shape, any content; none when the
    inner shape does not fit in the outer one."""
    s = as_skew(s)
    out = []
    for word in _iter_words(s.outer, s.inner):
        filling = LRFilling(s, _word_to_rows(s.outer, s.inner, word))
        if not is_lattice_word(filling.reading_word()) or filling.weight.size != s.size:
            raise ExactnessError(f"inadmissible filling {filling.rows} of {s}")
        out.append(filling)
    return tuple(out)


def lr_coefficient(nu: Iterable[int], lam: Iterable[int], mu: Iterable[int]) -> int:
    """Number of admissible fillings of nu/mu with content lam.

    Zero whenever |nu| != |lam| + |mu| or mu is not contained in nu. Counting
    never materializes the fillings.
    """
    nu, lam, mu = as_partition(nu), as_partition(lam), as_partition(mu)
    if nu.size != lam.size + mu.size:
        return 0
    return sum(1 for _ in _iter_words(nu, mu, lam))


def skew_schur_expansion(s: SkewShape) -> dict[Partition, int]:
    """Expand the skew Schur function of the shape: content -> multiplicity,
    with the contents in increasing order.

    The zero function (inner not contained) gives the empty mapping; a
    straight shape gives ``{outer: 1}``.
    """
    s = as_skew(s)
    counter: defaultdict[Partition, int] = defaultdict(int)
    for word in _iter_words(s.outer, s.inner):
        counter[_word_type(word)] += 1
    return dict(sorted(counter.items()))


# ---------------------------------------------------------------------------
# Strip-removal route for large shapes
# ---------------------------------------------------------------------------


@cache
def _hstrip_removals(shape: Partition, k: int) -> tuple[Partition, ...]:
    """Partitions obtained by removing a horizontal strip of k boxes: those
    of |shape| - k boxes between shape without its first row and shape
    itself, which are the ones interlacing shape."""
    if k > shape.size:
        return ()
    return tuple(partitions_between(shape[1:], shape, shape.size - k))


@cache
def _jacobi_trudi_terms(theta: Partition) -> tuple[bool, tuple[tuple[int, tuple[int, ...]], ...]]:
    """Jacobi-Trudi terms of a nonempty theta: (horizontal, ((weight, sizes), ...)).

    Over the rows of theta (h entries, ``horizontal``) or its columns (e
    entries), whichever side is shorter: a permutation w of that side's parts
    gives sign(w) and the sizes parts[i] - i + w(i), unless one is negative.
    Each product appears once, its positive sizes decreasing, weighted by
    the sum of its signs; a product of weight 0 is dropped.
    """
    horizontal = len(theta) <= theta[0]
    parts = theta if horizontal else conjugate(theta)
    k = len(parts)
    weights: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for w in permutations(range(k)):
        sizes = [parts[i] - i + w[i] for i in range(k)]
        if min(sizes) < 0:
            continue
        inversions = sum(w[i] > w[j] for i in range(k) for j in range(i + 1, k))
        weights[tuple(sorted(filter(None, sizes), reverse=True))] += -1 if inversions % 2 else 1
    return horizontal, tuple((c, sizes) for sizes, c in weights.items() if c)


@cache
def dual_pieri_expansion(rho: Partition, theta: Partition) -> tuple[tuple[Partition, int], ...]:
    """Schur expansion of the skew shape rho/theta as (shape, coefficient) pairs.

    Same numbers as :func:`skew_schur_expansion` of ``rho/x`` read the other
    way: the pair ``(x, c)`` satisfies c = c^rho_{theta,x}. Computed by
    applying each product of theta's Jacobi-Trudi determinant over its rows,
    once and times its weight, to rho as iterated horizontal strip removals,
    which scales to large rho while theta stays small. A theta with more rows
    than columns goes through conjugation: c^rho_{theta,x} = c^rho'_{theta',x'}.
    """
    if not theta:
        return ((rho, 1),)
    if not contains(rho, theta):
        return ()
    horizontal, terms = _jacobi_trudi_terms(theta)
    if not horizontal:
        flipped = dual_pieri_expansion(conjugate(rho), conjugate(theta))
        return tuple(sorted((conjugate(x), c) for x, c in flipped))
    acc: defaultdict[Partition, int] = defaultdict(int)
    for weight, sizes in terms:
        level: dict[Partition, int] = {rho: 1}
        for s in sizes:
            nxt: defaultdict[Partition, int] = defaultdict(int)
            for shape, c in level.items():
                for sub in _hstrip_removals(shape, s):
                    nxt[sub] += c
            level = nxt
            if not level:
                break
        for shape, c in level.items():
            acc[shape] += weight * c
    result = tuple((p, c) for p, c in sorted(acc.items()) if c)
    if any(c <= 0 for _, c in result):
        raise ExactnessError(f"negative coefficient in the expansion of {rho}/{theta}")
    return result
