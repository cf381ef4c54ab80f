"""Integer partitions, skew shapes, and diagram growth operators.

Every value is immutable and canonical: a :class:`Partition` never stores
trailing zeros, so equal partitions compare and hash equal, which makes
memoization throughout the package trivial. Python integers are unbounded,
so overflow is structurally impossible.

Text syntax (shared with the command line): comma separated parts, e.g.
``3,2,1``; the empty partition is the empty string or ``0``. A skew shape is
``outer/inner``, e.g. ``3,2,1/1,1``; a plain partition parses as a skew
shape with empty inner part.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "ExactnessError",
    "Partition",
    "SkewShape",
    "conjugate",
    "add",
    "union_sort",
    "remove_first_column",
    "grow_arm_legs",
    "grow_line",
    "grow_skew_arm_legs",
    "grow_skew_line",
    "contains",
    "dominates",
    "partitions_of",
    "partitions_between",
    "parse_partition",
    "parse_skew",
    "format_partition",
    "format_skew",
]


class ExactnessError(ArithmeticError):
    """An exact computation produced a non-integral or inconsistent value.

    This always signals an internal bug (or an input outside the documented
    domain), never a rounding issue: there is no floating point anywhere.
    """


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    The constructor accepts any iterable of nonnegative integers (a float,
    even ``2.0``, raises TypeError) in weakly decreasing order and strips
    trailing zeros. ``Partition()`` is the empty partition.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(map(index, parts))
        prev = None
        for p in parts:
            if p < 0:
                raise ValueError(f"parts must be nonnegative, got {p}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
            prev = p
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        """Number of boxes, i.e. the sum of the parts."""
        return sum(self)

    @property
    def length(self) -> int:
        """Number of (positive) parts."""
        return len(self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


_EMPTY = Partition()


class SkewShape(NamedTuple):
    """Ordered pair (outer, inner) of partitions.

    Containment of the inner shape is deliberately not required: a pair with
    ``inner`` not contained in ``outer`` is a valid value that denotes the
    zero skew Schur function, and downstream operations treat it as such.
    """

    outer: Partition
    inner: Partition

    @classmethod
    def straight(cls, outer: Iterable[int]) -> "SkewShape":
        return cls(as_partition(outer), _EMPTY)

    @property
    def is_contained(self) -> bool:
        return contains(self.outer, self.inner)

    @property
    def size(self) -> int:
        """Number of boxes of the diagram difference.

        Equals ``outer.size - inner.size`` whenever the inner shape is
        contained in the outer one.
        """
        inner = self.inner
        return sum(
            max(0, o - (inner[i] if i < len(inner) else 0))
            for i, o in enumerate(self.outer)
        )


def as_partition(value: Iterable[int] | Partition) -> Partition:
    """Coerce an iterable of parts to a canonical Partition."""
    return value if type(value) is Partition else Partition(value)


def as_skew(value) -> SkewShape:
    """Coerce a SkewShape, a partition, or an (outer, inner) pair.

    A SkewShape whose parts are already Partitions is returned as it is."""
    if isinstance(value, SkewShape):
        if type(value.outer) is type(value.inner) is Partition:
            return value
        return SkewShape(as_partition(value.outer), as_partition(value.inner))
    if isinstance(value, Partition):
        return SkewShape(value, _EMPTY)
    value = tuple(value)
    if len(value) == 2 and not all(isinstance(v, int) for v in value):
        return SkewShape(as_partition(value[0]), as_partition(value[1]))
    return SkewShape(Partition(value), _EMPTY)


def conjugate(p: Iterable[int]) -> Partition:
    """Transpose the diagram: column lengths become the parts."""
    p = as_partition(p)
    if not p:
        return _EMPTY
    cols = [0] * p[0]
    for part in p:
        for c in range(part):
            cols[c] += 1
    return Partition(cols)


def add(a: Iterable[int], b: Iterable[int]) -> Partition:
    """Componentwise sum, the shorter operand padded with zeros."""
    a, b = as_partition(a), as_partition(b)
    if len(a) < len(b):
        a, b = b, a
    return Partition(
        tuple(x + y for x, y in zip(a, b)) + a[len(b):]
    )


def union_sort(a: Iterable[int], b: Iterable[int]) -> Partition:
    """Multiset union of the parts, re-sorted weakly decreasing."""
    a, b = as_partition(a), as_partition(b)
    return Partition(sorted(a + b, reverse=True))


def remove_first_column(p: Iterable[int]) -> Partition:
    """Delete the leftmost column of the diagram (subtract 1 from each part)."""
    p = as_partition(p)
    return Partition(x - 1 for x in p)


def _check_growth_params(l: int, m: int, j: int) -> None:
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if not 0 <= l <= m:
        raise ValueError(f"l must satisfy 0 <= l <= m, got l={l}, m={m}")
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")


def grow_arm_legs(a: Iterable[int], l: int, m: int, j: int) -> Partition:
    """Widen the first row by l*j boxes and append j rows of width m-l.

    The result has size ``|a| + m*j``; j = 0 returns the input unchanged.
    """
    _check_growth_params(l, m, j)
    a = as_partition(a)
    first = a[0] if a else 0
    return Partition(sorted((first + l * j, *a[1:], *(m - l,) * j), reverse=True))


def grow_line(a: Iterable[int], l: int, m: int, j: int) -> Partition:
    """Grow by a single line of j boxes: a row when m+l is even, else a column."""
    _check_growth_params(l, m, j)
    a = as_partition(a)
    if (m + l) % 2 == 0:
        return Partition(((a[0] if a else 0) + j, *a[1:]))
    return Partition(a + (1,) * j)


def grow_skew_arm_legs(s: SkewShape, l: int, m: int, j: int) -> SkewShape:
    """Apply :func:`grow_arm_legs` to the outer partition; inner unchanged."""
    s = as_skew(s)
    return SkewShape(grow_arm_legs(s.outer, l, m, j), s.inner)


def grow_skew_line(s: SkewShape, l: int, m: int, j: int) -> SkewShape:
    """Apply :func:`grow_line` to the outer partition; inner unchanged."""
    s = as_skew(s)
    return SkewShape(grow_line(s.outer, l, m, j), s.inner)


def contains(outer: Iterable[int], inner: Iterable[int]) -> bool:
    """True iff the inner diagram fits inside the outer one, row by row."""
    if not (type(outer) is type(inner) is Partition):
        outer, inner = as_partition(outer), as_partition(inner)
    if len(inner) > len(outer):
        return False
    for a, b in zip(inner, outer):
        if a > b:
            return False
    return True


def dominates(a: Iterable[int], b: Iterable[int]) -> bool:
    """Dominance order on partitions of equal size: prefix sums of a cover b's."""
    a, b = as_partition(a), as_partition(b)
    if a.size != b.size:
        raise ValueError("dominance compares partitions of equal size")
    ta = tb = 0
    for i in range(max(len(a), len(b))):
        ta += a[i] if i < len(a) else 0
        tb += b[i] if i < len(b) else 0
        if ta < tb:
            return False
    return True


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, exactly once, in reverse-lexicographic order.

    The order starts at ``(n)`` and ends at ``(1, ..., 1)``; it is
    deterministic, so reports built by iterating it are reproducible. This
    is :func:`partitions_between` from the empty shape to the n-by-n square.
    """
    return partitions_between((), (n,) * n, n)


def partitions_between(
    lo: Iterable[int], hi: Iterable[int], n: int
) -> Iterator[Partition]:
    """The partitions of n that contain lo and lie inside hi, each exactly
    once, in the reverse-lexicographic order of :func:`partitions_of`.

    Empty when lo is not inside hi or n lies outside [|lo|, |hi|]. The walk
    has no dead end: the partitions between two nested shapes take every
    size in between (Young's lattice is graded), so a part p fits in row i
    exactly when lo's lower rows still fit in what is left and rows i.. of
    hi, cut to width p, can hold all that remains.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    lo, hi = as_partition(lo), as_partition(hi)
    if not contains(hi, lo) or not sum(lo) <= n <= sum(hi):
        return
    rows = len(hi)
    lo = lo + (0,) * (rows - len(lo))
    # tail[i]: boxes of lo in rows i..; room[i][w]: boxes of hi in rows i..
    # cut to width w <= hi[i]
    tail = [0] * (rows + 1)
    room: list[list[int]] = [[]] * rows
    below = [0]
    for i in range(rows - 1, -1, -1):
        tail[i] = tail[i + 1] + lo[i]
        below = below + [below[-1]] * (hi[i] + 1 - len(below))
        below = room[i] = [w + b for w, b in enumerate(below)]
    parts: list[int] = []
    i, prev, rem = 0, n, n
    while True:
        # fill rows i.. with the largest parts that leave a completion
        while rem:
            p = min(prev, hi[i], rem - tail[i + 1])
            parts.append(p)
            rem -= p
            prev = p
            i += 1
        yield tuple.__new__(Partition, parts)
        # shrink the lowest row that can lose a box
        i = len(parts)
        while True:
            i -= 1
            if i < 0:
                return
            p = parts[i]
            rem += p
            if p > lo[i] and room[i][p - 1] >= rem:
                break
        del parts[i:]
        p -= 1
        parts.append(p)
        rem -= p
        prev = p
        i += 1


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text syntax; '' and '0' give the empty partition."""
    text = text.strip()
    if text in ("", "0"):
        return _EMPTY
    parts = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            parts.append(int(tok))
        except ValueError:
            raise ValueError(f"malformed partition text: {text!r}") from None
    try:
        return Partition(parts)
    except ValueError as exc:
        raise ValueError(f"invalid partition {text!r}: {exc}") from None


def parse_skew(text: str) -> SkewShape:
    """Parse ``outer/inner`` text; a plain partition means empty inner shape."""
    if "/" in text:
        outer_text, _, inner_text = text.partition("/")
        return SkewShape(parse_partition(outer_text), parse_partition(inner_text))
    return SkewShape(parse_partition(text), _EMPTY)


def format_partition(p: Iterable[int]) -> str:
    p = as_partition(p)
    return ",".join(map(str, p)) if p else "0"


def format_skew(s: SkewShape) -> str:
    s = as_skew(s)
    if s.inner:
        return f"{format_partition(s.outer)}/{format_partition(s.inner)}"
    return format_partition(s.outer)
