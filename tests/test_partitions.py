from hypothesis import example, given, settings, strategies as st
import pytest

from plethlab import (
    Partition,
    SkewShape,
    add,
    conjugate,
    contains,
    dominates,
    format_partition,
    format_skew,
    grow_arm_legs,
    grow_line,
    grow_skew_arm_legs,
    grow_skew_line,
    parse_partition,
    parse_skew,
    partitions_between,
    partitions_of,
    remove_first_column,
    union_sort,
)
from plethlab.partitions import as_skew


@st.composite
def partition_strategy(draw, max_size=12):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = n
    bound = n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return Partition(parts)


def reference_partition_count(n):
    """Independent count of partitions of n (restricted-parts recursion)."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for total in range(1, n + 1):
        for largest in range(1, n + 1):
            table[total][largest] = table[total][largest - 1] + (
                table[total - largest][min(largest, total - largest)]
                if largest <= total
                else 0
            )
    return table[n][n]


def test_constructor_canonicalizes():
    assert Partition((3, 2, 0, 0)) == (3, 2)
    assert Partition(()) == ()
    assert Partition((5,)).size == 5
    assert Partition((3, 1)).length == 2


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, -1))
    # parts are converted with operator.index, never truncated
    for parts in ((2.5, 1), (2.0,), (3, 1.0)):
        with pytest.raises(TypeError):
            Partition(parts)


def test_conjugate_examples():
    assert conjugate(Partition((3, 1))) == (2, 1, 1)
    assert conjugate(Partition(())) == ()
    assert conjugate(Partition((2, 2))) == (2, 2)


def test_add_examples():
    assert add(Partition((2, 1)), Partition((3,))) == (5, 1)
    lam = Partition((4, 2, 1))
    assert add(lam, Partition(())) == lam
    assert add(Partition((1, 1)), Partition((1, 1))) == (2, 2)


def test_union_examples():
    assert union_sort(Partition((2, 1)), Partition((1, 1))) == (2, 1, 1, 1)
    lam = Partition((3, 2))
    assert union_sort(lam, Partition(())) == lam
    assert union_sort(Partition((3,)), Partition((5,))) == (5, 3)


def test_remove_first_column():
    assert remove_first_column(Partition((3, 2, 1))) == (2, 1)
    assert remove_first_column(Partition((1, 1, 1))) == ()
    assert remove_first_column(Partition(())) == ()


def test_grow_arm_legs_examples():
    assert grow_arm_legs(Partition((2, 1)), 1, 2, 3) == (5, 1, 1, 1, 1)
    assert grow_arm_legs(Partition((3, 2)), 0, 3, 0) == (3, 2)
    assert grow_arm_legs(Partition((2,)), 2, 2, 2) == (6,)


def test_grow_line_examples():
    assert grow_line(Partition((2, 1)), 1, 2, 2) == (2, 1, 1, 1)
    assert grow_line(Partition((2, 1)), 2, 2, 2) == (4, 1)
    assert grow_line(Partition((3,)), 0, 3, 0) == (3,)


def test_grow_rejects_bad_parameters():
    with pytest.raises(ValueError):
        grow_arm_legs(Partition((1,)), 3, 2, 1)
    with pytest.raises(ValueError):
        grow_arm_legs(Partition((1,)), -1, 2, 1)
    with pytest.raises(ValueError):
        grow_line(Partition((1,)), 3, 2, 1)


def test_grow_skew_touches_outer_only():
    s = SkewShape(Partition((2, 1)), Partition((1,)))
    grown = grow_skew_arm_legs(s, 1, 2, 1)
    assert grown == SkewShape(Partition((3, 1, 1)), Partition((1,)))
    assert grow_skew_arm_legs(s, 1, 2, 0) == s
    straight = SkewShape.straight((2, 1))
    assert grow_skew_line(straight, 1, 2, 2).outer == grow_line(
        Partition((2, 1)), 1, 2, 2
    )


def test_contains_examples():
    assert contains(Partition((3, 2)), Partition((2, 1)))
    assert not contains(Partition((2,)), Partition((1, 1)))
    assert contains(Partition((4, 1)), Partition(()))


def test_dominates_examples():
    assert dominates(Partition((4,)), Partition((2, 2)))
    assert not dominates(Partition((2, 2)), Partition((3, 1)))
    assert dominates(Partition((3, 1)), Partition((3, 1)))
    with pytest.raises(ValueError):
        dominates(Partition((2,)), Partition((1,)))


def test_dominance_is_a_partial_order():
    for n in range(0, 9):
        parts = list(partitions_of(n))
        for a in parts:
            assert dominates(a, a)
        for a in parts:
            for b in parts:
                if dominates(a, b) and dominates(b, a):
                    assert a == b
        for a in parts:
            for b in parts:
                if not dominates(a, b):
                    continue
                for c in parts:
                    if dominates(b, c):
                        assert dominates(a, c)


def test_partition_counts_match_reference():
    for n in range(0, 21):
        assert sum(1 for _ in partitions_of(n)) == reference_partition_count(n)


def test_partitions_of_order_and_uniqueness():
    got = [tuple(p) for p in partitions_of(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(0, 13):
        seen = list(partitions_of(n))
        assert len(seen) == len(set(seen))
        assert all(p.size == n for p in seen)
        assert seen == sorted(seen, reverse=True)


@given(
    partition_strategy(max_size=8),
    partition_strategy(max_size=10),
    st.integers(min_value=0, max_value=14),
)
@settings(max_examples=300, deadline=None)
@example(Partition(()), Partition((3, 1)), 2)
@example(Partition(()), Partition(()), 0)
@example(Partition((1,)), Partition(()), 1)
@example(Partition((3,)), Partition((2, 2)), 3)
@example(Partition((2, 1)), Partition((2, 2)), 5)
@example(Partition((2, 1)), Partition((3, 3)), 2)
@example(Partition((2, 1)), Partition((4, 2, 2, 1)), 7)
def test_partitions_between_is_partitions_of_filtered(lo, hi, n):
    got = list(partitions_between(lo, hi, n))
    assert got == [p for p in partitions_of(n) if contains(p, lo) and contains(hi, p)]
    assert all(type(p) is Partition and Partition(p) == p for p in got)


def test_partitions_of_yields_canonical_partitions():
    for n in range(0, 13):
        assert all(type(p) is Partition and Partition(p) == p for p in partitions_of(n))
    for walk in (partitions_of(-1), partitions_between((), (2,), -1)):
        with pytest.raises(ValueError, match="got -1"):
            next(walk)


@given(partition_strategy())
@settings(max_examples=80, deadline=None)
def test_conjugate_is_an_involution(p):
    assert conjugate(conjugate(p)) == p


@given(partition_strategy(max_size=8), partition_strategy(max_size=8))
@settings(max_examples=80, deadline=None)
def test_sizes_add(a, b):
    assert add(a, b).size == a.size + b.size
    assert union_sort(a, b).size == a.size + b.size


@given(partition_strategy(max_size=8), partition_strategy(max_size=8))
@settings(max_examples=80, deadline=None)
def test_conjugate_swaps_union_and_add(a, b):
    assert conjugate(union_sort(a, b)) == add(conjugate(a), conjugate(b))


@given(
    partition_strategy(max_size=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=5),
)
@example(Partition(()), 3, 1, 2)
@example(Partition(()), 2, 0, 3)
@example(Partition((2, 1)), 3, 3, 2)
@example(Partition((4, 1)), 3, 1, 0)
@settings(max_examples=120, deadline=None)
def test_growth_sizes_and_one_step_composition(p, m, l, j):
    if l > m:
        l = l % (m + 1)
    # each operator is its definition through add and union_sort
    armed = add(p, (l * j,))
    legs = armed if m == l or j == 0 else union_sort(armed, (m - l,) * j)
    assert grow_arm_legs(p, l, m, j) == legs
    line = add(p, (j,)) if (m + l) % 2 == 0 else union_sort(p, (1,) * j)
    assert grow_line(p, l, m, j) == line
    assert grow_arm_legs(p, l, m, j).size == p.size + m * j
    assert grow_line(p, l, m, j).size == p.size + j
    assert grow_line(p, l, m, j + 1) == grow_line(grow_line(p, l, m, j), l, m, 1)
    # arm-and-legs growth composes one step at a time only while the arm
    # lands on the genuine first row, i.e. the armed first row is at least
    # as wide as a leg; re-sorting breaks it otherwise (see regression below)
    first = p[0] if p else 0
    if l == 0 or l == m or first + l * j >= m - l:
        assert grow_arm_legs(p, l, m, j + 1) == grow_arm_legs(
            grow_arm_legs(p, l, m, j), l, m, 1
        )


def test_arm_legs_growth_does_not_compose_past_wide_legs():
    # the legs of width m-l out-sort a short armed first row, so the next
    # arm increment attaches to a leg; the j-indexed definition avoids that
    # by always arming the original first row
    assert grow_arm_legs(Partition(()), 1, 3, 2) == (2, 2, 2)
    assert grow_arm_legs(grow_arm_legs(Partition(()), 1, 3, 1), 1, 3, 1) == (3, 2, 1)


def test_skew_shape_size_and_containment():
    s = SkewShape(Partition((3, 2)), Partition((1,)))
    assert s.is_contained and s.size == 4
    zero = SkewShape(Partition((2,)), Partition((3,)))
    assert not zero.is_contained


def test_as_skew_reads_each_documented_form():
    shape = SkewShape(Partition((3, 1)), Partition((1,)))
    empty = SkewShape(Partition(), Partition())
    assert as_skew(shape) is shape
    for value, expected in (
        (SkewShape((3, 1), (1,)), shape),
        (((3, 1), (1,)), shape),
        (([2], [1]), SkewShape(Partition((2,)), Partition((1,)))),
        (Partition((3, 1)), SkewShape.straight((3, 1))),
        ((3, 1), SkewShape.straight((3, 1))),
        ([], empty),
        (((), ()), empty),
    ):
        got = as_skew(value)
        assert got == expected, value
        assert type(got.outer) is type(got.inner) is Partition, value


def test_text_syntax_round_trip():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("") == ()
    assert parse_partition("0") == ()
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("a,b")
    s = parse_skew("3,2,1/1,1")
    assert s.outer == (3, 2, 1) and s.inner == (1, 1)
    assert parse_skew("4,1").inner == ()
    assert format_partition(Partition((3, 2, 1))) == "3,2,1"
    assert format_partition(Partition(())) == "0"
    assert format_skew(s) == "3,2,1/1,1"
    assert format_skew(SkewShape.straight((4, 1))) == "4,1"
    assert parse_skew(format_skew(s)) == s
