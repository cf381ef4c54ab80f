from collections import defaultdict
from itertools import permutations, product

from hypothesis import example, given, settings, strategies as st
import pytest

from plethlab import (
    Partition,
    SkewShape,
    conjugate,
    is_lattice_word,
    lr_coefficient,
    lr_fillings,
    partitions_of,
    skew_schur_expansion,
)
from plethlab.lr import _hstrip_removals, _iter_words, _jacobi_trudi_terms, dual_pieri_expansion


def test_lattice_word_examples():
    assert is_lattice_word((1, 1, 2))
    assert not is_lattice_word((2, 1))
    assert is_lattice_word(())
    assert is_lattice_word((1, 2, 1, 2, 3))
    assert not is_lattice_word((1, 2, 2))
    with pytest.raises(ValueError):
        is_lattice_word((0, 1))


def test_fillings_of_small_shapes():
    straight = lr_fillings(SkewShape.straight((2, 1)))
    assert len(straight) == 1
    assert straight[0].weight == (2, 1)

    skew = lr_fillings(SkewShape(Partition((2, 1)), Partition((1,))))
    assert len(skew) == 2
    assert sorted(tuple(f.weight) for f in skew) == [(1, 1), (2,)]

    assert lr_fillings(SkewShape(Partition((2,)), Partition((3,)))) == ()


def test_inner_shape_with_more_rows_than_the_outer_one_has_no_fillings():
    # the second row of (1,1) lies below (2), where the reading boxes never
    # look, so _iter_words itself must find that the inner shape does not fit
    outer, inner = Partition((2,)), Partition((1, 1))
    assert list(_iter_words(outer, inner)) == []
    assert lr_fillings(SkewShape(outer, inner)) == ()
    assert skew_schur_expansion(SkewShape(outer, inner)) == {}
    assert dual_pieri_expansion(outer, inner) == ()
    assert lr_coefficient(outer, (), inner) == 0


def test_fillings_are_immutable():
    (filling,) = lr_fillings(SkewShape.straight((2, 1)))
    with pytest.raises(AttributeError):
        filling.rows = ()
    with pytest.raises(AttributeError):
        filling.extra = 1
    assert filling.weight == Partition((2, 1))


def test_filling_structure():
    (filling,) = lr_fillings(SkewShape.straight((2, 1)))
    assert filling.rows == ((1, 1), (2,))
    assert filling.reading_word() == (1, 1, 2)
    assert dict(filling.boxes()) == {(0, 0): 1, (0, 1): 1, (1, 0): 2}


def test_every_reading_word_is_a_lattice_word():
    for outer, inner in [((3, 2, 1), (1,)), ((4, 2), (2,)), ((3, 3, 1), (2, 1))]:
        for f in lr_fillings(SkewShape(Partition(outer), Partition(inner))):
            assert is_lattice_word(f.reading_word())


def test_coefficient_examples():
    assert lr_coefficient((3,), (2,), (1,)) == 1
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coefficient((2, 2), (2,), (2,)) == 1
    assert lr_coefficient((5,), (2,), (2,)) == 0  # size mismatch
    assert lr_coefficient((2, 2), (1, 1), (3,)) == 0  # inner not contained


def test_empty_mu_is_a_kronecker_delta():
    for n in range(0, 6):
        for nu in partitions_of(n):
            for lam in partitions_of(n):
                expected = 1 if nu == lam else 0
                assert lr_coefficient(nu, lam, ()) == expected


def test_skew_expansion_examples():
    got = skew_schur_expansion(SkewShape(Partition((2, 1)), Partition((1,))))
    assert got == {Partition((2,)): 1, Partition((1, 1)): 1}
    lam = Partition((3, 1))
    assert skew_schur_expansion(SkewShape.straight(lam)) == {lam: 1}
    assert skew_schur_expansion(SkewShape(Partition((2,)), Partition((3,)))) == {}


def test_skew_expansion_lists_its_shapes_in_increasing_order():
    longest = 0
    for n in range(8):
        for outer in partitions_of(n):
            for k in range(n):
                for inner in partitions_of(k):
                    shapes = list(skew_schur_expansion(SkewShape(outer, inner)))
                    assert shapes == sorted(shapes), (outer, inner)
                    longest = max(longest, len(shapes))
    assert longest > 2


def test_expansion_counts_group_fillings_by_weight():
    shape = SkewShape(Partition((4, 3, 1)), Partition((2, 1)))
    expansion = skew_schur_expansion(shape)
    fillings = lr_fillings(shape)
    assert sum(expansion.values()) == len(fillings)
    for weight, count in expansion.items():
        assert count == sum(1 for f in fillings if f.weight == weight)
        assert count == lr_coefficient(shape.outer, weight, shape.inner)


def test_symmetry_and_conjugation_small():
    for a in range(0, 6):
        for b in range(0, 6 - a):
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    for nu in partitions_of(a + b):
                        c = lr_coefficient(nu, lam, mu)
                        assert c == lr_coefficient(nu, mu, lam)
                        assert c == lr_coefficient(
                            conjugate(nu), conjugate(lam), conjugate(mu)
                        )


@st.composite
def contained_pair(draw, max_size=9):
    outer_n = draw(st.integers(min_value=0, max_value=max_size))
    outers = list(partitions_of(outer_n))
    outer = outers[draw(st.integers(min_value=0, max_value=len(outers) - 1))]
    inner_parts = []
    for i, part in enumerate(outer):
        upper = min(part, inner_parts[-1]) if inner_parts else part
        inner_parts.append(draw(st.integers(min_value=0, max_value=upper)))
    return outer, Partition(inner_parts)


@given(contained_pair())
@settings(max_examples=60, deadline=None)
# tall inner shapes, which go through the conjugation route on every run
@example((Partition((3, 3, 2, 1)), Partition((1, 1, 1))))
@example((Partition((4, 3, 3, 2, 1)), Partition((2, 1, 1, 1))))
@example((Partition((2, 2, 2, 2)), Partition((1, 1, 1, 1))))
def test_dual_pieri_matches_enumeration(pair):
    outer, inner = pair
    got = dict(dual_pieri_expansion(outer, inner))
    want = {}
    for x in partitions_of(outer.size - inner.size):
        c = lr_coefficient(outer, inner, x)
        if c:
            want[x] = c
    assert got == want


def _permutation_sign(w):
    # (-1)^(n - number of cycles), counted independently of inversions
    seen, cycles = set(), 0
    for start in range(len(w)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = w[start]
    return -1 if (len(w) - cycles) % 2 else 1


def test_jacobi_trudi_terms_merge_equal_products():
    # one term per distinct product: positive sizes in decreasing order,
    # weighted by the summed signs of its permutations, none of weight 0
    checked = 0
    for n in range(1, 13):
        for theta in partitions_of(n):
            if min(len(theta), theta[0]) > 5:
                continue
            horizontal = len(theta) <= theta[0]
            parts = theta if horizontal else conjugate(theta)
            weights = defaultdict(int)
            for w in permutations(range(len(parts))):
                sizes = [part - i + w[i] for i, part in enumerate(parts)]
                if min(sizes) >= 0:
                    key = tuple(sorted((s for s in sizes if s), reverse=True))
                    weights[key] += _permutation_sign(w)
            want = {sizes: c for sizes, c in weights.items() if c}
            got_horizontal, terms = _jacobi_trudi_terms(theta)
            assert got_horizontal == horizontal
            assert len(terms) == len(want) and {sizes: c for c, sizes in terms} == want
            checked += 1
    assert checked == 267


@given(
    st.integers(min_value=0, max_value=10).flatmap(lambda n: st.sampled_from(list(partitions_of(n)))),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_hstrip_removals_are_the_validated_interlacing_shapes(shape, k):
    # kappa interlaces shape (shape[i+1] <= kappa[i] <= shape[i]) with k boxes fewer
    below = tuple(shape[1:]) + (0,)
    rows = product(*(range(b, part + 1) for b, part in zip(below, shape)))
    want = sorted(
        (Partition(kappa) for kappa in rows if sum(kappa) == shape.size - k), reverse=True
    )
    got = _hstrip_removals(shape, k)
    assert list(got) == want
    assert all(type(p) is Partition and tuple(p) == tuple(Partition(p)) for p in got)
