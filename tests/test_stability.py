import re
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from plethlab import (
    GrowthIdentityReport,
    Partition,
    ScanBounds,
    ScanCell,
    SequenceSpec,
    SkewShape,
    VerificationError,
    coefficient_sequence,
    conjugate,
    detect_stabilization,
    grow_arm_legs,
    grow_line,
    grow_skew_arm_legs,
    grow_skew_line,
    parse_skew,
    partitions_between,
    partitions_of,
    plethysm_coefficient,
    plethysm_oracle,
    recurrence_coefficient,
    remove_first_column,
    scan,
    skew_plethysm_coefficient,
    verify_growth_identity,
)
from plethlab.plethysm import _skew_coefficient
from plethlab.stability import _alternating_sum, _deep_coefficient

P = Partition
S = SkewShape.straight


# ---------------------------------------------------------------------------
# stabilization detection
# ---------------------------------------------------------------------------


def test_detect_examples():
    assert detect_stabilization([1, 1, 1, 1, 1], 3) == (0, True)
    assert detect_stabilization([0, 1, 2, 2, 2, 2], 4) == (2, True)
    assert detect_stabilization([1, 2, 1, 2], 3) == (None, False)


def test_detect_edges():
    assert detect_stabilization([7], 1) == (0, True)
    assert detect_stabilization([7], 2) == (0, False)
    assert detect_stabilization([1, 1], 3) == (0, False)
    with pytest.raises(ValueError):
        detect_stabilization([], 1)
    with pytest.raises(ValueError):
        detect_stabilization([1], 0)


def reference_least_constant_index(values):
    for j in range(len(values)):
        if all(v == values[j] for v in values[j:]):
            return j
    return None


@pytest.mark.parametrize(
    "values",
    [
        [0, 0, 1, 1, 1],
        [3, 2, 2],
        [1],
        [1, 1, 1],
        [5, 4, 3, 2],
        [2, 2, 2, 3],
    ],
)
def test_detect_index_is_minimal(values):
    idx, _ = detect_stabilization(values, 2)
    ref = reference_least_constant_index(values)
    if len(values) > 1 and values[-1] != values[-2]:
        assert idx is None
    else:
        assert idx == ref


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def test_sequence_row_size_one_is_kronecker_delta():
    spec = SequenceSpec(S((2, 1)), S((2, 1)), 1, 1, 4)
    report = coefficient_sequence(spec)
    assert report.values == (1, 1, 1, 1, 1)
    assert report.stabilization_index == 0
    assert report.window_confirmed and report.limit == 1
    for n in range(0, 5):
        for nu in partitions_of(n):
            for lam in partitions_of(n):
                for l in (0, 1):
                    rep = coefficient_sequence(SequenceSpec(S(nu), S(lam), l, 1, 3))
                    expected = 1 if nu == lam else 0
                    assert rep.values == (expected,) * 4


def test_sequence_examples_with_row_size_two():
    rep = coefficient_sequence(SequenceSpec(S((4,)), S((2,)), 2, 2, 2))
    assert rep.values == (1, 1, 1)
    rep = coefficient_sequence(SequenceSpec(S((3, 1)), S((1, 1)), 1, 2, 2))
    assert rep.values == (1, 1, 1)


def test_sequence_first_value_is_the_plain_coefficient():
    for sigma_n, m in [(4, 2), (6, 2), (6, 3)]:
        for sigma in partitions_of(sigma_n):
            for tau in partitions_of(sigma_n // m):
                for l in range(m + 1):
                    rep = coefficient_sequence(SequenceSpec(S(sigma), S(tau), l, m, 2))
                    assert rep.values[0] == plethysm_coefficient(sigma, tau, P((m,)))


def test_sequence_degree_mismatch_is_identically_zero():
    rep = coefficient_sequence(SequenceSpec(S((3,)), S((2,)), 1, 2, 6))
    assert rep.values == (0,) * 7
    # the degree gap is growth-invariant, so this holds for every j
    sigma, tau = P((3,)), P((2,))
    for j in range(7):
        assert grow_arm_legs(sigma, 1, 2, j).size - 2 * grow_line(tau, 1, 2, j).size == -1


def test_sequence_skew_inputs():
    spec = SequenceSpec(
        SkewShape(P((3, 1)), P((1,))), SkewShape(P((2, 1)), P((1, 1))), 1, 2, 4
    )
    rep = coefficient_sequence(spec)
    assert len(rep.values) == 5
    for j, value in enumerate(rep.values):
        direct = skew_plethysm_coefficient(
            SkewShape(grow_arm_legs(P((3, 1)), 1, 2, j), P((1,))),
            SkewShape(grow_line(P((2, 1)), 1, 2, j), P((1, 1))),
            P((2,)),
        )
        assert value == direct


def test_sequence_of_an_inner_shape_that_never_fits_is_all_zeros():
    # arm-only growth (l = m) keeps the outer shape one row long, so a
    # two-row inner shape never fits; the degrees still match at every j,
    # as |outer| - |inner| for (4)/(1,1) and, for (4)/(2,1), as
    # SkewShape.size, the size _skew_coefficient checks before the expansions
    for inner in ((1, 1), (2, 1)):
        spec = SequenceSpec(SkewShape(P((4,)), P(inner)), S((1,)), 2, 2, 6)
        assert coefficient_sequence(spec).values == (0,) * 7
        for j in range(7):
            nu = grow_skew_arm_legs(spec.target, 2, 2, j)
            lam = grow_skew_line(spec.source, 2, 2, j)
            assert not nu.is_contained
            degree = nu.outer.size - nu.inner.size if inner == (1, 1) else nu.size
            assert degree == 2 * lam.size == 2 + 2 * j


def test_pair_form_reads_like_a_skew_shape_end_to_end():
    target, source = ((4, 2), (1, 1)), ((2, 1), (1,))
    shapes = SkewShape(P((4, 2)), P((1, 1))), SkewShape(P((2, 1)), P((1,)))
    assert skew_plethysm_coefficient(target, source, (2,)) == 1
    assert skew_plethysm_coefficient(*shapes, (2,)) == 1
    for pair in ((target, source), shapes):
        values = coefficient_sequence(SequenceSpec(*pair, 1, 2, 4)).values
        assert values == (1, 3, 3, 3, 3)


def test_sequence_value_is_the_grown_skew_coefficient_at_every_j():
    # growth acts on the outer shapes, so an inner shape that does not fit
    # at j = 0 can fit later; the first two specs are of that kind
    def oracle(nu, lam, mu):
        return plethysm_oracle(lam, mu).get(nu, 0)

    for target, source, l, m in (
        ("3/2,1", "1/1", 1, 2),
        ("2/1,1", "1/1", 1, 2),
        ("3,1/1", "2,1/1,1", 1, 2),
    ):
        spec = SequenceSpec(parse_skew(target), parse_skew(source), l, m, 6)
        values = coefficient_sequence(spec).values
        grown = [
            (grow_skew_arm_legs(spec.target, l, m, j), grow_skew_line(spec.source, l, m, j))
            for j in range(7)
        ]
        assert values == tuple(
            skew_plethysm_coefficient(nu, lam, P((m,))) for nu, lam in grown
        )
        if target == "3/2,1":
            assert values == (0, 1, 1, 1, 1, 1, 1)
            for j in range(4):
                assert values[j] == _skew_coefficient(*grown[j], P((m,)), oracle)


def _identity_through_sequences(nu, lam, l, m, j_max):
    """The growth identity's right side at j = 0..j_max, with each row-size
    m skew family (nu^/alpha, lam'/beta; l, m) read from its sequence."""
    k = lam.size - len(nu)
    nu_hat, lam_conj = remove_first_column(nu), conjugate(lam)
    top_nu = grow_arm_legs(nu_hat, l, m, j_max)
    top_lam = grow_line(lam_conj, l, m, j_max)
    totals = [0] * (j_max + 1)
    for i in range(k + 1):
        sign = -1 if (k + i) % 2 else 1
        inner = P((k - i,))
        for beta in partitions_between((), top_lam, i):
            for alpha in partitions_between(inner, top_nu, k + m * i):
                first = skew_plethysm_coefficient(
                    SkewShape(alpha, inner), S(conjugate(beta)), P((m + 1,))
                )
                if not first:
                    continue
                spec = SequenceSpec(
                    SkewShape(nu_hat, alpha), SkewShape(lam_conj, beta), l, m, j_max
                )
                for j, v in enumerate(coefficient_sequence(spec).values):
                    totals[j] += sign * first * v
    return totals


def test_growth_identity_sums_lower_families_through_sequences():
    # for l <= m the identity writes each row-size m+1 family as a j-free
    # combination of row-size m skew families; alpha and beta range over the
    # shapes that fit at the last j, so some of those families have an inner
    # shape that fits only from some j on
    j_max, cells = 6, 0
    for m in (1, 2):
        for n in (1, 2, 3):
            for lam in partitions_of(n):
                for nu in partitions_of((m + 1) * n):
                    if len(nu) > n:
                        continue
                    for l in range(m + 1):
                        cells += 1
                        assert _identity_through_sequences(nu, lam, l, m, j_max) == [
                            plethysm_coefficient(
                                grow_arm_legs(nu, l, m + 1, j),
                                grow_line(lam, l, m + 1, j),
                                P((m + 1,)),
                            )
                            for j in range(j_max + 1)
                        ], (nu, lam, l, m + 1)
    assert cells == 191


def test_sequence_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec(S((1,)), S((1,)), 3, 2, 4)
    with pytest.raises(ValueError):
        SequenceSpec(S((1,)), S((1,)), 0, 0, 4)
    with pytest.raises(ValueError):
        SequenceSpec(S((1,)), S((1,)), 1, 2, -1)


def test_records_are_immutable():
    spec = SequenceSpec(S((2,)), S((1,)), 1, 2, 3)
    bounds = ScanBounds(tau_sizes=(1,), m_values=(2,))
    for record, field, value in (
        (spec, "m", 3),
        (bounds, "m_values", (3,)),
        (GrowthIdentityReport(1, 1, True, False), "equal", False),
        (ScanCell(P(), P(), 1, 2, None), "l", 0),
        (coefficient_sequence(spec), "window", 1),
        (scan(bounds, j_max=2, window=1), "j_max", 3),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            record.extra = value


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda spec: spec._replace(m=0), "m must be a positive integer, got 0"),
        (lambda spec: spec._replace(l=3), "l must satisfy 0 <= l <= m, got l=3, m=2"),
        (lambda spec: spec._replace(j_max=-1), "j must be nonnegative, got -1"),
        (lambda spec: SequenceSpec._make((*spec[:3], 0, 4)), "m must be a positive"),
        (lambda spec: SequenceSpec(spec.target, spec.source, 1, 0, 4), "m must be a positive"),
        (lambda spec: ScanBounds()._replace(m_values=(0,)), "m must be a positive integer, got 0"),
        (lambda spec: ScanBounds._make(((-1,), (2,), None)), "tau sizes must be nonnegative"),
        (lambda spec: ScanBounds(m_values=(0,)), "m must be a positive integer, got 0"),
        (lambda spec: ScanBounds((1,), (2,))._replace(l_values=(3,)), "l=3 lies outside"),
    ],
    ids=[
        "spec-replace-m",
        "spec-replace-l",
        "spec-replace-jmax",
        "spec-make",
        "spec-new",
        "bounds-replace-m",
        "bounds-make-tau",
        "bounds-new",
        "bounds-replace-l",
    ],
)
def test_invalid_records_fail_on_every_construction(build, message):
    spec = SequenceSpec(S((4,)), S((2,)), 1, 2, 4)
    with pytest.raises(ValueError, match=re.escape(message)):
        build(spec)


def test_replace_and_make_read_shapes_like_the_constructor():
    spec = SequenceSpec(((4, 2), (1, 1)), ((2, 1), (1,)), 1, 2, 4)
    assert spec.target == SkewShape(P((4, 2)), P((1, 1)))
    assert type(spec.target) is SkewShape
    assert all(type(p) is Partition for p in (*spec.target, *spec.source))
    moved = spec._replace(source=((2,), ()), j_max=2)
    assert type(moved) is SequenceSpec and moved.source == S((2,)) and moved.j_max == 2
    assert type(moved.source.outer) is Partition
    assert SequenceSpec._make(spec) == spec
    assert ScanBounds._make(ScanBounds((1,), (2,))) == ScanBounds((1,), (2,), None)


# ---------------------------------------------------------------------------
# the alternating reduction
# ---------------------------------------------------------------------------


def test_reduction_examples():
    assert recurrence_coefficient(P((1, 1)), P((3, 1)), 2) == 1
    assert recurrence_coefficient(P((2,)), P((2, 2)), 2) == 1
    assert recurrence_coefficient(P((2,)), P((1, 1, 1, 1)), 2) == 0


def test_reduction_rejects_bad_arguments():
    with pytest.raises(ValueError):
        recurrence_coefficient(P((2,)), P((2, 2)), 1)
    with pytest.raises(ValueError):
        recurrence_coefficient(P(()), P(()), 2)


def test_reduction_matches_direct_small():
    for n in range(1, 4):
        for lam in partitions_of(n):
            for m in (2, 3):
                for nu in partitions_of(m * n):
                    if len(nu) <= n:
                        assert recurrence_coefficient(lam, nu, m) == plethysm_coefficient(
                            nu, lam, P((m,))
                        )


def test_reduction_deep_mode():
    assert recurrence_coefficient(P((2, 1)), P((4, 3, 2)), 3, deep=True) == 1
    for lam in partitions_of(3):
        for nu in partitions_of(9):
            if len(nu) <= 3:
                assert recurrence_coefficient(lam, nu, 3, deep=True) == plethysm_coefficient(
                    nu, lam, P((3,))
                )


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_deep_reduction_matches_direct_on_random_inputs(data):
    m = data.draw(st.integers(2, 5))
    lam = data.draw(st.sampled_from([lam for n in (1, 2, 3) for lam in partitions_of(n)]))
    targets = [nu for nu in partitions_of(m * lam.size) if len(nu) <= lam.size]
    nu = data.draw(st.sampled_from(targets))
    assert recurrence_coefficient(lam, nu, m, deep=True) == plethysm_coefficient(
        nu, lam, P((m,))
    )


def _unpruned_alternating_sum(nu, lam, r, skew):
    """The alternating double sum over every beta |- i and alpha |- k + r*i."""
    upper, lower = P((r + 1,)), P((r,))
    k = lam.size - len(nu)
    nu_hat = remove_first_column(nu)
    lam_conj = conjugate(lam)
    total = 0
    for i in range(k + 1):
        sign = -1 if (k + i) % 2 else 1
        inner_row = P((k - i,))
        for beta in partitions_of(i):
            for alpha in partitions_of(k + r * i):
                first = skew(SkewShape(alpha, inner_row), S(conjugate(beta)), upper)
                if first:
                    second = skew(SkewShape(nu_hat, alpha), SkewShape(lam_conj, beta), lower)
                    total += sign * first * second
    return total


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_alternating_sum_matches_the_unpruned_loop(data):
    r = data.draw(st.integers(1, 2))
    lam = data.draw(st.sampled_from([lam for n in range(1, 5) for lam in partitions_of(n)]))
    nu = data.draw(
        st.sampled_from([nu for nu in partitions_of((r + 1) * lam.size) if len(nu) <= lam.size])
    )
    skew = data.draw(
        st.sampled_from(
            [skew_plethysm_coefficient, partial(_skew_coefficient, straight=_deep_coefficient)]
        )
    )
    assert _alternating_sum(nu, lam, r, skew) == _unpruned_alternating_sum(nu, lam, r, skew)


def test_reduction_mismatch_raises():
    # a deliberately corrupted inner evaluation must be reported, not returned
    from plethlab import stability

    original = stability.plethysm_coefficient
    try:
        stability.plethysm_coefficient = lambda *a, **k: original(*a, **k) + 1
        with pytest.raises(VerificationError):
            recurrence_coefficient(P((1, 1)), P((3, 1)), 2)
    finally:
        stability.plethysm_coefficient = original


# ---------------------------------------------------------------------------
# the two-sided growth identity
# ---------------------------------------------------------------------------


def test_growth_identity_examples():
    assert verify_growth_identity(P((3, 1)), P((1, 1)), 1, 1, 2).equal
    assert verify_growth_identity(P((4,)), P((2,)), 2, 1, 1).equal
    vac = verify_growth_identity(P((3,)), P((2,)), 1, 1, 1)
    assert vac.vacuous and vac.equal and "vacuous" in vac.note


def test_growth_identity_rejects_bad_arguments():
    for m, l, j, message in (
        (0, 0, 0, "m must be positive"),
        (1, 3, 0, "l must satisfy 0 <= l <= m+1"),
        (1, 1, -1, "j must be nonnegative"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_growth_identity(P((3, 1)), P((1, 1)), l, m, j)


def test_growth_identity_report_truth_is_equality():
    assert not GrowthIdentityReport(1, 2, False, False)
    assert GrowthIdentityReport(3, 3, True, False)
    vac = verify_growth_identity(P((3,)), P((2,)), 1, 1, 1)
    assert vac.vacuous and vac


def test_growth_identity_report_truth_ignores_its_length():
    mismatch = GrowthIdentityReport(1, 2, False, False)
    assert len(mismatch) == 5 and not mismatch
    vacuous = GrowthIdentityReport(None, None, True, True, "vacuous")
    assert vacuous and vacuous.vacuous
    assert [bool(r) for r in (mismatch, vacuous)] == [False, True]


def test_growth_identity_small_sweep():
    for n in (1, 2):
        for lam in partitions_of(n):
            for m in (1, 2):
                for nu in partitions_of((m + 1) * n):
                    if len(nu) > n:
                        continue
                    for l in range(m + 1):
                        for j in range(3):
                            assert verify_growth_identity(nu, lam, l, m, j).equal


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_scan_empty_bounds():
    report = scan(ScanBounds(), j_max=3, window=2)
    assert report.cells == ()
    assert report.to_dict()["cells"] == 0


def test_scan_bounds_reject_an_l_that_fits_no_m():
    for l in (5, -1):
        with pytest.raises(ValueError, match=f"l={l}"):
            ScanBounds(tau_sizes=(1,), m_values=(2,), l_values=(l,))
    bounds = ScanBounds(tau_sizes=(1,), m_values=(2, 3), l_values=(3,))
    assert {(l, m) for _, _, l, m in bounds.cells()} == {(3, 3)}


def test_scan_bounds_reject_bad_row_and_source_sizes():
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"m must be a positive integer, got {m}"):
            ScanBounds(tau_sizes=(1,), m_values=(2, m))
    with pytest.raises(ValueError, match="tau sizes must be nonnegative, got -2"):
        ScanBounds(tau_sizes=(1, -2), m_values=(2,))


def test_scan_small_and_deterministic():
    bounds = ScanBounds(tau_sizes=(0, 1, 2), m_values=(2,))
    r1 = scan(bounds, j_max=6, window=3)
    r2 = scan(bounds, j_max=6, window=3)
    assert [c.to_dict() for c in r1.cells] == [c.to_dict() for c in r2.cells]
    assert len(r1.cells) == (1 + 1 * 2 + 2 * 5) * 3
    assert not r1.not_stabilized
    assert not r1.proven_family_violations


def test_scan_arm_only_growth_is_weakly_increasing():
    bounds = ScanBounds(tau_sizes=(1, 2), m_values=(2, 3), l_values=None)
    report = scan(bounds, j_max=8, window=4)
    for cell in report.cells:
        if cell.l == cell.m or cell.l == 0:
            assert cell.report.weakly_increasing, cell.key


def test_scan_cells_fall_in_one_family_each():
    family = {
        (l, m): ScanCell(P(), P(), l, m, None).family
        for m in range(1, 5)
        for l in range(m + 1)
    }
    assert {k for k, f in family.items() if f == "proven"} == {
        (0, 1), (1, 1), (0, 2), (2, 2), (0, 3), (3, 3), (0, 4), (4, 4)
    }
    assert {k for k, f in family.items() if f == "conjectured"} == {(1, 2)}
    assert {k for k, f in family.items() if f == "other"} == {
        (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)
    }


def test_scan_reports_the_degenerate_anchor_violation():
    # the empty-against-empty family at (l, m) = (1, 2) starts at the unit
    # coefficient 1 and vanishes for every grown index; the report must
    # carry it as a conjectured-family violation rather than fail
    bounds = ScanBounds(tau_sizes=(0,), m_values=(2,))
    report = scan(bounds, j_max=6, window=3)
    keys = [c.key for c in report.conjectured_family_violations]
    assert keys == ["0|0|l=1|m=2"]
    (cell,) = report.conjectured_family_violations
    assert cell.report.values == (1,) + (0,) * 6
