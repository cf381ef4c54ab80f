"""Cross-checks of the large-coefficient route against the power-sum route.

The two routes share one kernel: both add border strips through
``powersum._add_ribbon_strips``. ``row_coefficient`` peels its small
factors through the removal kernel ``powersum._remove_ribbon_strips``,
which the full expansions do not use. The independent anchors are the
brute-force border-strip test (``test_strip_additions_match_brute_force``),
which checks the addition kernel against strips found cell by cell, and
character pairing (``_coefficient_by_characters``), which reaches the
coefficients through Murnaghan-Nakayama characters and uses neither kernel.
"""

import os
import subprocess
import sys
from collections import defaultdict
from itertools import zip_longest
from math import factorial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import plethlab
from plethlab import (
    Partition,
    conjugate,
    contains,
    grow_arm_legs,
    grow_line,
    partitions_of,
    plethysm_schur,
    verify_growth_identity,
)
from plethlab.plethysm import _coefficient_by_characters, _plethysm_items, plethysm_coefficient
from plethlab import row_plethysm as rp
from plethlab.powersum import (
    _exact_quotients,
    _horner,
    _integral_schur,
    _remove_ribbon_strips,
    _strip_removals,
    _trie,
)

P = Partition


@pytest.fixture(autouse=True)
def fresh_tables():
    rp.reset_tables()
    yield
    rp.reset_tables()


def test_even_row_closed_form_matches_engine():
    for a in range(0, 6):
        full = plethysm_schur(P((a,)), P((2,)))
        predicted = {nu for nu in partitions_of(2 * a) if rp._all_even_rows(nu)}
        assert set(full) == predicted
        assert all(v == 1 for v in full.values())


def test_arm_excess_closed_form_matches_engine():
    for a in range(1, 6):
        full = plethysm_schur(P((1,) * a), P((2,)))
        predicted = {nu for nu in partitions_of(2 * a) if rp._arm_excess_one(nu)}
        assert set(full) == predicted
        assert all(v == 1 for v in full.values())


def test_arm_excess_one_reads_the_rows_like_the_conjugate():
    def by_conjugate(p):
        # Frobenius arms p_i - (i+1) against legs p'_i - (i+1), i < Durfee size
        if not p:
            return False
        cols = conjugate(p)
        d = 0
        while d < len(p) and p[d] >= d + 1:
            d += 1
        return all(p[i] - (i + 1) == cols[i] - (i + 1) + 1 for i in range(d))

    for n in range(0, 21):
        for p in partitions_of(n):
            assert rp._arm_excess_one(p) == by_conjugate(p), p


@pytest.mark.parametrize("m", [3, 4, 5])
def test_newton_tables_match_engine_for_small_pieces(m):
    rp.warm_tables([P((15, 4, 3, 2, 1))], m)
    tables = rp._tables_for(m)
    for kind in ("h", "e"):
        for a in range(0, 5):
            tables.ensure(kind, a)
            shape = P((a,)) if kind == "h" else P((1,) * a)
            full = dict(_plethysm_items(shape, P((m,))))
            table = tables.tables[kind][a]
            for nu, c in full.items():
                if contains(tables.cap, nu):
                    assert table.get(nu, 0) == c
            for nu, c in table.items():
                assert full.get(nu, 0) == c


@pytest.mark.parametrize(
    "lam,m",
    [
        ((6, 1, 1), 2),
        ((7, 2), 2),
        ((1, 1, 1, 1, 1, 1, 1, 1), 2),
        ((4, 1, 1), 3),
        ((2, 2, 1), 3),
        ((5, 1), 3),
        ((2, 2, 2), 3),
    ],
)
def test_row_route_matches_power_sum_route(lam, m):
    lam = P(lam)
    full = dict(_plethysm_items(lam, P((m,))))
    rp.warm_tables(list(full), m)
    for nu, c in full.items():
        assert rp.row_coefficient(nu, lam, m) == c
    zeros = 0
    for nu in partitions_of(lam.size * m):
        if len(nu) <= lam.size and nu not in full:
            assert rp.row_coefficient(nu, lam, m) == 0
            zeros += 1
            if zeros >= 12:
                break


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("lam", [(4, 1, 1, 1), (5, 1, 1, 1), (4, 1, 1, 1, 1)])
def test_row_route_on_shapes_whose_products_merge(lam, m):
    # two permutations give the same product, sizes (4, 2, 1) or (5, 2, 1),
    # so it carries weight -2; every target is checked, zero or not
    lam = P(lam)
    _, terms = rp._jacobi_trudi_terms(lam)
    assert any(abs(weight) > 1 for weight, _ in terms)
    full = _plethysm_items(lam, P((m,)))
    targets = [nu for nu in partitions_of(lam.size * m) if len(nu) <= lam.size]
    rp.warm_tables(targets, m)
    for nu in targets:
        assert rp.row_coefficient(nu, lam, m) == full.get(nu, 0)


def test_row_route_answers_fat_shapes():
    # min(rows, columns) = 6, over the rows (h kind) and over the columns
    # (e kind); both values equal character pairing
    for nu, lam, expected in (
        ((14, 5, 4, 4, 4, 2, 1, 1, 1), (7, 1, 1, 1, 1, 1), 811),
        ((10, 8, 8, 4, 1, 1, 1, 1, 1, 1), (6, 1, 1, 1, 1, 1, 1), 379),
    ):
        assert rp.row_coefficient(P(nu), P(lam), 3) == expected


def test_row_route_answers_a_hook():
    # min(rows, columns) = 6, with 19 Jacobi-Trudi products
    lam = P((7, 1, 1, 1, 1, 1))
    _, terms = rp._jacobi_trudi_terms(lam)
    assert min(len(lam), lam[0]) == 6 and len(terms) == 19
    assert rp.row_coefficient(P((10, 4, 4, 2, 2, 2)), lam, 2) == 6


def test_row_route_peels_small_factors_of_any_degree():
    # a second-largest Jacobi-Trudi size s with m * s = 18, 20 and 21 is
    # peeled by ribbon-strip removals, equal to character pairing
    for nu, lam, m, expected in (
        ((20, 12, 4), (2, 2), 9, 18),
        ((18, 12, 6), (3, 3), 6, 171),
        ((20, 20), (2, 2), 10, 4),
        ((21, 14, 7), (3, 3), 7, 401),
    ):
        assert rp.row_coefficient(P(nu), P(lam), m) == expected
        assert _coefficient_by_characters(P(nu), P(lam), P((m,))) == expected
    # peels of degree 30 and 21 (character pairing agrees, in seconds)
    assert rp.row_coefficient(P((30, 20, 10)), P((10, 10)), 3) == 3891
    assert rp.row_coefficient(P((12, 10, 8, 6, 4, 2)), P((2,) * 7), 3) == 157622


def test_envelope_growth_preserves_values():
    lam = P((5, 1))
    nu_small = P((9, 2, 1))
    rp.warm_tables([nu_small], 3)
    before = rp.row_coefficient(nu_small, lam, 3)
    # force an envelope rebuild with a much larger target
    rp.warm_tables([P((30, 4, 3, 2, 1, 1, 1))], 3)
    after = rp.row_coefficient(nu_small, lam, 3)
    assert before == after == dict(_plethysm_items(lam, P((3,)))).get(nu_small, 0)


def test_covered_queries_never_rebuild_the_envelope(monkeypatch):
    rebuilds = []
    extend_cap = rp._RowTables.extend_cap

    def counted(tables, shapes):
        rebuilds.append(list(shapes))
        extend_cap(tables, shapes)

    monkeypatch.setattr(rp._RowTables, "extend_cap", counted)
    lam = P((3, 1))
    expected = dict(_plethysm_items(lam, P((3,))))
    targets = [nu for nu in partitions_of(12) if len(nu) <= 4][:20]
    rp.warm_tables(targets, 3)
    assert len(rebuilds) == 1
    for nu in targets:
        assert rp.row_coefficient(nu, lam, 3) == expected.get(nu, 0)
    assert len(rebuilds) == 1
    uncovered = P((3, 3, 3, 3))
    assert not contains(rp._tables_for(3).cap, uncovered)
    assert rp.row_coefficient(uncovered, lam, 3) == expected.get(uncovered, 0)
    assert rebuilds[1:] == [[uncovered]]
    assert all(contains(rp._tables_for(3).cap, nu) for nu in [*targets, uncovered])


def test_incremental_warming_gives_the_one_shot_cap():
    rp.warm_tables([P((9, 3))], 3)
    # (10, 2) has coefficient 1 in h_4∘h_3 but lies outside the down-set of
    # (9, 3), the one target
    assert _plethysm_items(P((4,)), P((3,))).get(P((10, 2))) == 1
    rp._tables_for(3).ensure("h", 4)
    assert P((9, 3)) in rp._tables_for(3).tables["h"][4]
    assert P((10, 2)) not in rp._tables_for(3).tables["h"][4]
    rp.warm_tables([P((9, 3, 1, 1))], 3)
    assert rp._tables_for(3).cap == (9, 3, 1, 1)
    rp.warm_tables([P((12, 4))], 3)
    incremental = rp._tables_for(3).cap
    rp.reset_tables()
    rp.warm_tables([P((9, 3)), P((9, 3, 1, 1)), P((12, 4))], 3)
    assert incremental == rp._tables_for(3).cap == (12, 4, 1, 1)


def test_uncued_query_grows_envelope_on_the_fly():
    lam = P((6, 1))
    nu = P((14, 4, 2, 1))
    expected = dict(_plethysm_items(lam, P((3,)))).get(nu, 0)
    assert rp.row_coefficient(nu, lam, 3) == expected


def test_growth_identity_reads_the_m3_row_tables():
    # grown triple (8, 2, 2, 2, 2, 2) in s_(6)[h_3]: degree 18 is past the
    # full-expansion cutoff, so the left side comes from the m = 3 tables,
    # whose envelope the query grows without any warming by the caller
    nu, lam, l, m, j = P((4, 2)), P((2,)), 1, 2, 4
    report = verify_growth_identity(nu, lam, l, m, j)
    assert report.equal and not report.vacuous
    nu_j, lam_j = grow_arm_legs(nu, l, m + 1, j), grow_line(lam, l, m + 1, j)
    assert contains(rp._tables_for(3).cap, nu_j)
    assert report.lhs == _coefficient_by_characters(nu_j, lam_j, P((m + 1,)))


def test_row_route_against_character_pairing_beyond_full_expansion():
    # a third independent route: pair the composed power-sum expansion with
    # a single character; slow, so only a handful of mid-degree samples
    import random

    from plethlab.partitions import grow_arm_legs, grow_line, partitions_of
    from plethlab.plethysm import _coefficient_by_characters, plethysm_coefficient

    random.seed(7)
    for tau, l, m, j in [((2, 1), 1, 3, 4), ((3,), 2, 3, 4), ((2,), 2, 2, 6)]:
        lam = grow_line(P(tau), l, m, j)
        sigmas = list(partitions_of(m * sum(tau)))
        for sigma in random.sample(sigmas, min(3, len(sigmas))):
            nu = grow_arm_legs(P(sigma), l, m, j)
            assert plethysm_coefficient(nu, lam, P((m,))) == _coefficient_by_characters(
                nu, lam, P((m,))
            )


# ---------------------------------------------------------------------------
# The envelope: the union of the targets' down-sets, grown in place
# ---------------------------------------------------------------------------


def _built_tables(batches, levels):
    """Fresh m = 3 tables warmed batch by batch, each kind built to levels[i]
    right after batch i."""
    rp.reset_tables()
    tables = rp._tables_for(3)
    for batch, level in zip(batches, levels):
        rp.warm_tables(batch, 3)
        for kind in ("h", "e"):
            tables.ensure(kind, level)
    return tables


def _piece(kind, a):
    return P((a,)) if kind == "h" else P((1,) * a)


def _expected_entry(kind, a, nu):
    if 3 * a <= 15:
        return _plethysm_items(_piece(kind, a), P((3,))).get(nu, 0)
    return _coefficient_by_characters(nu, _piece(kind, a), P((3,)))


_SMALL_TARGETS = [nu for n in range(3, 7) for nu in partitions_of(3 * n) if len(nu) <= n]


@given(
    st.lists(st.sampled_from(_SMALL_TARGETS), min_size=1, max_size=3),
    st.lists(st.sampled_from(_SMALL_TARGETS), min_size=1, max_size=3),
    st.integers(0, 6),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_two_warm_batches_give_the_tables_of_one(batch_a, batch_b, built_before):
    rp.reset_tables()
    rp.warm_tables(batch_a, 3)
    covered = all(map(rp._tables_for(3).inside, batch_b))
    tables = _built_tables([batch_a, batch_b], [built_before, 6])
    # a batch already inside the envelope adds nothing; otherwise its shapes
    # outside the envelope become targets, and the union of the down-sets is
    # that of one warm with both batches
    targets = batch_a if covered else batch_a + batch_b
    one_shot = _built_tables([targets], [6])
    assert tables.tables == one_shot.tables
    assert tables.cap == one_shot.cap
    for kind in ("h", "e"):
        for a, table in enumerate(tables.tables[kind]):
            for nu, c in table.items():
                assert any(contains(t, nu) for t in targets), nu
                assert c == _expected_entry(kind, a, nu), (kind, a, nu)
            if 3 * a <= 15:
                for nu, c in _plethysm_items(_piece(kind, a), P((3,))).items():
                    if any(contains(t, nu) for t in targets):
                        assert table.get(nu) == c, (kind, a, nu)


def test_growth_completes_the_built_levels_in_place():
    # the levels built before an uncovered warm stay built, and already hold
    # the one-shot entries on the new target's down-set, with no ensure call
    tables = _built_tables([[P((9, 3, 3, 3))]], [6])
    levels = {kind: tables.tables[kind] for kind in ("h", "e")}
    rp.warm_tables([P((20, 2, 2, 2))], 3)
    one_shot = _built_tables([[P((9, 3, 3, 3)), P((20, 2, 2, 2))]], [6])
    for kind in ("h", "e"):
        assert tables.tables[kind] is levels[kind]
        assert levels[kind] == one_shot.tables[kind]
    assert levels["h"][6][P((16, 2))] == 1


def test_an_earlier_query_does_not_widen_a_later_envelope():
    # a query for (11, 7) targets (11, 7); a row-wise union with the batch's
    # targets would also hold (15, 6), whose coefficient in the composition
    # of h_7 with h_3 is 2, though no target contains it
    assert plethysm_coefficient((11, 7), (6,), (3,)) == _coefficient_by_characters(
        P((11, 7)), P((6,)), P((3,))
    )
    batch = [P((20, 2, 2, 2)), P((9, 3, 3, 3))]
    rp.warm_tables(batch, 3)
    tables = rp._tables_for(3)
    for kind in ("h", "e"):
        tables.ensure(kind, 8)
    after_query = tables.tables
    one_shot = _built_tables([[P((11, 7)), *batch]], [8])
    assert after_query == one_shot.tables
    witness = P((15, 6))
    assert contains(one_shot.cap, witness)
    assert _coefficient_by_characters(witness, P((7,)), P((3,))) == 2
    assert witness not in after_query["h"][7]
    for kind in ("h", "e"):
        for table in after_query[kind]:
            assert all(any(contains(t, nu) for t in [P((11, 7)), *batch]) for nu in table)


# ---------------------------------------------------------------------------
# The border-strip kernel against a brute-force reference
# ---------------------------------------------------------------------------

small_shapes = st.lists(st.integers(1, 7), max_size=6).map(
    lambda parts: P(sorted(parts, reverse=True))
)


def _supersets_in_box(inner, width, height, size):
    """Every partition of size with at most height rows of at most width
    boxes that contains inner."""
    out = []

    def rec(prefix, left):
        i = len(prefix)
        if i == height or not left:
            if not left and contains(P(prefix), inner):
                out.append(P(prefix))
            return
        low = max(inner[i] if i < len(inner) else 0, 1)
        for part in range(min(prefix[-1] if prefix else width, left), low - 1, -1):
            rec(prefix + [part], left - part)

    rec([], size)
    return out


def _border_strip_sign(outer, inner):
    """(-1)^(rows-1) if outer/inner is a connected border strip, else None."""
    cells = {
        (r, c)
        for r in range(len(outer))
        for c in range(inner[r] if r < len(inner) else 0, outer[r])
    }
    if any({(r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cells for r, c in cells):
        return None
    start = min(cells)
    seen, todo = {start}, [start]
    while todo:
        r, c = todo.pop()
        for cell in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if cell in cells and cell not in seen:
                seen.add(cell)
                todo.append(cell)
    if seen != cells:
        return None
    return -1 if len({r for r, _ in cells}) % 2 == 0 else 1


@given(small_shapes, st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_strip_additions_match_brute_force(shape, k):
    # a strip of k boxes widens the first row and adds rows by at most k each
    width, height = (shape[0] if shape else 0) + k, len(shape) + k
    expected = set()
    for nu in _supersets_in_box(shape, width, height, shape.size + k):
        sign = _border_strip_sign(nu, shape)
        if sign is not None:
            expected.add((nu, sign))
    got = rp._strip_additions(shape, k)
    assert len(got) == len(set(got))
    assert set(got) == expected
    for nu, _ in got:
        assert type(nu) is Partition and tuple(nu) == tuple(Partition(nu))


def test_a_strip_may_add_k_rows():
    # the vertical strip needs all len(shape) + k beads
    assert set(rp._strip_additions(P((1, 1, 1)), 2)) == {
        (P((3, 1, 1)), 1),
        (P((2, 2, 1)), -1),
        (P((1, 1, 1, 1, 1)), -1),
    }


@given(small_shapes, st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_strip_additions_and_removals_are_mirror_images(shape, k):
    # (ν, s) is added to μ exactly when (μ, s) is removed from ν
    for bigger, sign in rp._strip_additions(shape, k):
        assert (shape, sign) in _strip_removals(bigger, k)
    for smaller, sign in _strip_removals(shape, k):
        assert (shape, sign) in rp._strip_additions(smaller, k)


@given(
    st.integers(0, 12).flatmap(lambda n: st.sampled_from(list(partitions_of(n)))),
    st.integers(1, 4),
    st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_ribbon_strip_removals_are_the_adjoint_of_additions(shape, r, m):
    # (smaller, s) is removed from shape exactly when (shape, s) is added to
    # smaller, over every smaller of the right size
    want = set()
    if shape.size >= r * m:
        for smaller in partitions_of(shape.size - r * m):
            added = rp._strip_additions(smaller, r, m)
            want.update((smaller, s) for bigger, s in added if bigger == shape)
    got = _remove_ribbon_strips(shape, r, m)
    assert len(got) == len(set(got)) and set(got) == want
    if m == 1:
        assert set(got) == set(_strip_removals(shape, r))


# ---------------------------------------------------------------------------
# The ribbon-strip kernel against the power-sum Horner
# ---------------------------------------------------------------------------


@st.composite
def ribbon_case(draw):
    """(μ, r, m, targets): μ inside every target, each target μ widened row-wise."""
    mu = P(sorted(draw(st.lists(st.integers(0, 5), max_size=4)), reverse=True))
    r, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        extra = draw(st.lists(st.integers(0, r * m), min_size=len(mu) + 2, max_size=len(mu) + 2))
        widened = (a + b for a, b in zip_longest(mu, extra, fillvalue=0))
        targets.append(P(sorted(widened, reverse=True)))
    return mu, r, m, targets


@given(ribbon_case())
@settings(max_examples=120, deadline=None)
def test_ribbon_strips_match_horner_over_the_power_sums(case):
    # s_μ·h_m[p_r] is s_μ times Σ_κ (m!/z_κ)·p_(r·κ) / m!, on a down-set
    mu, r, m, targets = case
    envelope = rp._DownSet(tuple(targets))
    inside, cap = envelope.__getitem__, envelope.cap
    scale, weights = _integral_schur(P((m,)))
    trie = _trie((sorted(r * part for part in kappa), w) for kappa, w in weights.items())
    totals = _horner(trie, {mu: 1}, defaultdict(int))
    expected = _exact_quotients({nu: t for nu, t in totals.items() if inside(nu)}, scale)
    got: defaultdict[Partition, int] = defaultdict(int)
    rp._add_ribbon_strips(got, mu, 1, r, m, len(cap), inside)
    # each strip is reached once, so nothing cancels
    assert dict(got) == expected
    if m == 1:
        assert expected == {nu: sign for nu, sign in rp._strip_additions(mu, r) if inside(nu)}


@given(small_shapes, st.integers(1, 4), st.sampled_from((2, 3)))
@settings(max_examples=80, deadline=None)
def test_ribbon_strip_steps_match_horner_over_the_power_sums(shape, k, m):
    # the full expansions' step s_shape·h_m[p_k], against s_shape times
    # Σ_κ (m!/z_κ)·p_(k·κ) / m!
    scale, weights = _integral_schur(P((m,)))
    trie = _trie((sorted(k * part for part in kappa), w) for kappa, w in weights.items())
    totals = _horner(trie, {shape: 1}, defaultdict(int))
    got = {nu: sign for nu, sign in rp._strip_additions(shape, k, m) if sign}
    assert got == _exact_quotients(totals, scale)


@pytest.mark.parametrize("m", range(1, 7))
def test_row_weights_are_scaled_by_m_factorial(m):
    # the row shape's power-sum weights m!/z_κ are integers summing to m!;
    # over m! they give h_m[p_r], which the ribbon strips build from s_∅
    scale, weights = _integral_schur(P((m,)))
    assert scale == factorial(m) == sum(weights.values())
    assert set(weights) == set(partitions_of(m)) and all(w > 0 for w in weights.values())
    for r in (1, 2):
        envelope = rp._DownSet(tuple(partitions_of(r * m)))
        trie = _trie((sorted(r * part for part in kappa), w) for kappa, w in weights.items())
        totals = _horner(trie, {P(()): 1}, defaultdict(int))
        got: defaultdict[Partition, int] = defaultdict(int)
        rp._add_ribbon_strips(got, P(()), 1, r, m, len(envelope.cap), envelope.__getitem__)
        assert dict(got) == _exact_quotients(totals, scale)
    # h_m[p_2] is a signed sum over the domino strips, s_(2m) among them
    assert got[P((2 * m,))] == 1


# ---------------------------------------------------------------------------
# Random m = 3 queries across independent routes
# ---------------------------------------------------------------------------


def _row_route_from_small_envelope(nu, lam):
    """Row-route value of nu after warming the m = 3 tables with a tiny envelope."""
    rp.reset_tables()
    rp.warm_tables([P((3,))], 3)
    value = rp.row_coefficient(nu, lam, 3)
    assert contains(rp._tables_for(3).cap, nu)
    return value


def _query(data, sizes):
    lam = data.draw(st.sampled_from([lam for n in sizes for lam in partitions_of(n)]))
    targets = [nu for nu in partitions_of(3 * lam.size) if len(nu) <= lam.size]
    return data.draw(st.sampled_from(targets)), lam


@given(st.data())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_row_route_matches_full_expansion_on_random_inputs(data):
    nu, lam = _query(data, range(1, 6))  # degree <= 15
    expected = dict(_plethysm_items(lam, P((3,)))).get(nu, 0)
    assert _row_route_from_small_envelope(nu, lam) == expected


@given(st.data())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_row_route_matches_character_pairing_on_random_inputs(data):
    nu, lam = _query(data, (6, 7))  # degree 18 and 21
    # the warmed envelope (5, 1) holds 6 boxes, so the query rebuilds it
    assert not contains((5, 1), nu)
    expected = _coefficient_by_characters(nu, lam, P((3,)))
    assert _row_route_from_small_envelope(nu, lam) == expected


@given(st.data())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_m2_closed_forms_match_character_pairing_on_random_inputs(data):
    # degree 16..20, above the full-expansion cutoff
    lam = data.draw(st.sampled_from([lam for n in (8, 9, 10) for lam in partitions_of(n)]))
    targets = [nu for nu in partitions_of(2 * lam.size) if len(nu) <= lam.size]
    nu = data.draw(st.sampled_from(targets))
    assert rp.row_coefficient(nu, lam, 2) == _coefficient_by_characters(nu, lam, P((2,)))


@given(st.data())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_m2_row_route_matches_character_pairing_on_fat_shapes(data):
    # the four outer shapes of size 11 or 12 with min(rows, columns) >= 6
    fat = [lam for n in (11, 12) for lam in partitions_of(n) if min(len(lam), lam[0]) >= 6]
    lam = data.draw(st.sampled_from(fat))
    targets = [nu for nu in partitions_of(2 * lam.size) if len(nu) <= lam.size]
    nu = data.draw(st.sampled_from(targets))
    assert rp.row_coefficient(nu, lam, 2) == _coefficient_by_characters(nu, lam, P((2,)))


# ---------------------------------------------------------------------------
# Integrality checks without assertions
# ---------------------------------------------------------------------------

_CORRUPTED_ENTRY = """
import sys

from plethlab import ExactnessError, Partition
from plethlab import row_plethysm as rp

if not sys.flags.optimize:
    sys.exit("not running under -O")

tables = rp._RowTables(3)
tables.extend_cap([Partition((9, 3))])
tables.ensure("h", 1)
tables.tables["h"][1][Partition((3,))] += 1
try:
    tables.ensure("h", 2)
except ExactnessError:
    pass
else:
    sys.exit("a corrupted lower table entry was not detected")
"""


def test_integrality_checks_fire_under_python_O():
    src = str(Path(plethlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_ENTRY],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
