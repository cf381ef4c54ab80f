import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import plethlab
from plethlab import (
    ExactnessError,
    Partition,
    SkewShape,
    character_value,
    involution_map,
    partitions_of,
    plethysm_coefficient,
    plethysm_oracle,
    plethysm_schur,
    powersum_plethysm,
    powersum_to_schur,
    schur_to_powersum,
    skew_plethysm_coefficient,
)
from plethlab import plethysm as pl
from plethlab import powersum as ps
from plethlab.plethysm import _coefficient_by_characters

P = Partition


def exp(d):
    return {P(k): v for k, v in d.items()}


# ---------------------------------------------------------------------------
# characters and basis changes
# ---------------------------------------------------------------------------


def test_character_hand_values():
    # remove the single border strip of size 2 from a column: height 1
    assert character_value(P((1, 1)), P((2,))) == -1
    # strip of size 1 from a row, then the remaining box
    assert character_value(P((2,)), P((1, 1))) == 1
    assert character_value(P((2, 1)), P((1, 1, 1))) == 2
    assert character_value(P((2, 1)), P((3,))) == -1
    assert character_value(P(()), P(())) == 1


def test_trivial_character_is_constant_one():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character_value(P((n,)), mu) == 1


def test_sign_character():
    for n in range(1, 7):
        for mu in partitions_of(n):
            expected = (-1) ** (n - len(mu))
            assert character_value(P((1,) * n), mu) == expected


def test_character_size_mismatch_rejected():
    with pytest.raises(ValueError):
        character_value(P((2,)), P((3,)))


def test_column_orthogonality_of_characters():
    # sum over lam of chi(lam, mu)^2 equals the centralizer order of mu
    from plethlab.powersum import _centralizer_order

    for n in range(1, 7):
        for mu in partitions_of(n):
            total = sum(character_value(lam, mu) ** 2 for lam in partitions_of(n))
            assert total == _centralizer_order(mu)


def test_schur_to_powersum_small():
    assert schur_to_powersum(P((1,))) == {P((1,)): Fraction(1)}
    assert schur_to_powersum(P((2,))) == {
        P((1, 1)): Fraction(1, 2),
        P((2,)): Fraction(1, 2),
    }
    assert schur_to_powersum(P((1, 1))) == {
        P((1, 1)): Fraction(1, 2),
        P((2,)): Fraction(-1, 2),
    }


def test_powersum_to_schur_small():
    assert powersum_to_schur({P(()): 1}) == {P(()): 1}
    assert powersum_to_schur({P((1, 1)): 1}) == {P((2,)): 1, P((1, 1)): 1}
    assert powersum_to_schur({P((2,)): 1}) == {P((2,)): 1, P((1, 1)): -1}


def test_powersum_to_schur_rejects_bad_input():
    with pytest.raises(ExactnessError):
        powersum_to_schur({P((1,)): 1, P((2,)): 1})  # not homogeneous
    with pytest.raises(ExactnessError):
        powersum_to_schur({P((2,)): Fraction(1, 2)})  # not integral


def test_basis_change_round_trip():
    for n in range(0, 7):
        for lam in partitions_of(n):
            assert powersum_to_schur(schur_to_powersum(lam)) == {lam: 1}


def test_powersum_plethysm_rules():
    assert powersum_plethysm({P((2,)): 1}, {P((3,)): 1}) == {P((6,)): Fraction(1)}
    g = {P((2, 1)): Fraction(3, 7), P((1, 1)): Fraction(-2)}
    assert powersum_plethysm({P((1,)): 1}, g) == g
    got = powersum_plethysm({P((2,)): 1}, {P((1,)): 1, P((2,)): Fraction(1, 2)})
    assert got == {P((2,)): Fraction(1), P((4,)): Fraction(1, 2)}


# ---------------------------------------------------------------------------
# plethysm expansions
# ---------------------------------------------------------------------------


def test_identity_plethysm():
    for n in range(0, 5):
        for mu in partitions_of(n):
            if mu:
                assert plethysm_schur(P((1,)), mu) == {mu: 1}


def test_classical_expansions():
    assert plethysm_schur(P((2,)), P((2,))) == exp({(4,): 1, (2, 2): 1})
    assert plethysm_schur(P((1, 1)), P((2,))) == exp({(3, 1): 1})
    assert plethysm_schur(P((2,)), P((1, 1))) == exp({(2, 2): 1, (1, 1, 1, 1): 1})
    assert plethysm_schur(P((1, 1)), P((1, 1))) == exp({(2, 1, 1): 1})


def test_oracle_examples():
    assert plethysm_oracle(P((2,)), P((1, 1))) == exp({(2, 2): 1, (1, 1, 1, 1): 1})
    assert plethysm_oracle(P((1, 1)), P((1, 1))) == exp({(2, 1, 1): 1})
    assert plethysm_oracle(P((1,)), P((3, 1))) == exp({(3, 1): 1})


def test_oracle_rejects_too_few_variables():
    with pytest.raises(ValueError):
        plethysm_oracle(P((2,)), P((2,)), nvars=1)


@pytest.mark.parametrize("n", range(1, 6))
def test_oracle_variable_floor_is_tight_for_elementary_functions(n):
    # e_n = s_(1^n) o s_1 has n rows, and |lam| * len(mu) = n
    e_n = {P((1,) * n): 1}
    assert plethysm_oracle((1,) * n, (1,)) == plethysm_oracle((1,) * n, (1,), nvars=n) == e_n
    with pytest.raises(ValueError):
        plethysm_oracle((1,) * n, (1,), nvars=n - 1)


def test_oracle_default_variables_lose_nothing():
    # |lam| * len(mu) variables lose no constituent that |lam| * |mu| see
    for a in range(1, 7):
        for b in range(1, 6 // a + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    assert plethysm_oracle(lam, mu) == plethysm_oracle(lam, mu, nvars=a * b)


def test_kostka_numbers_are_schur_polynomial_coefficients():
    for n in range(8):
        shapes = list(partitions_of(n))
        for nu in shapes:
            poly = dict(pl._schur_polynomial(nu, n))
            for alpha in shapes:
                vec = tuple(alpha) + (0,) * (n - len(alpha))
                assert pl._kostka(tuple(nu), tuple(alpha)) == poly.get(vec, 0), (nu, alpha)


def _corrupt_outer_substitution(how):
    """A stand-in for ``_substitute_schur`` that breaks the symmetry of the
    outer substitution at its lexicographically smallest non-dominant
    monomial, by dropping it or by adding 1 to its coefficient."""
    real = pl._substitute_schur

    def substitute(shape, vectors, nvars):
        poly = real(shape, vectors, nvars)
        if vectors != pl._unit_vectors(nvars):
            vec = min(v for v in poly if list(v) != sorted(v, reverse=True))
            if how == "drop":
                del poly[vec]
            else:
                poly[vec] += 1
        return poly

    return substitute


@pytest.mark.parametrize("how", ["drop", "bump"])
def test_oracle_rejects_a_non_symmetric_substitution(monkeypatch, how):
    monkeypatch.setattr(pl, "_substitute_schur", _corrupt_outer_substitution(how))
    with pytest.raises(ExactnessError, match="not symmetric"):
        plethysm_oracle(P((2,)), P((2,)))


_NON_SYMMETRIC_SUBSTITUTION = """
import sys

from plethlab import ExactnessError, Partition
from plethlab import plethysm as pl
from test_plethysm import _corrupt_outer_substitution

if not sys.flags.optimize:
    sys.exit("not running under -O")

for how in ("drop", "bump"):
    pl._substitute_schur = _corrupt_outer_substitution(how)
    try:
        pl.plethysm_oracle(Partition((2,)), Partition((2,)))
    except ExactnessError:
        pass
    else:
        sys.exit(f"a non-symmetric substitution ({how}) was not detected")
"""


def test_oracle_symmetry_check_fires_under_python_O():
    src = str(Path(plethlab.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, here, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _NON_SYMMETRIC_SUBSTITUTION],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_ORACLE_FUNCTIONS = {
    "plethysm_oracle",
    "_substitute_schur",
    "_schur_polynomial",
    "_unit_vectors",
    "_kostka",
}


def test_oracle_shares_no_code_with_the_other_routes():
    # the oracle is a witness for the power-sum, LR and row-table routes, so
    # none of its functions may use a name imported from them
    path = Path(pl.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    routes = {"powersum", "lr", "row_plethysm"}
    foreign = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module in routes or (node.module is None and alias.name in routes):
                    foreign.add(alias.asname or alias.name)
    assert {"dual_pieri_expansion", "powersum_to_schur", "row_coefficient"} <= foreign
    functions = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in _ORACLE_FUNCTIONS
    }
    assert set(functions) == _ORACLE_FUNCTIONS
    used = sorted(
        f"{name} loads {node.id}"
        for name, function in functions.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in foreign
    )
    assert not used, used


def test_oracle_extra_variables_are_harmless():
    assert plethysm_oracle(P((2,)), P((2,)), nvars=6) == plethysm_schur(
        P((2,)), P((2,))
    )


def test_oracle_agrees_with_engine_medium():
    for lam_n, mu_n in [(2, 3), (3, 2), (4, 1), (1, 5)]:
        for lam in partitions_of(lam_n):
            for mu in partitions_of(mu_n):
                assert plethysm_schur(lam, mu) == plethysm_oracle(lam, mu)


def test_degree_support():
    for lam_n, mu_n in [(2, 2), (3, 2), (2, 3)]:
        for lam in partitions_of(lam_n):
            for mu in partitions_of(mu_n):
                for nu, c in plethysm_schur(lam, mu).items():
                    assert nu.size == lam.size * mu.size
                    assert c > 0


# ---------------------------------------------------------------------------
# single coefficients and conventions
# ---------------------------------------------------------------------------


def test_empty_inner_shape_convention():
    # one-row outer shape against the empty inner shape gives 1 at the
    # empty target, and nothing anywhere else
    for k in range(1, 6):
        assert plethysm_coefficient(P(()), P((k,)), P(())) == 1
    assert plethysm_coefficient(P(()), P(()), P(())) == 0
    assert plethysm_coefficient(P(()), P((1, 1)), P(())) == 0
    assert plethysm_coefficient(P((1,)), P((1,)), P(())) == 0


def test_unit_rule_for_empty_outer():
    for n in range(1, 5):
        for mu in partitions_of(n):
            assert plethysm_coefficient(P(()), P(()), mu) == 1


def test_coefficient_fast_zeros():
    assert plethysm_coefficient(P((5,)), P((2,)), P((2,))) == 0
    # one-row inner shape: targets with more rows than |lam| vanish
    assert plethysm_coefficient(P((1, 1, 1, 1)), P((2,)), P((2,))) == 0


def test_coefficient_matches_expansion():
    for lam_n, mu_n in [(2, 2), (3, 2), (2, 3)]:
        for lam in partitions_of(lam_n):
            for mu in partitions_of(mu_n):
                full = plethysm_schur(lam, mu)
                for nu in partitions_of(lam_n * mu_n):
                    assert plethysm_coefficient(nu, lam, mu) == full.get(nu, 0)


def test_row_bound_exhaustive():
    for lam_n in range(1, 4):
        for m in range(1, 4):
            for lam in partitions_of(lam_n):
                for nu in partitions_of(lam_n * m):
                    if len(nu) > lam_n:
                        assert plethysm_coefficient(nu, lam, P((m,))) == 0


@pytest.mark.parametrize(
    "nu,lam,mu",
    [
        ((20, 20), (2, 2), (10,)),  # row route: a small factor above the cap
        ((36, 36), (6,) * 6, (2,)),  # row route: declined by both guards
        ((10, 4, 4, 2, 2, 2), (7, 1, 1, 1, 1, 1), (2,)),  # row route: not thin
        ((9, 9), (3, 3), (2, 1)),  # two-row inner shape above the full cutoff
    ],
)
def test_dispatcher_falls_back_to_character_pairing(monkeypatch, nu, lam, mu):
    sentinel = object()
    calls = []

    def fallback(*args):
        calls.append(args)
        return sentinel

    monkeypatch.setattr(pl, "_coefficient_by_characters", fallback)
    assert plethysm_coefficient(nu, lam, mu) is sentinel
    assert calls == [(P(nu), P(lam), P(mu))]


def test_coefficient_matches_expansion_on_every_small_triple():
    # empty shapes included; (empty, empty, empty) is the one exception: the
    # coefficient follows the empty-inner-shape convention (0), while the
    # full expansion and the oracle give the ring unit
    for a in range(7):
        for b in range(7):
            if a * b > 6:
                continue
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    full = plethysm_schur(lam, mu)
                    if not lam or not mu:
                        assert plethysm_oracle(lam, mu) == full
                    for nu in partitions_of(a * b):
                        want = 0 if a == b == 0 else full.get(nu, 0)
                        assert plethysm_coefficient(nu, lam, mu) == want
    assert plethysm_schur(P(()), P(())) == plethysm_oracle(P(()), P(())) == {P(()): 1}
    assert plethysm_coefficient(P(()), P(()), P(())) == 0


def test_involution_map_examples():
    assert involution_map(P((3, 1)), P((1, 1)), P((2,))) == (
        P((2, 1, 1)),
        P((1, 1)),
        P((1, 1)),
    )
    assert involution_map(P((4, 1, 1)), P((2,)), P((3,))) == (
        P((3, 1, 1, 1)),
        P((1, 1)),
        P((1, 1, 1)),
    )
    # applying the map twice recovers the original triple
    triple = (P((3, 1)), P((1, 1)), P((2,)))
    assert involution_map(*involution_map(*triple)) == triple


def test_coefficients_invariant_under_involution():
    for lam_n in range(1, 4):
        for mu_n in range(1, 4):
            for lam in partitions_of(lam_n):
                for mu in partitions_of(mu_n):
                    for nu in partitions_of(lam_n * mu_n):
                        mapped = involution_map(nu, lam, mu)
                        assert plethysm_coefficient(nu, lam, mu) == plethysm_coefficient(
                            *mapped
                        )


@st.composite
def involution_triple(draw):
    """(nu, lam, (m)) of degree 16..21 with at most |lam| rows in nu."""
    m, n = draw(st.sampled_from([(2, 8), (2, 9), (2, 10), (3, 6), (3, 7)]))
    lam = draw(st.sampled_from(list(partitions_of(n))))
    nu = draw(st.sampled_from([nu for nu in partitions_of(n * m) if len(nu) <= n]))
    return nu, lam, P((m,))


@given(involution_triple())
@settings(max_examples=12, deadline=None)
def test_involution_across_routes(triple):
    # the left side takes the row route (closed forms at m = 2, tables at
    # m = 3); the mirrored side has a one-column inner shape, so it is
    # answered by character pairing
    assert plethysm_coefficient(*triple) == plethysm_coefficient(*involution_map(*triple))


def test_skew_coefficient_example():
    target = SkewShape(P((2, 1)), P((1,)))
    source = SkewShape.straight((1,))
    assert skew_plethysm_coefficient(target, source, P((2,))) == 1


def test_skew_coefficient_reduces_to_straight():
    for lam in partitions_of(2):
        for mu in partitions_of(2):
            for nu in partitions_of(4):
                assert skew_plethysm_coefficient(
                    SkewShape.straight(nu), SkewShape.straight(lam), mu
                ) == plethysm_coefficient(nu, lam, mu)


def test_skew_coefficient_zero_when_not_contained():
    bad = SkewShape(P((2,)), P((3,)))
    assert skew_plethysm_coefficient(bad, SkewShape.straight((1,)), P((2,))) == 0
    assert skew_plethysm_coefficient(SkewShape.straight((2,)), bad, P((2,))) == 0


def test_skew_coefficient_bilinear_consistency():
    # expanding both skew shapes by hand must reproduce the skew coefficient
    from plethlab import skew_schur_expansion

    target = SkewShape(P((3, 2)), P((1,)))
    source = SkewShape(P((2, 1)), P((1,)))
    mu = P((2,))
    want = 0
    for zeta, cz in skew_schur_expansion(target).items():
        for eta, ce in skew_schur_expansion(source).items():
            want += cz * ce * plethysm_coefficient(zeta, eta, mu)
    assert skew_plethysm_coefficient(target, source, mu) == want


def test_skew_coefficient_weights_terms_by_their_multiplicities():
    # s_{321/21} = s_3 + 2 s_21 + s_111 and s_{432/21} has 2 s_321: each
    # side's multiplicity must weigh its terms in the bilinear sum
    from plethlab import skew_schur_expansion

    target = SkewShape(P((4, 3, 2)), P((2, 1)))
    source = SkewShape(P((3, 2, 1)), P((2, 1)))
    mu = P((2,))
    targets, sources = skew_schur_expansion(target), skew_schur_expansion(source)
    assert targets[P((3, 2, 1))] == sources[P((2, 1))] == 2
    want = 0
    for zeta, cz in targets.items():
        for eta, ce in sources.items():
            want += cz * ce * plethysm_schur(eta, mu).get(zeta, 0)
    assert skew_plethysm_coefficient(target, source, mu) == want == 10


def test_concurrent_coefficient_queries_are_consistent():
    # pure functions with idempotent memo tables: hammer them from threads
    from concurrent.futures import ThreadPoolExecutor

    jobs = [
        (nu, lam, mu)
        for lam in partitions_of(3)
        for mu in partitions_of(2)
        for nu in partitions_of(6)
    ]
    serial = [plethysm_coefficient(*j) for j in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda j: plethysm_coefficient(*j), jobs))
    assert serial == threaded


# ---------------------------------------------------------------------------
# Random inputs across independent routes
# ---------------------------------------------------------------------------


@st.composite
def small_pair(draw):
    """(lam, mu), both nonempty, with |lam|·|mu| <= 12."""
    a = draw(st.integers(1, 12))
    b = draw(st.integers(1, 12 // a))
    return draw(st.sampled_from(list(partitions_of(a)))), draw(
        st.sampled_from(list(partitions_of(b)))
    )


@given(small_pair())
@settings(max_examples=25, deadline=None)
def test_full_expansion_matches_character_pairing_and_oracle(pair):
    lam, mu = pair
    degree = lam.size * mu.size
    full = plethysm_schur(lam, mu)
    for nu in partitions_of(degree):
        assert full.get(nu, 0) == _coefficient_by_characters(nu, lam, mu)
    if degree <= 8:
        assert full == plethysm_oracle(lam, mu)


@st.composite
def pair_up_to_degree_14(draw):
    """(lam, mu), empty shapes included, with |lam|·|mu| <= 14."""
    a = draw(st.integers(0, 14))
    b = draw(st.integers(0, 14 // a if a else 14))
    return draw(st.sampled_from(list(partitions_of(a)))), draw(
        st.sampled_from(list(partitions_of(b)))
    )


@given(pair_up_to_degree_14())
@settings(max_examples=60, deadline=None)
def test_integral_composition_matches_the_fraction_route(pair):
    lam, mu = pair
    denom, composed = pl._composed(lam, mu)
    assert all(type(c) is int and c for c in composed.values())
    expected = powersum_plethysm(schur_to_powersum(lam), schur_to_powersum(mu))
    assert composed == {rho: c * denom for rho, c in expected.items()}


def test_full_expansions_leave_the_composition_cache_alone():
    # the full expansion caches its own result; the cached composition serves
    # the character pairing only
    pl._composed.cache_clear()
    pl._plethysm_items.__wrapped__(Partition((2, 1)), Partition((3,)))
    assert pl._composed.cache_info().currsize == 0


@st.composite
def outer_and_line(draw):
    """(lam, mu) with mu one row or one column, |lam|·|mu| <= 16, lam = ∅ included."""
    m = draw(st.integers(1, 16))
    lam = draw(st.sampled_from(list(partitions_of(draw(st.integers(0, 16 // m))))))
    return lam, P((m,)) if draw(st.booleans()) else P((1,) * m)


@given(outer_and_line())
@example((P(()), P((4,))))
@example((P(()), P((1, 1, 1))))
@example((P((3, 1)), P((1,))))
@example((P((2, 2, 1)), P((1, 1, 1))))
@settings(max_examples=60, deadline=None)
def test_one_row_and_one_column_inner_shapes_match_the_composition_route(pair):
    # h_m[p_a] steps (and ω for a column) against p_ρ with ρ ⊢ |lam|·|mu|
    lam, mu = pair
    composed = ps._compose(*ps._integral_schur(lam), *ps._integral_schur(mu))
    expected = sorted(ps._to_schur(*composed).items())
    assert list(ps._plethysm_items.__wrapped__(lam, mu).items()) == expected


@given(st.integers(0, 8).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(list(partitions_of(n))), st.integers(-5, 5), max_size=6
    )
))
@settings(max_examples=40, deadline=None)
def test_random_schur_combinations_round_trip_through_power_sums(combination):
    pexp = {}
    for lam, c in combination.items():
        for mu, v in schur_to_powersum(lam).items():
            pexp[mu] = pexp.get(mu, 0) + c * v
    assert powersum_to_schur(pexp) == {lam: c for lam, c in combination.items() if c}


_NON_INTEGRAL_INPUTS = """
import sys
from fractions import Fraction

from plethlab import ExactnessError, Partition
from plethlab import plethysm as pl

if not sys.flags.optimize:
    sys.exit("not running under -O")

try:
    pl.powersum_to_schur({Partition((2,)): Fraction(1, 2), Partition((1, 1)): Fraction(1, 3)})
except ExactnessError:
    pass
else:
    sys.exit("a non-integral Schur expansion was not detected")

pl._composed = lambda lam, mu: (2, {Partition((2,)): 1})
try:
    pl._coefficient_by_characters(Partition((2,)), Partition((2,)), Partition((1,)))
except ExactnessError:
    pass
else:
    sys.exit("a non-integral character pairing was not detected")

from plethlab import powersum

integral_schur = powersum._integral_schur
powersum._integral_schur = lambda lam: (integral_schur(lam)[0] + 1, integral_schur(lam)[1])
for inner in ((3,), (1, 1, 1)):
    try:
        powersum._plethysm_items.__wrapped__(Partition((2,)), Partition(inner))
    except ExactnessError:
        pass
    else:
        sys.exit(f"a wrong scale against {inner} was not detected")
"""


def test_exactness_checks_fire_under_python_O():
    src = str(Path(plethlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _NON_INTEGRAL_INPUTS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_FRACTION_BOUNDARY = {
    "schur_to_powersum",
    "powersum_plethysm",
    "powersum_to_schur",
    "_normalize_pexp",
}


def test_fraction_appears_only_at_the_public_power_sum_boundary():
    # inside the package a power-sum expansion is (D, {κ: int}); Fraction
    # values are made or read only where the public functions take or return
    # them, so the integer format stays behind the powersum module
    package = Path(plethlab.__file__).resolve().parent
    found, boundary = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        annotations = set()
        for node in ast.walk(tree):
            for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if note is not None:
                    annotations.update(id(inner) for inner in ast.walk(note))
        for top in tree.body:
            name = getattr(top, "name", None)
            allowed = path.stem == "powersum" and name in _FRACTION_BOUNDARY
            for node in ast.walk(top):
                if id(node) in annotations:
                    continue
                if (isinstance(node, ast.Name) and node.id == "Fraction") or (
                    isinstance(node, ast.Attribute) and node.attr == "Fraction"
                ):
                    if allowed:
                        boundary.add(name)
                    else:
                        found.append(f"{path.name}:{node.lineno}")
    assert boundary, "the guard saw no Fraction at the boundary either"
    assert not found, f"Fraction outside the public power-sum boundary: {found}"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no internal check may rely on one
    package = Path(plethlab.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under python -O: {found}"


def _package_imports():
    """(module, line, imported module, inside a function) for every relative
    import in the package, however deeply nested."""
    package = Path(plethlab.__file__).resolve().parent
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nested = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            if node.module:
                targets = [node.module.split(".")[0]]
            else:  # "from . import x": a sibling module, or a name of __init__
                targets = [a.name if a.name in modules else "__init__" for a in node.names]
            for target in targets:
                found.append((path.stem, node.lineno, target, id(node) in nested))
    return found


def test_package_imports_are_top_level_and_acyclic():
    imports = _package_imports()
    assert imports
    nested = [f"{module}.py:{line}" for module, line, _, inside in imports if inside]
    assert not nested, f"imports inside functions hide module dependencies: {nested}"
    graph: dict[str, set[str]] = {}
    for module, _, target, _ in imports:
        graph.setdefault(module, set()).add(target)
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle between modules: {exc.args[1]}")


_REEXPORTED = ("partitions", "lr", "powersum", "plethysm", "stability")


def test_each_public_name_is_declared_once():
    modules = [importlib.import_module(f"plethlab.{name}") for name in _REEXPORTED]
    for module in modules:
        foreign = [n for n in module.__all__ if getattr(module, n).__module__ != module.__name__]
        assert not foreign, f"{module.__name__}.__all__ lists names it does not define: {foreign}"
    # __init__ names no public name itself: it star-imports the modules
    tree = ast.parse(Path(plethlab.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported = [alias.name for alias in node.names]
            assert imported == ["*"] or (node.module is None and set(imported) <= set(_REEXPORTED))
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            assert [getattr(elt, "value", None) for elt in node.elts] == ["__version__"]
    expected = ["__version__", *(name for module in modules for name in module.__all__)]
    assert len(set(expected)) == len(expected), "two modules export the same name"
    assert sorted(plethlab.__all__) == sorted(expected)
    namespace: dict = {}
    exec("from plethlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(plethlab.__all__)


# Every memo table in the package, as module.name: a ``functools`` cache, or
# a class that defines ``__missing__`` (a hand-rolled dict memo). Each one is
# reused by the measured traffic or read by the benchmark; ROADMAP's memo
# table gives its hits and misses per workload and what removing it cost. A
# new table comes with an edit here that cites its measured reuse.
_MEMO_TABLES = {
    "lr._hstrip_removals",
    "lr._jacobi_trudi_terms",
    "lr.dual_pieri_expansion",
    "plethysm._kostka",
    "powersum._character",
    "powersum._composed",
    "powersum._plethysm_items",
    "powersum._strip_additions",
    "powersum._strip_removals",
    "row_plethysm._tables_for",
}


def _is_memo(node) -> bool:
    """True for ``cache``, ``lru_cache``, their ``functools.`` forms, and
    calls of any of these."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def test_memo_tables_are_the_measured_ones():
    package = Path(plethlab.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if any(_is_memo(d) for d in node.decorator_list):
                    found.add(f"{path.stem}.{node.name}")
                if isinstance(node, ast.ClassDef) and any(
                    getattr(d, "name", None) == "__missing__" for d in node.body
                ):
                    found.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if _is_memo(node.value.func):
                    found.update(f"{path.stem}.{ast.unparse(t)}" for t in node.targets)
    assert found == _MEMO_TABLES
