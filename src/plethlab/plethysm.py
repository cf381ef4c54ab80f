"""Exact plethysm of Schur functions.

The workhorse route is the power-sum basis (see :mod:`powersum`), where full
expansions are computed exactly and cached.

An independent brute-force route (:func:`plethysm_oracle`) expands Schur
polynomials into monomials, substitutes the monomial multiset of the inner
function into the outer one, and decomposes the result by repeatedly
subtracting the Schur polynomial of the lexicographically leading exponent.
It shares no code with the power-sum route and exists as a correctness
witness; the test suite compares the two everywhere both are feasible.

Single coefficients are answered by the cheapest sound route: small products
use the cached full expansion; large coefficients against a one-row inner
shape go through Jacobi-Trudi factorization (see :mod:`row_plethysm`);
everything else falls back to pairing the power-sum expansion against a
single Murnaghan-Nakayama character, which never materializes the full
expansion.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from typing import Callable, Iterable, MutableMapping

from .lr import dual_pieri_expansion
from .partitions import (
    ExactnessError,
    Partition,
    as_partition,
    as_skew,
    conjugate,
    format_partition,
)
from .powersum import (
    _character,
    _composed,
    _exact_quotients,
    _plethysm_items,
    _scaled_to_integers,
    character_value,
    powersum_plethysm,
    powersum_to_schur,
    schur_to_powersum,
)
from .row_plethysm import row_coefficient

__all__ = [
    "ExactnessError",
    "character_value",
    "schur_to_powersum",
    "powersum_plethysm",
    "powersum_to_schur",
    "plethysm_schur",
    "plethysm_oracle",
    "plethysm_coefficient",
    "involution_map",
    "skew_plethysm_coefficient",
    "install_coefficient_store",
    "coefficient_store_key",
]

# Degree up to which single coefficients are read off the cached full
# expansion; above it the engine switches to targeted routes.
_FULL_CUTOFF = 15


def plethysm_schur(lam: Iterable[int], mu: Iterable[int]) -> dict[Partition, int]:
    """Full Schur expansion of the plethysm of the two Schur functions.

    Exact and complete; intended for desk-scale degrees (the cost grows with
    the number of partitions of ``|lam| * |mu|``). Single large coefficients
    should go through :func:`plethysm_coefficient` instead.

    With both shapes empty this is the ring unit ``{(): 1}``, as in the oracle,
    the one case where :func:`plethysm_coefficient` differs (0, by convention).
    """
    return dict(_plethysm_items(as_partition(lam), as_partition(mu)))


# ---------------------------------------------------------------------------
# Brute-force oracle: monomial substitution and leading-term peeling
# ---------------------------------------------------------------------------


def _substitute_schur(
    shape: Partition, vectors: tuple[tuple[int, ...], ...], nvars: int
) -> dict[tuple[int, ...], int]:
    """Evaluate a Schur polynomial at a list of monomials.

    Enumerates column-strict tableaux of the shape with entries indexing
    ``vectors`` and accumulates the componentwise sums of the chosen
    vectors. With unit vectors this is the Schur polynomial itself.
    """
    out: defaultdict[tuple[int, ...], int] = defaultdict(int)
    if not shape:
        out[(0,) * nvars] = 1
        return dict(out)
    n = len(vectors)
    if n == 0:
        return {}
    rows = len(shape)
    grid = [[0] * shape[r] for r in range(rows)]
    acc = [0] * nvars

    def place(r: int, c: int) -> None:
        if r == rows:
            out[tuple(acc)] += 1
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = grid[r][c - 1] if c > 0 else 1
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, n + 1):
            grid[r][c] = v
            vec = vectors[v - 1]
            for i in range(nvars):
                acc[i] += vec[i]
            place(nr, nc)
            for i in range(nvars):
                acc[i] -= vec[i]
        grid[r][c] = 0

    place(0, 0)
    return dict(out)


def _unit_vectors(nvars: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(1 if i == j else 0 for i in range(nvars)) for j in range(nvars)
    )


@cache
def _schur_polynomial(shape: Partition, nvars: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    poly = _substitute_schur(shape, _unit_vectors(nvars), nvars)
    return tuple(sorted(poly.items()))


def plethysm_oracle(
    lam: Iterable[int], mu: Iterable[int], nvars: int | None = None
) -> dict[Partition, int]:
    """Brute-force plethysm by monomial substitution.

    The inner Schur function is expanded into its monomials in ``nvars``
    variables (listed with multiplicity); the outer Schur function is then
    evaluated at that monomial multiset, and the resulting symmetric
    polynomial is decomposed by repeatedly subtracting the Schur polynomial
    of its lexicographically leading exponent vector.

    ``nvars`` defaults to ``|lam| * |mu|``; fewer variables would silently
    truncate partitions with many rows, so smaller values are rejected.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    needed = max(1, lam.size * mu.size)
    if nvars is None:
        nvars = needed
    if nvars < needed:
        raise ValueError(f"nvars={nvars} too small, need at least {needed}")
    monomials: list[tuple[int, ...]] = []
    for vec, mult in _schur_polynomial(mu, nvars):
        monomials.extend([vec] * mult)
    poly = dict(_substitute_schur(lam, tuple(monomials), nvars))
    result: dict[Partition, int] = {}
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        streak = list(lead)
        while streak and streak[-1] == 0:
            streak.pop()
        nu = Partition(streak)
        for vec, mult in _schur_polynomial(nu, nvars):
            value = poly.get(vec, 0) - coeff * mult
            if value:
                poly[vec] = value
            else:
                poly.pop(vec, None)
        result[nu] = coeff
    return result


# ---------------------------------------------------------------------------
# Single coefficients
# ---------------------------------------------------------------------------

_coefficient_store: MutableMapping[str, int] | None = None


def coefficient_store_key(nu: Partition, lam: Partition, mu: Partition) -> str:
    return f"{format_partition(nu)}|{format_partition(lam)}|{format_partition(mu)}"


def install_coefficient_store(store: MutableMapping[str, int] | None) -> None:
    """Install (or remove, with None) a persistent coefficient cache.

    The store maps canonical ``nu|lam|mu`` text to integers. It is a pure
    cache: values found in it are returned verbatim, values computed are
    written back, and correctness never depends on its contents being
    present. Used by the command line's on-disk cache.
    """
    global _coefficient_store
    _coefficient_store = store


def _coefficient_by_characters(nu: Partition, lam: Partition, mu: Partition) -> int:
    denom, scaled = _scaled_to_integers(_composed(lam, mu))
    total = 0
    for rho, c in scaled.items():
        chi = _character(nu, rho)
        if chi:
            total += c * chi
    return _exact_quotients({nu: total}, denom).get(nu, 0)


def _coefficient(nu: Partition, lam: Partition, mu: Partition) -> int:
    if not mu:
        # convention for an empty inner shape: 1 only for the empty target
        # and a one-row outer shape
        return 1 if (not nu and len(lam) == 1) else 0
    degree = lam.size * mu.size
    if nu.size != degree:
        return 0
    if not lam:
        return 1 if not nu else 0
    if len(mu) == 1:
        if mu[0] == 1:
            return 1 if nu == lam else 0
        if len(nu) > lam.size:
            return 0
    if degree <= _FULL_CUTOFF:
        return _plethysm_items(lam, mu).get(nu, 0)
    if len(mu) == 1:
        value = row_coefficient(nu, lam, mu[0])
        if value is not None:
            return value
    return _coefficient_by_characters(nu, lam, mu)


def plethysm_coefficient(
    nu: Iterable[int], lam: Iterable[int], mu: Iterable[int]
) -> int:
    """Multiplicity of the Schur function of nu in the plethysm of lam by mu.

    Fast zero paths: degree mismatch; a one-row mu with nu longer than
    ``|lam|`` rows. An empty mu follows the empty-inner-shape convention
    (1 exactly when nu is empty and lam has one row); an empty lam against a
    nonempty mu is the unit of the ring, contributing 1 at the empty nu.
    """
    nu, lam, mu = as_partition(nu), as_partition(lam), as_partition(mu)
    store = _coefficient_store
    if store is None:
        return _coefficient(nu, lam, mu)
    key = coefficient_store_key(nu, lam, mu)
    cached = store.get(key)
    if cached is not None:
        return cached
    value = _coefficient(nu, lam, mu)
    store[key] = value
    return value


def involution_map(
    nu: Iterable[int], lam: Iterable[int], mu: Iterable[int]
) -> tuple[Partition, Partition, Partition]:
    """Transport a coefficient index triple through the conjugation symmetry.

    Returns (nu', lam*, mu') where lam* is lam itself when |mu| is even and
    its conjugate when |mu| is odd; the plethysm coefficient is invariant
    under this map.
    """
    nu, lam, mu = as_partition(nu), as_partition(lam), as_partition(mu)
    lam_star = lam if mu.size % 2 == 0 else conjugate(lam)
    return conjugate(nu), lam_star, conjugate(mu)


def skew_plethysm_coefficient(target, source, mu: Iterable[int]) -> int:
    """Plethysm coefficient indexed by skew shapes.

    Both shapes are expanded into straight Schur functions and the straight
    coefficients are combined bilinearly. Zero whenever either shape has a
    non-contained inner part; reduces to :func:`plethysm_coefficient` when
    both inner parts are empty.
    """
    return _skew_coefficient(target, source, as_partition(mu), plethysm_coefficient)


def _skew_coefficient(target, source, mu: Partition, straight: Callable[..., int]) -> int:
    """Bilinear extension of ``straight(nu, lam, mu)`` to skew nu and lam,
    both expanded by :func:`dual_pieri_expansion`."""
    target, source = as_skew(target), as_skew(source)
    if not target.is_contained or not source.is_contained:
        return 0
    if not target.inner and not source.inner:
        return straight(target.outer, source.outer, mu)
    if target.size != mu.size * source.size:
        return 0
    source_terms = dual_pieri_expansion(source.outer, source.inner)
    total = 0
    for zeta, cz in dual_pieri_expansion(target.outer, target.inner):
        for eta, ce in source_terms:
            a = straight(zeta, eta, mu)
            if a:
                total += cz * ce * a
    return total
