"""Exact plethysm of Schur functions.

The workhorse route is the power-sum basis (see :mod:`powersum`), where full
expansions are computed exactly and cached.

An independent brute-force route (:func:`plethysm_oracle`) expands Schur
polynomials into monomials, substitutes the monomial multiset of the inner
function into the outer one, checks that the result is symmetric, and
decomposes it on its dominant exponent vectors: the lexicographically
leading one is peeled off with its Kostka numbers, repeatedly. It shares no
code with the power-sum route and exists as a correctness witness; the test
suite compares the two everywhere both are feasible.

Single coefficients are answered by the cheapest sound route: small products
use the cached full expansion; large coefficients against a one-row inner
shape go through Jacobi-Trudi factorization (see :mod:`row_plethysm`);
everything else falls back to pairing the power-sum expansion against a
single Murnaghan-Nakayama character, which never materializes the full
expansion.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache
from math import factorial, prod
from typing import Callable, Iterable, MutableMapping

from .lr import dual_pieri_expansion
from .partitions import (
    ExactnessError,
    Partition,
    as_partition,
    as_skew,
    conjugate,
    format_partition,
    partitions_between,
)
from .powersum import (
    _character,
    _composed,
    _exact_quotients,
    _omega_outer,
    _plethysm_items,
    # unused here: perfbench/layers.py traces both in this namespace
    powersum_plethysm,
    powersum_to_schur,
)
from .row_plethysm import row_coefficient

__all__ = [
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

    Exact and complete, for desk-scale degrees: about 40 against a one-row
    or one-column mu; other mu compose power sums of degree ``|lam| * |mu|``.
    Single large coefficients should go through :func:`plethysm_coefficient`.

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

    Exponent vectors are summed as integers in base ``base``: no coordinate
    of a sum of ``|shape|`` vectors reaches it, so digits never carry.
    """
    if not shape:
        return {(0,) * nvars: 1}
    n = len(vectors)
    if n == 0:
        return {}
    base = shape.size * max(map(max, vectors)) + 1
    codes = [0]
    for vec in vectors:
        code = 0
        for e in vec:
            code = code * base + e
        codes.append(code)
    rows = len(shape)
    grid = [[0] * shape[r] for r in range(rows)]
    counts: defaultdict[int, int] = defaultdict(int)

    def place(r: int, c: int, acc: int) -> None:
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = grid[r][c - 1] if c > 0 else 1
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, grid[r - 1][c] + 1)
        if nr == rows:
            for v in range(lo, n + 1):
                counts[acc + codes[v]] += 1
            return
        row = grid[r]
        for v in range(lo, n + 1):
            row[c] = v
            place(nr, nc, acc + codes[v])

    place(0, 0, 0)
    out: dict[tuple[int, ...], int] = {}
    for code, count in counts.items():
        vec = [0] * nvars
        for i in range(nvars - 1, -1, -1):
            code, vec[i] = divmod(code, base)
        out[tuple(vec)] = count
    return out


def _unit_vectors(nvars: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(1 if i == j else 0 for i in range(nvars)) for j in range(nvars)
    )


def _schur_polynomial(shape: Partition, nvars: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    poly = _substitute_schur(shape, _unit_vectors(nvars), nvars)
    return tuple(sorted(poly.items()))


@cache
def _kostka(nu: tuple[int, ...], weight: tuple[int, ...]) -> int:
    """Kostka number: semistandard tableaux of shape ``nu`` and content
    ``weight`` (positive parts of equal total).

    The entries equal to ``len(weight)`` fill a horizontal strip nu/kappa of
    size ``weight[-1]``, that is a kappa interlacing nu
    (``nu[i+1] <= kappa[i] <= nu[i]``): the partitions between nu without its
    first row and nu. The count recurses on each such kappa with the smaller
    weight.
    """
    if len(nu) > len(weight):
        return 0
    if not weight:
        return 1
    rest = weight[:-1]
    return sum(
        _kostka(kappa, rest)
        for kappa in partitions_between(nu[1:], nu, sum(nu) - weight[-1])
    )


def plethysm_oracle(
    lam: Iterable[int], mu: Iterable[int], nvars: int | None = None
) -> dict[Partition, int]:
    """Brute-force plethysm by monomial substitution.

    The inner Schur function is expanded into its monomials in ``nvars``
    variables (listed with multiplicity); the outer Schur function is then
    evaluated at that monomial multiset. The resulting polynomial is
    symmetric, which is checked explicitly (:class:`ExactnessError`
    otherwise): every rearrangement of an exponent vector must occur, with
    the coefficient of the sorted one. Only its dominant (weakly decreasing)
    exponent vectors are kept, and the polynomial is decomposed by
    repeatedly taking the lexicographically leading one, nu, and subtracting
    its coefficient times the Kostka number K(nu, alpha) at each remaining
    dominant alpha; K(nu, alpha) is the coefficient of x^alpha in the Schur
    polynomial of nu. A plethysm of Schur functions is Schur positive, so
    every alpha with K(nu, alpha) > 0 is still present when nu is peeled.

    ``nvars`` defaults to ``|lam| * len(mu)``, and smaller values are
    rejected. That many variables lose nothing: the plethysm is a
    constituent of the ``|lam|``-th power of the Schur function of mu, and by
    the Littlewood-Richardson rule every constituent of that product has at
    most ``|lam| * len(mu)`` rows. Setting the remaining variables to 0 is a
    ring map that kills exactly the Schur functions with more rows, and none
    occurs. Fewer variables would silently truncate partitions with many
    rows.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    needed = max(1, lam.size * len(mu))
    if nvars is None:
        nvars = needed
    if nvars < needed:
        raise ValueError(f"nvars={nvars} too small, need at least {needed}")
    monomials: list[tuple[int, ...]] = []
    for vec, mult in _schur_polynomial(mu, nvars):
        monomials.extend([vec] * mult)
    poly = _substitute_schur(lam, tuple(monomials), nvars)
    dominant: dict[tuple[int, ...], int] = {}
    rearrangements = 0
    for vec, coeff in poly.items():
        alpha = tuple(sorted(vec, reverse=True))
        if poly.get(alpha) != coeff:
            raise ExactnessError(
                f"substituted polynomial is not symmetric: {coeff} at {vec}, "
                f"{poly.get(alpha, 0)} at {alpha}"
            )
        if vec == alpha:
            dominant[tuple(p for p in vec if p)] = coeff
            rearrangements += factorial(nvars) // prod(map(factorial, Counter(vec).values()))
    if rearrangements != len(poly):
        raise ExactnessError(
            f"substituted polynomial is not symmetric: {len(poly)} monomials, "
            f"but its dominant ones have {rearrangements} rearrangements"
        )
    result: dict[Partition, int] = {}
    while dominant:
        nu = max(dominant)
        coeff = dominant[nu]
        for alpha in list(dominant):
            value = dominant[alpha] - coeff * _kostka(nu, alpha)
            if value:
                dominant[alpha] = value
            else:
                del dominant[alpha]
        result[Partition(nu)] = coeff
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
    denom, composed = _composed(lam, mu)
    total = sum(c * _character(nu, rho) for rho, c in composed.items())
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
    return conjugate(nu), _omega_outer(lam, mu.size), conjugate(mu)


def skew_plethysm_coefficient(target, source, mu: Iterable[int]) -> int:
    """Plethysm coefficient indexed by skew shapes.

    Both shapes are expanded into straight Schur functions and the straight
    coefficients are combined bilinearly. Zero whenever either shape has a
    non-contained inner part; reduces to :func:`plethysm_coefficient` when
    both inner parts are empty.
    """
    return _skew_coefficient(target, source, as_partition(mu), plethysm_coefficient)


def _skew_coefficient(target, source, mu: Partition, straight: Callable[..., int]) -> int:
    """Bilinear extension of ``straight(nu, lam, mu)`` to skew nu and lam by
    :func:`dual_pieri_expansion`, empty when an inner shape does not fit."""
    target, source = as_skew(target), as_skew(source)
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
