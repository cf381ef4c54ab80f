"""Exact plethysm of Schur functions.

The workhorse route goes through the power-sum basis with exact arithmetic:
expand both factors over power sums, compose them with the substitution
rules (a power sum composed into a power sum multiplies the indices), and
convert back to Schur functions. The conversion scales the power-sum
weights to integers over one common denominator and multiplies the empty
Schur function by each power sum in turn, adding border strips on beta
numbers (the Murnaghan-Nakayama rule read forwards); it shares the products
of power sums with a common prefix by evaluating them Horner-fashion over a
trie of their indices, and divides each total by the denominator exactly at
the end. Nothing here ever touches floating point.

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

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, MutableMapping

from .lr import dual_pieri_expansion
from .partitions import (
    ExactnessError,
    Partition,
    as_partition,
    as_skew,
    conjugate,
    format_partition,
    partitions_of,
)

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


# ---------------------------------------------------------------------------
# Border strips on beta numbers; symmetric group characters (Murnaghan-Nakayama)
# ---------------------------------------------------------------------------


def _within(shape: Partition, cap: tuple[int, ...]) -> bool:
    if len(shape) > len(cap):
        return False
    return all(shape[i] <= cap[i] for i in range(len(shape)))


@cache
def _strip_additions(
    shape: Partition, k: int, cap: tuple[int, ...]
) -> tuple[tuple[Partition, int], ...]:
    """All ways to add a border strip of k boxes inside cap: (bigger, sign) pairs.

    This is multiplication of a Schur function by the power sum p_k
    (:func:`_mul_power_sum`), shared by :func:`powersum_to_schur` and the
    row tables of :mod:`row_plethysm`.
    Mirror image of border-strip removal on the beta numbers, taken with the
    fixed length ``len(cap)``, so a shape with more rows than the cap cannot
    be formed. Moving the beta number of row i up by k to a free slot lands
    it in row p, shifts rows p..i-1 down by one row (each gains a box) and
    has sign (-1)^(i-p). A move is rejected before its shape is built when
    the new part at p or a shifted row would exceed its cap. Nothing is
    added to a shape outside the cap.
    """
    if not _within(shape, cap):
        return ()
    n, length = len(cap), len(shape)
    parts = list(shape) + [0] * (n - length)
    beta = [parts[i] + n - 1 - i for i in range(n)]
    out = []
    # a row at or past length + k would land on an occupied beta number
    for i in range(min(n, length + k)):
        nb = beta[i] + k
        p = i
        while p and beta[p - 1] < nb and parts[p - 1] < cap[p]:
            p -= 1
        if p and beta[p - 1] <= nb:
            continue  # slot taken, or row p-1 cannot shift down within the cap
        new = parts[i] + k - (i - p)
        if new > cap[p]:
            continue
        bigger = parts[:p]
        bigger.append(new)
        bigger += [x + 1 for x in parts[p:i]]
        bigger += parts[i + 1:max(length, i + 1)]
        # canonical by construction: weakly decreasing, no trailing zeros
        out.append((tuple.__new__(Partition, bigger), -1 if (i - p) % 2 else 1))
    return tuple(out)


def _mul_power_sum(
    level: dict[Partition, int], k: int, cap: tuple[int, ...], out: defaultdict
) -> defaultdict:
    """Add p_k times the Schur expansion level, restricted to the shapes
    inside cap, into out; returns out."""
    for shape, c in level.items():
        for bigger, sign in _strip_additions(shape, k, cap):
            out[bigger] += sign * c
    return out


@cache
def _strip_removals(lam: Partition, k: int) -> tuple[tuple[Partition, int], ...]:
    """All ways to remove a border strip of k boxes: (rest, sign) pairs.

    Mirror image of :func:`_strip_additions`. Moving the beta number of row
    i down by k to a free slot lands it in row q-1, below the q-1-i beta
    numbers it passes: rows i+1..q-1 move up one row and each lose a box,
    and the sign is (-1)^(q-1-i).
    """
    L = len(lam)
    beta = [lam[i] + (L - 1 - i) for i in range(L)]
    out = []
    for i in range(L):
        nb = beta[i] - k
        if nb < 0:
            continue
        q = i + 1
        while q < L and beta[q] > nb:
            q += 1
        if q < L and beta[q] == nb:
            continue  # slot taken
        rest = list(lam[:i])
        rest += [x - 1 for x in lam[i + 1:q]]
        rest.append(nb - (L - q))
        rest += lam[q:]
        while rest and not rest[-1]:
            rest.pop()
        # canonical by construction: the new beta numbers are distinct
        out.append((tuple.__new__(Partition, rest), -1 if (q - 1 - i) % 2 else 1))
    return tuple(out)


@cache
def _character(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    k = mu[0]
    rest = tuple.__new__(Partition, mu[1:])
    total = 0
    for smaller, sign in _strip_removals(lam, k):
        total += sign * _character(smaller, rest)
    return total


def character_value(lam: Iterable[int], mu: Iterable[int]) -> int:
    """The symmetric group character indexed by lam at the class of cycle
    type mu, by the Murnaghan-Nakayama recursion (memoized)."""
    lam, mu = as_partition(lam), as_partition(mu)
    if lam.size != mu.size:
        raise ValueError(
            f"character requires |lam| = |mu|, got {lam.size} != {mu.size}"
        )
    return _character(lam, mu)


def _centralizer_order(mu: Partition) -> int:
    z = 1
    for v, c in Counter(mu).items():
        z *= v**c * factorial(c)
    return z


# ---------------------------------------------------------------------------
# Power-sum basis changes and plethysm
# ---------------------------------------------------------------------------


def schur_to_powersum(lam: Iterable[int]) -> dict[Partition, Fraction]:
    """Power-sum expansion of a Schur function: character over centralizer order."""
    lam = as_partition(lam)
    out = {}
    for mu in partitions_of(lam.size):
        chi = _character(lam, mu)
        if chi:
            out[mu] = Fraction(chi, _centralizer_order(mu))
    return out


def _normalize_pexp(f) -> dict[Partition, Fraction]:
    out: dict[Partition, Fraction] = {}
    for key, val in f.items():
        val = Fraction(val)
        if val:
            out[as_partition(key)] = val
    return out


def _pexp_degree(f: dict[Partition, Fraction]) -> int:
    degrees = {mu.size for mu in f}
    if len(degrees) > 1:
        raise ExactnessError(f"expansion is not homogeneous: degrees {sorted(degrees)}")
    return degrees.pop() if degrees else 0


def _pexp_mul(
    f: dict[Partition, Fraction], g: dict[Partition, Fraction]
) -> dict[Partition, Fraction]:
    out: defaultdict[Partition, Fraction] = defaultdict(Fraction)
    for mu, a in f.items():
        for nu, b in g.items():
            out[Partition(sorted(mu + nu, reverse=True))] += a * b
    return {k: v for k, v in out.items() if v}


def _pexp_scale_indices(f: dict[Partition, Fraction], n: int) -> dict[Partition, Fraction]:
    return {Partition(n * p for p in mu): c for mu, c in f.items()}


def powersum_plethysm(f, g) -> dict[Partition, Fraction]:
    """Plethysm in the power-sum basis.

    A single power sum composes into g by multiplying every index of g by
    its own; the first argument is extended linearly, and products of power
    sums compose factor by factor.
    """
    f = _normalize_pexp(f)
    g = _normalize_pexp(g)
    out: defaultdict[Partition, Fraction] = defaultdict(Fraction)
    scaled: dict[int, dict[Partition, Fraction]] = {}
    powers: dict[tuple[int, int], dict[Partition, Fraction]] = {}
    for pi, c in f.items():
        term: dict[Partition, Fraction] = {Partition(): Fraction(1)}
        for v, mult in Counter(pi).items():
            if v not in scaled:
                scaled[v] = _pexp_scale_indices(g, v)
            key = (v, mult)
            if key not in powers:
                power = scaled[v]
                for _ in range(mult - 1):
                    power = _pexp_mul(power, scaled[v])
                powers[key] = power
            term = _pexp_mul(term, powers[key])
        for mu, val in term.items():
            out[mu] += c * val
    return {k: v for k, v in out.items() if v}


def _scaled_to_integers(f: dict[Partition, Fraction]) -> tuple[int, dict[Partition, int]]:
    """(D, g) with D the least common denominator of f's weights and g = D·f."""
    denom = lcm(*(c.denominator for c in f.values()))
    return denom, {mu: c.numerator * (denom // c.denominator) for mu, c in f.items()}


def _horner(node: list, cap: tuple[int, ...]) -> dict[Partition, int]:
    """w·s_∅ + Σ_a p_a·W(child a) for a trie node [w, {a: child}]."""
    weight, children = node
    acc: defaultdict[Partition, int] = defaultdict(int)
    if weight:
        acc[Partition()] = weight
    for a, child in children.items():
        _mul_power_sum(_horner(child, cap), a, cap, acc)
    return {shape: c for shape, c in acc.items() if c}


def powersum_to_schur(f) -> dict[Partition, int]:
    """Schur expansion of a homogeneous power-sum expansion.

    The weights are scaled to integers over their least common denominator
    D. The power sums are gathered into a trie by their indices, parts in
    decreasing order, and evaluated Horner-fashion from the leaves up: each
    node multiplies its children's Schur expansions by p_a through border
    strip additions (inside the n×n box, which prunes nothing at degree n)
    and adds its own weight at the empty shape. Each total is divided by D
    exactly; a remainder means the input was not an integral symmetric
    function and raises :class:`ExactnessError`. Entries come in the order
    of :func:`partitions_of`.
    """
    f = _normalize_pexp(f)
    degree = _pexp_degree(f)
    denom, scaled = _scaled_to_integers(f)
    root: list = [0, {}]
    for mu, w in scaled.items():
        node = root
        for part in mu:
            node = node[1].setdefault(part, [0, {}])
        node[0] += w
    out: dict[Partition, int] = {}
    # descending tuple order is the reverse-lexicographic order of partitions_of
    for lam, total in sorted(_horner(root, (degree,) * degree).items(), reverse=True):
        q, rem = divmod(total, denom)
        if rem:
            raise ExactnessError(
                f"non-integral Schur coefficient {Fraction(total, denom)} at {lam}"
            )
        out[lam] = q
    return out


# ---------------------------------------------------------------------------
# Full plethysm expansion (power-sum route)
# ---------------------------------------------------------------------------


@cache
def _composed(lam: Partition, mu: Partition) -> dict[Partition, Fraction]:
    """Power-sum expansion of the plethysm of the two Schur functions."""
    return powersum_plethysm(schur_to_powersum(lam), schur_to_powersum(mu))


@cache
def _plethysm_items(lam: Partition, mu: Partition) -> Mapping[Partition, int]:
    """Read-only full Schur expansion, keys in increasing order."""
    return MappingProxyType(dict(sorted(powersum_to_schur(_composed(lam, mu)).items())))


def plethysm_schur(lam: Iterable[int], mu: Iterable[int]) -> dict[Partition, int]:
    """Full Schur expansion of the plethysm of the two Schur functions.

    Exact and complete; intended for desk-scale degrees (the cost grows with
    the number of partitions of ``|lam| * |mu|``). Single large coefficients
    should go through :func:`plethysm_coefficient` instead.
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
    q, rem = divmod(total, denom)
    if rem:
        raise ExactnessError(f"non-integral coefficient {Fraction(total, denom)}")
    return q


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
        m = mu[0]
        if m == 1:
            return 1 if nu == lam else 0
        if len(nu) > lam.size:
            return 0
        if degree <= _FULL_CUTOFF:
            return _plethysm_items(lam, mu).get(nu, 0)
        from . import row_plethysm

        value = row_plethysm.row_coefficient(nu, lam, m)
        if value is not None:
            return value
        return _coefficient_by_characters(nu, lam, mu)
    if degree <= _FULL_CUTOFF:
        return _plethysm_items(lam, mu).get(nu, 0)
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
