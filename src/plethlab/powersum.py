"""The power-sum route: border strips, characters and basis changes.

Plethysm goes through the power-sum basis with exact arithmetic: expand both
factors over power sums, compose them with the substitution rules (a power
sum composed into a power sum multiplies the indices), and convert back to
Schur functions. The conversion scales the power-sum weights to integers
over one common denominator and multiplies the empty Schur function by each
power sum in turn, adding border strips on beta numbers (the
Murnaghan-Nakayama rule read forwards); it shares the products of power sums
with a common prefix by evaluating them Horner-fashion over a trie of their
indices, and divides each total by the denominator exactly at the end.
Nothing here ever touches floating point.

The same evaluator :func:`_horner`, started from a base expansion in place
of the empty Schur function, builds the row tables of :mod:`row_plethysm`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from types import MappingProxyType
from typing import Iterable, Mapping

from .partitions import ExactnessError, Partition, as_partition, partitions_of

__all__ = [
    "character_value",
    "schur_to_powersum",
    "powersum_plethysm",
    "powersum_to_schur",
]


# ---------------------------------------------------------------------------
# Border strips on beta numbers; symmetric group characters (Murnaghan-Nakayama)
# ---------------------------------------------------------------------------


@cache
def _strip_additions(
    shape: Partition, k: int, cap: tuple[int, ...]
) -> tuple[tuple[Partition, int], ...]:
    """All ways to add a border strip of k boxes inside cap: (bigger, sign) pairs.

    This is multiplication of a Schur function by the power sum p_k, the
    step of :func:`_horner`, which evaluates both the full expansions of
    :func:`powersum_to_schur` and the row tables of :mod:`row_plethysm`.
    Mirror image of border-strip removal on the beta numbers, taken with the
    fixed length ``len(cap)``, so a shape with more rows than the cap cannot
    be formed. Moving the beta number of row i up by k to a free slot lands
    it in row p, shifts rows p..i-1 down by one row (each gains a box) and
    has sign (-1)^(i-p). A move is rejected before its shape is built when
    the new part at p or a shifted row would exceed its cap. The shape must
    lie inside the cap, as every caller's does (full expansions fill the n×n
    box, row tables restart from s_∅), so only its row count is checked.
    """
    if len(shape) > len(cap):
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


def _trie(terms: Iterable[tuple[tuple[int, ...], int]]) -> list:
    """The trie [w, {a: child}] of weighted power sums (indices, w)."""
    root: list = [0, {}]
    for indices, w in terms:
        node = root
        for a in indices:
            node = node[1].setdefault(a, [0, {}])
        node[0] += w
    return root


def _horner(node: list, cap: tuple[int, ...], base: Mapping, out: defaultdict) -> defaultdict:
    """Add Σ w·p_indices·base over the power sums of the trie into out; returns out.
    A node [w, {a: child}] gives w·base + Σ_a p_a·(the child's sum), each p_a
    adding border strips inside cap to the shapes whose coefficient is nonzero."""
    weight, children = node
    if weight:
        for shape, c in base.items():
            out[shape] += weight * c
    for a, child in children.items():
        for shape, c in _horner(child, cap, base, defaultdict(int)).items():
            if c:
                for bigger, sign in _strip_additions(shape, a, cap):
                    out[bigger] += sign * c
    return out


def _exact_quotients(totals: Mapping, denom: int) -> dict:
    """Each nonzero total divided by denom; a remainder raises ExactnessError."""
    out = {}
    for key, total in totals.items():
        if total:
            q, rem = divmod(total, denom)
            if rem:
                raise ExactnessError(f"non-integral coefficient {total}/{denom} at {key}")
            out[key] = q
    return out


def powersum_to_schur(f) -> dict[Partition, int]:
    """Schur expansion of a homogeneous power-sum expansion.

    The weights are scaled to integers over their least common denominator
    D. The power sums are gathered into a trie by their indices, parts in
    decreasing order, and :func:`_horner` multiplies them onto s_∅ by border
    strip additions (inside the n×n box, which prunes nothing at degree n).
    Each total is divided by D exactly; a remainder means the input was not
    an integral symmetric function and raises :class:`ExactnessError`.
    Entries come in the order of :func:`partitions_of`.
    """
    f = _normalize_pexp(f)
    degree = _pexp_degree(f)
    denom, scaled = _scaled_to_integers(f)
    trie = _trie(scaled.items())
    totals = _horner(trie, (degree,) * degree, {Partition(): 1}, defaultdict(int))
    # descending tuple order is the reverse-lexicographic order of partitions_of
    return dict(sorted(_exact_quotients(totals, denom).items(), reverse=True))


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
