"""The power-sum route: border strips, characters and basis changes.

Plethysm goes through the power-sum basis with exact arithmetic. Inside the
package an expansion is a scale D with integral weights h, standing for h/D:
a Schur function of degree n has D = n!, which every centralizer order
divides, and composition (a power sum composed into a power sum multiplies
the indices) keeps the weights integral. Back in the Schur basis, the empty
Schur function is multiplied by each power sum in turn, sharing common
prefixes Horner-fashion over a trie of the indices; each total is divided by
D exactly. One kernel adds strips on beta numbers, with no cap: a step p_a
adds border strips (the Murnaghan-Nakayama rule read forwards), and against
a one-row inner shape (m), or a one-column one by ω, each p_a of the outer
shape is read as h_m[p_a], a horizontal strip of m ribbons, so nothing is
composed; ``row_plethysm``'s row tables use it too. One kernel removes them,
a skew by h_m[p_r], for that module's peel and ``lr``'s horizontal strips;
characters keep their own. ``Fraction`` appears only in the public functions
that take or return rational weights, and nothing here touches floats.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping

from .partitions import ExactnessError, Partition, as_partition, conjugate, partitions_of

__all__ = [
    "character_value",
    "schur_to_powersum",
    "powersum_plethysm",
    "powersum_to_schur",
]


# ---------------------------------------------------------------------------
# Border strips on beta numbers; symmetric group characters (Murnaghan-Nakayama)
# ---------------------------------------------------------------------------


def _add_ribbon_strips(
    acc: defaultdict, shape: Partition, c: int, r: int, m: int, n: int, inside: Callable
) -> None:
    """Add c·s_shape·h_m[p_r] into acc, on the shapes that pass inside.

    By the rule of Lascoux, Leclerc and Thibon, the product is the signed
    sum of s_ν over the horizontal strips ν/shape of m ribbons of size r.
    On n beta numbers a bead rises by d·r, where d is at most the number of
    free slots on its runner (its residue mod r) up to the next bead of that
    runner in shape, and the d's add up to m. The beads move in decreasing
    order of their original positions, one r-step at a time; each step adds
    a border strip of r boxes, with sign (-1)^(beads passed). Every
    intermediate shape lies inside the final one, so a step whose shape
    fails inside (a down-closed test) ends its branch.
    """
    parts = list(shape) + [0] * (n - len(shape))
    # a bead at part - row: the beta number less n - 1, so runners and gaps are kept
    movable, top = [], {}
    for i, part in enumerate(parts):
        bead = part - i
        above = top.get(bead % r)
        room = m if above is None else min(m, (above - bead) // r - 1)
        if room:
            movable.append((i, room))
        top[bead % r] = bead

    def place(first: int, left: int, parts: list[int], length: int, c: int) -> None:
        for at in range(first, len(movable)):
            # bead i still sits in row i: the beads above it moved up or stayed
            i, room = movable[at]
            q, moved, signed = i, parts, c
            rows = length if length > i else i + 1
            for d in range(1, (room if room < left else left) + 1):
                bead = moved[q] - q + r
                p = q
                while p and moved[p - 1] - p + 1 < bead:
                    p -= 1
                moved = moved[:p] + [bead + p] + [x + 1 for x in moved[p:q]] + moved[q + 1:]
                if (q - p) % 2:
                    signed = -signed
                q = p
                bigger = tuple.__new__(Partition, moved[:rows])
                if not inside(bigger):
                    break
                if d == left:
                    acc[bigger] += signed
                else:
                    place(at + 1, left - d, moved, rows, signed)

    place(0, m, parts, len(shape), c)


@cache
def _remove_ribbon_strips(shape: Partition, r: int, m: int) -> tuple[tuple[Partition, int], ...]:
    """All ways to skew s_shape by h_m[p_r], the adjoint of
    :func:`_add_ribbon_strips`: (smaller, sign) pairs. A bead sits at
    shape_i - i, with implicit beads at every position <= -len(shape), and
    drops by d·r: d is at most the number of free slots on its runner down to
    the next bead of that runner in shape, and the d's add up to m. The
    bottom bead moves first, one r-step at a time; each step removes a border
    strip of r boxes, with sign (-1)^(beads passed), so +1 for r = 1.
    """
    if not m:
        return ((shape, 1),)
    n, movable, below = len(shape), [], {}
    for i in range(n - 1, -1, -1):
        bead = shape[i] - i
        # the runner's next bead down: in a lower row, or the top implicit one
        if room := min(m, (bead - below.get(bead % r, -n - (-n - bead) % r)) // r - 1):
            movable.append((i, room))
        below[bead % r] = bead
    acc: defaultdict[Partition, int] = defaultdict(int)

    def place(first: int, left: int, parts: list[int], c: int) -> None:
        for at in range(first, len(movable)):
            # bead q still sits in row q: the beads below it moved down or stayed
            (q, room), moved, signed = movable[at], parts, c
            for d in range(1, (room if room < left else left) + 1):
                bead, p = moved[q] - q - r, q
                while p + 1 < n and moved[p + 1] - p - 1 > bead:
                    p += 1
                moved = moved[:]
                if p == q:  # the step passes no bead
                    moved[q] = bead + q
                else:  # the beads passed each move up a row
                    moved[q : p + 1] = [x - 1 for x in moved[q + 1 : p + 1]] + [bead + p]
                    signed, q = -signed if (p - q) % 2 else signed, p
                if d < left:
                    place(at + 1, left - d, moved, signed)
                else:
                    acc[tuple.__new__(Partition, filter(None, moved))] += signed

    place(0, m, list(shape), 1)
    return tuple(acc.items())


@cache
def _strip_additions(shape: Partition, k: int, m: int = 1) -> tuple[tuple[Partition, int], ...]:
    """All ways to multiply s_shape by h_m[p_k]: (bigger, sign) pairs.

    This is the step of :func:`_horner`, the horizontal strips of m ribbons
    of k boxes in :func:`_add_ribbon_strips` (Lascoux, Leclerc and Thibon,
    J. Math. Phys. 38, 1997). With m = 1 it adds one border strip, the
    Murnaghan-Nakayama rule read forwards; m > 1 serves the full expansions
    against one-row and one-column inner shapes. The strips add at most k·m
    rows, so ``len(shape) + k·m`` beta numbers hold every result.
    """
    acc: defaultdict[Partition, int] = defaultdict(int)
    _add_ribbon_strips(acc, shape, 1, k, m, len(shape) + k * m, lambda bigger: True)
    return tuple(acc.items())


@cache
def _strip_removals(lam: Partition, k: int) -> tuple[tuple[Partition, int], ...]:
    """All ways to remove a border strip of k boxes: (rest, sign) pairs.

    Mirror image of :func:`_strip_additions`: (bigger, s) is among the
    additions to shape exactly when (shape, s) is among the removals from
    bigger. Moving the beta number of row i down by k to a free slot lands
    it in row q-1, below the q-1-i beta numbers it passes: rows i+1..q-1
    move up one row and each lose a box, and the sign is (-1)^(q-1-i).
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


def _integral_schur(lam: Partition) -> tuple[int, dict[Partition, int]]:
    """(n!, h) with h/n! the power-sum expansion of the Schur function of lam,
    n = |lam|: h maps κ to χ^lam(κ)·n!/z_κ, an integer since z_κ divides n!."""
    scale = factorial(lam.size)
    out = {}
    for mu in partitions_of(lam.size):
        chi = _character(lam, mu)
        if chi:
            out[mu] = chi * (scale // _centralizer_order(mu))
    return scale, out


def schur_to_powersum(lam: Iterable[int]) -> dict[Partition, Fraction]:
    """Power-sum expansion of a Schur function: character over centralizer order."""
    scale, scaled = _integral_schur(as_partition(lam))
    return {mu: Fraction(c, scale) for mu, c in scaled.items()}


def _normalize_pexp(f) -> dict[Partition, Fraction]:
    out: dict[Partition, Fraction] = {}
    for key, val in f.items():
        val = Fraction(val)
        if val:
            out[as_partition(key)] = val
    return out


def _pexp_mul(f: Mapping[Partition, Any], g: Mapping[Partition, Any]) -> dict[Partition, Any]:
    out: defaultdict[Partition, Any] = defaultdict(int)
    for mu, a in f.items():
        for nu, b in g.items():
            out[tuple.__new__(Partition, sorted(mu + nu, reverse=True))] += a * b
    return {k: v for k, v in out.items() if v}


def _compose(
    df: int, f: Mapping[Partition, Any], dg: int, g: Mapping[Partition, Any]
) -> tuple[int, dict[Partition, Any]]:
    """(df·dg^L, h) with h/(df·dg^L) the plethysm of f/df by g/dg, where L is
    the longest index of f; h is integral when f and g are.

    A power sum composes into g by multiplying every index of g by its own,
    and p_π∘(g/dg) = dg^−ℓ(π)·Π p_{π_i}∘g because each p_k∘ is a ring map
    that fixes scalars. The powers (p_v∘g)^k are shared between the terms.
    """
    longest = max(map(len, f), default=0)
    out: defaultdict[Partition, Any] = defaultdict(int)
    powers: dict[tuple[int, int], dict[Partition, Any]] = {}
    for pi, c in f.items():
        term = {Partition(): c * dg ** (longest - len(pi))}
        for v, mult in Counter(pi).items():
            if (v, 1) not in powers:
                powers[v, 1] = {Partition(v * p for p in mu): b for mu, b in g.items()}
            for k in range(2, mult + 1):
                if (v, k) not in powers:
                    powers[v, k] = _pexp_mul(powers[v, k - 1], powers[v, 1])
            term = _pexp_mul(term, powers[v, mult])
        for mu, val in term.items():
            out[mu] += val
    return df * dg**longest, {k: v for k, v in out.items() if v}


def powersum_plethysm(f, g) -> dict[Partition, Fraction]:
    """Plethysm in the power-sum basis.

    A single power sum composes into g by multiplying every index of g by
    its own; the first argument is extended linearly, and products of power
    sums compose factor by factor.
    """
    return _compose(1, _normalize_pexp(f), 1, _normalize_pexp(g))[1]


def _trie(terms: Iterable[tuple[tuple[int, ...], int]]) -> list:
    """The trie [w, {a: child}] of weighted power sums (indices, w)."""
    root: list = [0, {}]
    for indices, w in terms:
        node = root
        for a in indices:
            node = node[1].setdefault(a, [0, {}])
        node[0] += w
    return root


def _horner(node: list, base: Mapping, out: defaultdict, m: int = 1) -> defaultdict:
    """Add Σ w·Π h_m[p_index]·base over the index tuples of the trie into out;
    returns out. A node [w, {a: child}] gives w·base + Σ_a h_m[p_a]·(the
    child's sum), each step adding strips of m ribbons (border strips for
    m = 1, where h_1[p_a] = p_a) to the shapes whose coefficient is nonzero.
    The full expansions start from base s_∅ (:func:`_to_schur`)."""
    weight, children = node
    if weight:
        for shape, c in base.items():
            out[shape] += weight * c
    for a, child in children.items():
        for shape, c in _horner(child, base, defaultdict(int), m).items():
            if c:
                for bigger, sign in _strip_additions(shape, a, m):
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


def _to_schur(denom: int, f: Mapping[Partition, int], m: int = 1) -> dict[Partition, int]:
    """Schur expansion of f/denom, for f a homogeneous integral power-sum
    expansion, with each p_a read as h_m[p_a] (the plain expansion for m = 1).

    The power sums are gathered into a trie by their indices, parts in
    decreasing order, and :func:`_horner` multiplies them onto s_∅ by strip
    additions. Each total is divided by denom exactly; a remainder means
    f/denom is not an integral symmetric function and raises
    :class:`ExactnessError`.
    """
    totals = _horner(_trie(f.items()), {Partition(): 1}, defaultdict(int), m)
    return _exact_quotients(totals, denom)


def powersum_to_schur(f) -> dict[Partition, int]:
    """Schur expansion of a homogeneous power-sum expansion, by :func:`_to_schur`
    over the least common denominator of the weights. Entries come in the
    order of :func:`partitions_of`.
    """
    f = _normalize_pexp(f)
    degrees = {mu.size for mu in f} or {0}
    if len(degrees) > 1:
        raise ExactnessError(f"expansion is not homogeneous: degrees {sorted(degrees)}")
    denom = lcm(*(c.denominator for c in f.values()))
    scaled = {mu: c.numerator * (denom // c.denominator) for mu, c in f.items()}
    # descending tuple order is the reverse-lexicographic order of partitions_of
    return dict(sorted(_to_schur(denom, scaled, 1).items(), reverse=True))


# ---------------------------------------------------------------------------
# Full plethysm expansion (power-sum route)
# ---------------------------------------------------------------------------


@cache
def _composed(lam: Partition, mu: Partition) -> tuple[int, dict[Partition, int]]:
    """(D, h) with h/D the power-sum expansion of the plethysm of the two
    Schur functions; h is integral. Cached for the character pairing, which
    reads it once per target."""
    return _compose(*_integral_schur(lam), *_integral_schur(mu))


def _omega_outer(lam: Partition, size: int) -> Partition:
    """lam*, with ω(s_lam∘s_mu) = s_lam*∘s_mu' whenever |mu| = size."""
    return lam if size % 2 == 0 else conjugate(lam)


@cache
def _plethysm_items(lam: Partition, mu: Partition) -> Mapping[Partition, int]:
    """Read-only full Schur expansion, keys in increasing order.

    Against μ = (m) it is Σ_κ (χ^lam(κ)/z_κ)·Π_i h_m[p_κi] (Lascoux, Leclerc
    and Thibon), :func:`_to_schur` with h_m[p_a] steps; against μ = (1^m)
    it is the image of s_lam*∘h_m under ω, which conjugates every index.
    Other μ compose the power sums, uncached, as this expansion is cached.
    """
    m = mu.size
    if len(mu) == 1:
        schur = _to_schur(*_integral_schur(lam), m)
    elif mu and mu[0] == 1:
        rows = _to_schur(*_integral_schur(_omega_outer(lam, m)), m)
        schur = {conjugate(nu): c for nu, c in rows.items()}
    else:
        schur = _to_schur(*_compose(*_integral_schur(lam), *_integral_schur(mu)), 1)
    return MappingProxyType(dict(sorted(schur.items())))
