"""Growth sequences of plethysm coefficients and their empirical behaviour.

A growth family fixes a target shape, a source shape, and parameters
(l, m). As j grows, the target gains an arm of width l*j plus j legs of
width m-l while the source gains a single line of j boxes (a row or a
column, depending on the parity of m+l); the tracked value is the plethysm
coefficient of the grown target in the composition of the grown source with
the one-row shape of size m.

Sequences of this kind are known to become eventually constant, but no
effective bound for the onset is known, so everything here is reported with
honest empirical semantics: stabilization is "window confirmed" when the
trailing constant run is at least the configured window long, and never
claimed beyond the computed range. Weak monotonicity is reported for every
sequence; which families are expected monotone is the caller's business.

The module also evaluates the same coefficients through an alternating
reduction to one-row shapes of smaller size and cross-checks them against
the direct engine, and verifies a two-sided identity relating a grown
coefficient to a double sum of skew coefficients one row-size down.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from typing import Iterable, Iterator, NamedTuple

from .partitions import (
    Partition,
    SkewShape,
    _check_growth_params,
    as_partition,
    as_skew,
    conjugate,
    format_partition,
    format_skew,
    grow_arm_legs,
    grow_line,
    grow_skew_arm_legs,
    grow_skew_line,
    partitions_between,
    partitions_of,
    remove_first_column,
)
from .plethysm import _skew_coefficient, plethysm_coefficient, skew_plethysm_coefficient
from .row_plethysm import warm_tables

__all__ = [
    "VerificationError",
    "SequenceSpec",
    "SequenceReport",
    "coefficient_sequence",
    "detect_stabilization",
    "recurrence_coefficient",
    "GrowthIdentityReport",
    "verify_growth_identity",
    "ScanBounds",
    "ScanCell",
    "ScanReport",
    "scan",
]

DEFAULT_J_MAX = 12
DEFAULT_WINDOW = 5


class VerificationError(RuntimeError):
    """A cross-check between two independent computations failed."""


class SequenceSpec(namedtuple("SequenceSpec", "target source l m j_max")):
    """A growth family: shapes, growth parameters, and the index range.

    Every construction, ``_make`` and ``_replace`` included, reads the shapes
    by ``as_skew`` and then checks the growth parameters.
    """

    __slots__ = ()

    def __new__(cls, target, source, l: int, m: int, j_max: int = DEFAULT_J_MAX):
        target, source = as_skew(target), as_skew(source)
        _check_growth_params(l, m, j_max)
        return super().__new__(cls, target, source, l, m, j_max)

    @classmethod
    def _make(cls, iterable) -> "SequenceSpec":
        return cls(*iterable)

    def to_dict(self) -> dict:
        target, source = format_skew(self.target), format_skew(self.source)
        return {**self._asdict(), "target": target, "source": source}


class SequenceReport(NamedTuple):
    """Materialized sequence values plus empirical verdicts."""

    spec: SequenceSpec
    values: tuple[int, ...]
    stabilization_index: int | None
    window_confirmed: bool
    limit: int | None
    weakly_increasing: bool
    window: int

    def to_dict(self) -> dict:
        return {**self._asdict(), "spec": self.spec.to_dict(), "values": list(self.values)}


def _check_window(window: int) -> None:
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")


def detect_stabilization(
    values: Iterable[int], window: int
) -> tuple[int | None, bool]:
    """Least index from which the sequence is constant to the end.

    Returns (index, window_confirmed). The index is absent when the final
    value differs from its predecessor, i.e. no constant tail of length at
    least 2 has been observed (a single-element sequence counts as constant
    from its only index).
    """
    _check_window(window)
    values = list(values)
    if not values:
        raise ValueError("cannot detect stabilization of an empty sequence")
    last = values[-1]
    j = len(values) - 1
    while j > 0 and values[j - 1] == last:
        j -= 1
    if j == len(values) - 1 and len(values) > 1:
        return None, False
    run = len(values) - j
    return j, run >= window


def _warm_rows(specs: list[SequenceSpec]) -> None:
    """Grow the row tables once per m with each family's target at its j_max."""
    for m in sorted({spec.m for spec in specs}):
        targets = [grow_arm_legs(s.target.outer, s.l, m, s.j_max) for s in specs if s.m == m]
        warm_tables(targets, m)


def coefficient_sequence(
    spec: SequenceSpec, *, window: int = DEFAULT_WINDOW
) -> SequenceReport:
    """Materialize the growth sequence of a family and analyse it.

    The value at j is the skew coefficient of the grown shapes, 0 at each j
    where an inner shape does not fit in its grown outer one.
    """
    _check_window(window)
    target, source = spec.target, spec.source
    mu = Partition((spec.m,))
    _warm_rows([spec])
    values = tuple(
        skew_plethysm_coefficient(
            grow_skew_arm_legs(target, spec.l, spec.m, j),
            grow_skew_line(source, spec.l, spec.m, j),
            mu,
        )
        for j in range(spec.j_max + 1)
    )
    index, confirmed = detect_stabilization(values, window)
    return SequenceReport(
        spec=spec,
        values=values,
        stabilization_index=index,
        window_confirmed=confirmed,
        limit=values[index] if index is not None else None,
        weakly_increasing=all(a <= b for a, b in zip(values, values[1:])),
        window=window,
    )


# ---------------------------------------------------------------------------
# Alternating reduction to smaller one-row shapes
# ---------------------------------------------------------------------------


def _deep_coefficient(nu: Partition, lam: Partition, mu: Partition) -> int:
    """The reduction for a nonempty lam at row size >= 2, else the direct engine."""
    if lam and mu[0] >= 2:
        return recurrence_coefficient(lam, nu, mu[0], deep=True)
    return plethysm_coefficient(nu, lam, mu)


def _alternating_sum(nu: Partition, lam: Partition, r: int, skew) -> int:
    """Sum over i <= k = |lam| - len(nu), beta |- i and alpha |- k + r*i of
    (-1)^(k+i) skew(alpha/(k-i), beta', (r+1)) skew(nu^/alpha, lam'/beta, (r)),
    where nu^ is nu without its first column and (s) the row of size s.

    A skew shape whose inner part is not contained is the zero function, so
    only (k-i) <= alpha <= nu^ and beta <= lam' contribute; the walk visits
    those alone, with the alphas listed once per i."""
    upper, lower = Partition((r + 1,)), Partition((r,))
    k = lam.size - len(nu)
    nu_hat = remove_first_column(nu)
    lam_conj = conjugate(lam)
    total = 0
    for i in range(k + 1):
        sign = -1 if (k + i) % 2 else 1
        inner_row = Partition((k - i,))
        alphas = list(partitions_between(inner_row, nu_hat, k + r * i))
        if not alphas:
            continue
        for beta in partitions_between((), lam_conj, i):
            source_first = SkewShape.straight(conjugate(beta))
            source_second = SkewShape(lam_conj, beta)
            for alpha in alphas:
                first = skew(SkewShape(alpha, inner_row), source_first, upper)
                if not first:
                    continue
                second = skew(SkewShape(nu_hat, alpha), source_second, lower)
                if second:
                    total += sign * first * second
    return total


def recurrence_coefficient(
    lam: Iterable[int], nu: Iterable[int], m: int, *, deep: bool = False
) -> int:
    """Coefficient of nu in the composition of lam with the m-row, computed
    by the alternating reduction to row-size m-1, and verified against the
    direct engine.

    The reduction needs m >= 2: at m = 1 its inner terms would involve an
    empty inner shape on skew indices, for which no convention is adopted
    here; m = 1 coefficients are evaluated directly elsewhere.

    With ``deep`` the straight coefficients inside the reduction are
    themselves computed by recursion down to row-size 2 (each level verified
    as well); by default they use the direct engine, isolating a single
    reduction step as the unit under test. Disagreement with the direct
    engine raises :class:`VerificationError` rather than returning a value.
    """
    lam, nu = as_partition(lam), as_partition(nu)
    if m < 2:
        raise ValueError("the reduction needs m >= 2; evaluate m = 1 directly")
    if not lam:
        raise ValueError("lam must be nonempty")
    n = lam.size
    if nu.size != m * n or len(nu) > n:
        return 0
    if deep:
        skew = partial(_skew_coefficient, straight=_deep_coefficient)
    else:
        skew = skew_plethysm_coefficient
    total = _alternating_sum(nu, lam, m - 1, skew)
    direct = plethysm_coefficient(nu, lam, Partition((m,)))
    if total != direct:
        raise VerificationError(
            f"reduction value {total} != direct value {direct} "
            f"for nu={format_partition(nu)}, lam={format_partition(lam)}, m={m}"
        )
    return total


class GrowthIdentityReport(NamedTuple):
    """One check of the growth identity; true exactly when ``equal``."""

    lhs: int | None
    rhs: int | None
    equal: bool
    vacuous: bool
    note: str = ""

    def __bool__(self) -> bool:
        return self.equal


def verify_growth_identity(
    nu: Iterable[int], lam: Iterable[int], l: int, m: int, j: int
) -> GrowthIdentityReport:
    """Check, at one growth index, the identity expressing a grown
    coefficient at row-size m+1 as an alternating double sum of skew
    coefficients at row-size m.

    The shapes grow with parameters (l, m+1), so l may be as large as m+1;
    for l <= m the summation offset is independent of j, which is the whole
    point of the identity, while l = m+1 (arm-only growth) is checked with
    the offset recomputed from the grown shapes.

    Vacuously true (with a note) when the sizes do not match the identity's
    hypotheses: nu must have m+1 times the size of lam and at most as many
    rows as lam has boxes.
    """
    nu, lam = as_partition(nu), as_partition(lam)
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not 0 <= l <= m + 1:
        raise ValueError(f"l must satisfy 0 <= l <= m+1, got l={l}")
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    n = lam.size
    if nu.size != (m + 1) * n or len(nu) > n:
        return GrowthIdentityReport(
            None, None, True, True, "size or row-count mismatch; identity is vacuous"
        )
    nu_j = grow_arm_legs(nu, l, m + 1, j)
    lam_j = grow_line(lam, l, m + 1, j)
    lhs = plethysm_coefficient(nu_j, lam_j, Partition((m + 1,)))
    rhs = _alternating_sum(nu_j, lam_j, m, skew_plethysm_coefficient)
    return GrowthIdentityReport(lhs, rhs, lhs == rhs, False)


# ---------------------------------------------------------------------------
# Bulk scans
# ---------------------------------------------------------------------------


class ScanBounds(namedtuple("ScanBounds", "tau_sizes m_values l_values")):
    """Enumeration bounds for a straight-shape scan.

    For every m, every source partition whose size lies in ``tau_sizes``,
    every target partition of m times that size, and every l (all of
    0..m unless ``l_values`` is given), the scan materializes one growth
    sequence. An m below 1, a negative source size, or a given l that lies
    outside 0..m for every m raises ValueError, also from ``_make`` and
    ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, tau_sizes=(), m_values=(), l_values=None):
        for m in m_values:
            if m < 1:
                raise ValueError(f"m must be a positive integer, got {m}")
        for size in tau_sizes:
            if size < 0:
                raise ValueError(f"tau sizes must be nonnegative, got {size}")
        top = max(m_values, default=0)
        for l in l_values or ():
            if not 0 <= l <= top:
                raise ValueError(f"l={l} lies outside 0..m for every m in {m_values}")
        return super().__new__(cls, tau_sizes, m_values, l_values)

    @classmethod
    def _make(cls, iterable) -> "ScanBounds":
        return cls(*iterable)

    def cells(self) -> Iterator[tuple[Partition, Partition, int, int]]:
        for m in sorted(set(self.m_values)):
            ls = (
                tuple(l for l in sorted(set(self.l_values)) if l <= m)
                if self.l_values is not None
                else tuple(range(m + 1))
            )
            for size in sorted(set(self.tau_sizes)):
                for tau in partitions_of(size):
                    for sigma in partitions_of(m * size):
                        for l in ls:
                            yield sigma, tau, l, m


class ScanCell(NamedTuple):
    target: Partition
    source: Partition
    l: int
    m: int
    report: SequenceReport

    @property
    def key(self) -> str:
        return (
            f"{format_partition(self.target)}|{format_partition(self.source)}"
            f"|l={self.l}|m={self.m}"
        )

    @property
    def family(self) -> str:
        """Where weak increase stands for this cell: ``"proven"`` for arm-only
        and leg-only growth (l in {0, m}), ``"conjectured"`` for
        (l, m) = (1, 2), ``"other"`` for every other cell."""
        if self.l in (0, self.m):
            return "proven"
        return "conjectured" if (self.l, self.m) == (1, 2) else "other"

    def to_dict(self) -> dict:
        return {
            "target": format_partition(self.target),
            "source": format_partition(self.source),
            "l": self.l,
            "m": self.m,
            **self.report.to_dict(),
        }


class ScanReport(NamedTuple):
    cells: tuple[ScanCell, ...]
    j_max: int
    window: int

    @property
    def not_stabilized(self) -> tuple[ScanCell, ...]:
        return tuple(c for c in self.cells if not c.report.window_confirmed)

    def _violations(self, family: str) -> tuple[ScanCell, ...]:
        return tuple(
            c for c in self.cells if not c.report.weakly_increasing and c.family == family
        )

    @property
    def proven_family_violations(self) -> tuple[ScanCell, ...]:
        """Violations in the families where weak increase is a theorem
        (arm-only growth, and leg-only growth)."""
        return self._violations("proven")

    @property
    def conjectured_family_violations(self) -> tuple[ScanCell, ...]:
        """Violations in the conjectured family (l, m) = (1, 2); these are
        potential counterexamples and deserve loud reporting, not a crash."""
        return self._violations("conjectured")

    def to_dict(self) -> dict:
        return {
            "j_max": self.j_max,
            "window": self.window,
            "cells": len(self.cells),
            "stabilized": sum(1 for c in self.cells if c.report.window_confirmed),
            "not_stabilized": [c.key for c in self.not_stabilized],
            "proven_family_violations": [c.key for c in self.proven_family_violations],
            "conjectured_family_violations": [
                c.key for c in self.conjectured_family_violations
            ],
            "other_monotonicity_exceptions": [c.key for c in self._violations("other")],
        }


def scan(
    bounds: ScanBounds,
    *,
    j_max: int = DEFAULT_J_MAX,
    window: int = DEFAULT_WINDOW,
) -> ScanReport:
    """Materialize every growth sequence in the bounds, in a fixed order.

    Cells are independent pure computations; they are evaluated and reported
    in deterministic enumeration order (m, then source size, then source and
    target in reverse-lexicographic order, then l), so two identical scans
    produce identical reports.
    """
    _check_window(window)
    specs = [
        SequenceSpec(SkewShape.straight(sigma), SkewShape.straight(tau), l, m, j_max)
        for sigma, tau, l, m in bounds.cells()
    ]
    _warm_rows(specs)
    cells = tuple(
        ScanCell(s.target.outer, s.source.outer, s.l, s.m, coefficient_sequence(s, window=window))
        for s in specs
    )
    return ScanReport(cells, j_max, window)
