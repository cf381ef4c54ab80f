"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear. The heavy scan shared by the stabilization and monotonicity criteria
runs once per session. Every tolerance here is exact integer equality; the
stated time budgets are asserted.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import plethlab
from plethlab import (
    Partition,
    ScanBounds,
    conjugate,
    grow_line,
    involution_map,
    lr_coefficient,
    partitions_of,
    plethysm_coefficient,
    plethysm_oracle,
    plethysm_schur,
    recurrence_coefficient,
    scan,
    verify_growth_identity,
)

P = Partition

_SUITE_START = time.monotonic()


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


@pytest.fixture(scope="module")
def stability_scan():
    bounds = ScanBounds(tau_sizes=(0, 1, 2, 3), m_values=(2, 3))
    return scan(bounds, j_max=12, window=5)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "power-sum route equals brute-force oracle up to degree 8"):
        t0 = time.monotonic()
        pairs = 0
        for a in range(1, 9):
            for b in range(1, 9):
                if a * b > 8:
                    continue
                for lam in partitions_of(a):
                    for mu in partitions_of(b):
                        assert plethysm_schur(lam, mu) == plethysm_oracle(lam, mu), (
                            tuple(lam),
                            tuple(mu),
                        )
                        pairs += 1
        elapsed = time.monotonic() - t0
        assert pairs == 167
        assert elapsed < 300, f"oracle sweep took {elapsed:.0f}s"


def test_criterion_2_classical_anchors():
    with criterion(2, "classical degree-4 expansions are exact"):
        anchors = [
            ((2,), (2,), {(4,): 1, (2, 2): 1}),
            ((1, 1), (2,), {(3, 1): 1}),
            ((2,), (1, 1), {(2, 2): 1, (1, 1, 1, 1): 1}),
            ((1, 1), (1, 1), {(2, 1, 1): 1}),
        ]
        for lam, mu, expected in anchors:
            engine = {tuple(k): v for k, v in plethysm_schur(lam, mu).items()}
            oracle = {tuple(k): v for k, v in plethysm_oracle(lam, mu).items()}
            assert engine == expected == oracle


def test_criterion_3_reduction_matches_direct():
    with criterion(3, "alternating reduction equals direct values, n<=4, m in {2,3}"):
        t0 = time.monotonic()
        cases = 0
        for n in range(1, 5):
            for lam in partitions_of(n):
                for m in (2, 3):
                    for nu in partitions_of(m * n):
                        if len(nu) > n:
                            continue
                        # raises VerificationError on any mismatch
                        value = recurrence_coefficient(lam, nu, m)
                        assert value == plethysm_coefficient(nu, lam, P((m,)))
                        cases += 1
        elapsed = time.monotonic() - t0
        assert cases > 0
        assert elapsed < 180, f"reduction sweep took {elapsed:.0f}s"


def test_criterion_4_conjugation_invariance():
    with criterion(4, "coefficients invariant under the conjugation map, sizes <= 3"):
        for a in range(1, 4):
            for b in range(1, 4):
                for lam in partitions_of(a):
                    for mu in partitions_of(b):
                        for nu in partitions_of(a * b):
                            mapped = involution_map(nu, lam, mu)
                            assert plethysm_coefficient(
                                nu, lam, mu
                            ) == plethysm_coefficient(*mapped)


def test_criterion_5_growth_identity():
    with criterion(5, "two-sided growth identity holds, n<=3, m in {1,2}, j<=4"):
        checked = 0
        for n in range(1, 4):
            for lam in partitions_of(n):
                for m in (1, 2):
                    for nu in partitions_of((m + 1) * n):
                        if len(nu) > n:
                            continue
                        for l in range(m + 1):
                            for j in range(5):
                                report = verify_growth_identity(nu, lam, l, m, j)
                                assert report.equal, (
                                    tuple(nu),
                                    tuple(lam),
                                    l,
                                    m,
                                    j,
                                    report.lhs,
                                    report.rhs,
                                )
                                checked += 1
        assert checked > 0
        # a size mismatch is vacuously true, with a note saying so
        vac = verify_growth_identity(P((3,)), P((2,)), 1, 1, 2)
        assert vac.vacuous and vac.equal and vac.note


def test_criterion_6_empirical_stabilization(stability_scan):
    with criterion(6, "all sequences constant on [6,12] over the scan space"):
        assert len(stability_scan.cells) == 602
        for cell in stability_scan.cells:
            tail = cell.report.values[6:]
            assert len(set(tail)) == 1, (cell.key, cell.report.values)
            assert cell.report.window_confirmed, cell.key
            assert cell.report.stabilization_index is not None
            assert cell.report.stabilization_index <= 6


def test_criterion_7_monotonicity(stability_scan):
    with criterion(
        7, "arm-only and leg-only families weakly increasing; (1,2) reported"
    ):
        for cell in stability_scan.cells:
            if cell.l in (0, cell.m):
                assert cell.report.weakly_increasing, (cell.key, cell.report.values)
        violations = stability_scan.conjectured_family_violations
        for cell in violations:
            print(
                "POTENTIAL COUNTEREXAMPLE (conjectured family, reported not failed): "
                f"{cell.key} values={list(cell.report.values)}"
            )
        # the report mechanism must carry the violations (if any); the known
        # degenerate empty-against-empty anchor is one such record
        assert [c.key for c in violations] == ["0|0|l=1|m=2"]
        summary = stability_scan.to_dict()
        assert summary["conjectured_family_violations"] == ["0|0|l=1|m=2"]


def test_criterion_8_lr_properties():
    with criterion(8, "LR symmetry, conjugation, and one-box growth stability"):
        for a in range(0, 9):
            for b in range(0, 9 - a):
                for lam in partitions_of(a):
                    for mu in partitions_of(b):
                        for nu in partitions_of(a + b):
                            c = lr_coefficient(nu, lam, mu)
                            assert c == lr_coefficient(nu, mu, lam)
                            assert c == lr_coefficient(
                                conjugate(nu), conjugate(lam), conjugate(mu)
                            )
        assert lr_coefficient(P((3, 2, 1)), P((2, 1)), P((2, 1))) == 2
        # growing the outer shape by one line and the content by one box
        # leaves the coefficient unchanged once the line is long enough
        for l, m in ((2, 2), (1, 2)):
            for ds in range(0, 5):
                for delta in partitions_of(ds):
                    for bs in range(0, 5):
                        for beta in partitions_of(bs):
                            for j in (3, 4, 5, 6):
                                dj = grow_line(delta, l, m, j)
                                dj1 = grow_line(delta, l, m, j + 1)
                                hs = dj.size - bs
                                if hs < 0:
                                    continue
                                for eta in partitions_of(hs):
                                    eta1 = grow_line(eta, l, m, 1)
                                    assert lr_coefficient(
                                        dj1, eta1, beta
                                    ) == lr_coefficient(dj, eta, beta), (
                                        tuple(delta),
                                        tuple(beta),
                                        tuple(eta),
                                        l,
                                        m,
                                        j,
                                    )


def test_criterion_9_empty_inner_shape_convention():
    with criterion(9, "empty inner shape convention"):
        for k in range(1, 6):
            assert plethysm_coefficient(P(()), P((k,)), P(())) == 1
        assert plethysm_coefficient(P(()), P(()), P(())) == 0
        for lam in [(1, 1), (2, 1), (3, 2, 1), (1, 1, 1)]:
            assert plethysm_coefficient(P(()), P(lam), P(())) == 0
        for nu in [(1,), (2,), (2, 1)]:
            for lam in [(1,), (2,), (1, 1)]:
                assert plethysm_coefficient(P(nu), P(lam), P(())) == 0


def _run_cli(*args, cache=None):
    argv = [sys.executable, "-m", "plethlab.cli"]
    if cache is not None:
        argv += ["--cache", str(cache)]
    argv += list(args)
    src = str(Path(plethlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def test_criterion_10_cli_determinism_and_budget(tmp_path):
    with criterion(10, "byte-identical scans, cache transparency, suite budget"):
        args = (
            "scan", "--tau-sizes", "0,1,2", "--m", "2", "--jmax", "8", "--window", "4",
        )
        first = _run_cli(*args)
        second = _run_cli(*args)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip()

        cache = tmp_path / "cache.tsv"
        cold = _run_cli(*args, cache=cache)
        warm = _run_cli(*args, cache=cache)
        assert cold.stdout == warm.stdout == first.stdout
        assert cache.exists()

        # verify battery twice, cache on and off, same records
        check_plain = _run_cli("verify")
        check_cached = _run_cli("verify", cache=cache)
        assert check_plain.returncode == 0
        assert check_plain.stdout == check_cached.stdout
        assert (
            hashlib.sha256(check_plain.stdout.encode()).hexdigest()
            == "7eff1b2d7adae2a0f45cc1273dd556efa389a9239f2f02e7ecee5cf065a112ee"
        )

        # every emitted line is valid JSON that round-trips byte for byte
        for line in first.stdout.splitlines():
            rec = json.loads(line)
            assert json.dumps(rec, sort_keys=True, separators=(",", ":")) == line

        elapsed = time.monotonic() - _SUITE_START
        assert elapsed < 600, f"acceptance suite took {elapsed:.0f}s"
