"""Command line harness.

Subcommands: ``coeff``, ``lr``, ``plethysm``, ``sequence``, ``verify``,
``scan``. Results are emitted as JSON Lines, one record per line with sorted
keys and canonical partition text, so identical invocations produce byte
identical output. ``--format csv`` is available for sequence values only.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 output
pipe closed by its reader (as a shell reports a writer ended by SIGPIPE).

``coeff --oracle`` compares the coefficient with the brute-force oracle.
Its ``"oracle": null`` means that no comparison was made: the triple of three
empty shapes is the one documented place where the two conventions differ.

``verify`` emits one record per check of its fixed battery, with the number
of cases that passed before the check's first failure (all of its cases when
it passes), then a summary record.

An optional on-disk coefficient cache (``--cache PATH``) persists computed
plethysm coefficients between runs, one ``key<TAB>value`` pair per line with
canonical ``nu|lam|mu`` keys. The cache is transparent: values never depend
on it, and corrupt lines are skipped with a warning. A run writes it back only
when it added entries, and drops any corrupt lines then. The write goes to a
temporary file beside it that is renamed over it, so a write that fails
partway leaves the previous cache intact. ``--timing`` adds a wall-time field
to each result record (per check for ``verify``, the aggregate for ``scan``);
it is off by default as it breaks byte-for-byte reproducibility.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .lr import lr_coefficient
from .partitions import (
    Partition,
    format_partition,
    format_skew,
    parse_partition,
    parse_skew,
    partitions_of,
    conjugate,
)
from .plethysm import (
    install_coefficient_store,
    involution_map,
    plethysm_coefficient,
    plethysm_oracle,
    plethysm_schur,
)
from .stability import (
    DEFAULT_J_MAX,
    DEFAULT_WINDOW,
    ScanBounds,
    SequenceSpec,
    VerificationError,
    coefficient_sequence,
    recurrence_coefficient,
    scan,
    verify_growth_identity,
)

_ENGINE_TAG = f"plethlab-{__version__}"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


def _emit(record: dict, *, timing_ms: int | None = None) -> None:
    record = dict(record)
    record["engine"] = _ENGINE_TAG
    if timing_ms is not None:
        record["wall_ms"] = timing_ms
    sys.stdout.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def _timed(args, fn, *a, **kw):
    """``fn(*a, **kw)`` and its wall time in ms, or None without ``--timing``."""
    t0 = time.monotonic()
    value = fn(*a, **kw)
    ms = int(1000 * (time.monotonic() - t0))
    return value, ms if args.timing else None


def _expansion_text(expansion: dict[Partition, int]) -> dict[str, int]:
    return {format_partition(k): v for k, v in sorted(expansion.items())}


def _load_cache(path: Path) -> dict[str, int]:
    store: dict[str, int] = {}
    if not path.exists():
        return store
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"warning: unreadable cache {path}: {exc}", file=sys.stderr)
        return store
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        key, sep, value = line.partition("\t")
        try:
            if not sep:
                raise ValueError("missing tab")
            store[key] = int(value)
        except ValueError:
            print(
                f"warning: ignoring corrupt cache line {lineno} in {path}",
                file=sys.stderr,
            )
    return store


def _save_cache(path: Path, store: dict[str, int]) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for key, value in sorted(store.items()):
                fh.write(f"{key}\t{value}\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_int_list(text: str, option: str) -> tuple[int, ...]:
    if not text.strip():
        raise ValueError(f"{option} needs at least one integer")
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{option} needs comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_triple(args) -> int:
    """``coeff`` and ``lr``: one coefficient of a nu|lambda|mu triple."""
    nu = parse_partition(args.nu)
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    value, ms = _timed(args, args.coefficient, nu, lam, mu)
    record = {
        "command": args.subcommand,
        "inputs": {
            "nu": format_partition(nu),
            "lambda": format_partition(lam),
            "mu": format_partition(mu),
        },
        "output": value,
    }
    ok = True
    if args.oracle:
        expected = plethysm_oracle(lam, mu).get(nu, 0) if lam or mu else None
        ok = expected is None or expected == value
        record["verification"] = {"oracle": expected, "ok": ok}
    _emit(record, timing_ms=ms)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_plethysm(args) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    expansion, ms = _timed(args, plethysm_schur, lam, mu)
    record = {
        "command": "plethysm",
        "inputs": {"lambda": format_partition(lam), "mu": format_partition(mu)},
        "output": {"expansion": _expansion_text(expansion)},
    }
    ok = True
    if args.oracle:
        ok = plethysm_oracle(lam, mu) == expansion
        record["verification"] = {"ok": ok}
    _emit(record, timing_ms=ms)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_sequence(args) -> int:
    target = parse_skew(args.sigma)
    source = parse_skew(args.tau)
    spec = SequenceSpec(target, source, args.l, args.m, args.jmax)
    report, ms = _timed(args, coefficient_sequence, spec, window=args.window)
    if args.format == "csv":
        sys.stdout.write("j,value\n")
        for j, v in enumerate(report.values):
            sys.stdout.write(f"{j},{v}\n")
        return EXIT_OK
    _emit(
        {
            "command": "sequence",
            "inputs": {
                "sigma": format_skew(target),
                "tau": format_skew(source),
                "l": args.l,
                "m": args.m,
                "jmax": args.jmax,
                "window": args.window,
            },
            "output": report.to_dict(),
        },
        timing_ms=ms,
    )
    return EXIT_OK


def _cmd_scan(args) -> int:
    bounds = ScanBounds(
        tau_sizes=_parse_int_list(args.tau_sizes, "--tau-sizes"),
        m_values=_parse_int_list(args.m, "--m"),
        l_values=None if args.l == "all" else _parse_int_list(args.l, "--l"),
    )
    report, ms = _timed(args, scan, bounds, j_max=args.jmax, window=args.window)
    for cell in report.cells:
        _emit({"command": "scan", "cell": cell.to_dict()})
    for cell in report.conjectured_family_violations:
        _emit(
            {
                "command": "scan",
                "warning": "monotonicity violation in the conjectured family",
                "cell": cell.to_dict(),
            }
        )
    _emit(
        {"command": "scan", "aggregate": report.to_dict()},
        timing_ms=ms,
    )
    failed = bool(report.not_stabilized) or bool(report.proven_family_violations)
    return EXIT_VERIFICATION if failed else EXIT_OK


def _verify_checks():
    """Fixed battery of cross-checks with small, deterministic bounds."""

    def oracle_equivalence():
        for a in range(1, 7):
            for b in range(1, 7):
                if a * b > 6:
                    continue
                for lam in partitions_of(a):
                    for mu in partitions_of(b):
                        yield plethysm_schur(lam, mu) == plethysm_oracle(lam, mu)

    def classical_anchors():
        anchors = [
            ((2,), (2,), {(4,): 1, (2, 2): 1}),
            ((1, 1), (2,), {(3, 1): 1}),
            ((2,), (1, 1), {(2, 2): 1, (1, 1, 1, 1): 1}),
            ((1, 1), (1, 1), {(2, 1, 1): 1}),
        ]
        for lam, mu, expected in anchors:
            got = {tuple(k): v for k, v in plethysm_schur(lam, mu).items()}
            yield got == expected

    def involution():
        for a in range(1, 3):
            for b in range(1, 3):
                for lam in partitions_of(a):
                    for mu in partitions_of(b):
                        for nu in partitions_of(a * b):
                            mapped = involution_map(nu, lam, mu)
                            yield plethysm_coefficient(nu, lam, mu) == plethysm_coefficient(*mapped)

    def lr_symmetry():
        for a in range(0, 7):
            for b in range(0, 7 - a):
                for lam in partitions_of(a):
                    for mu in partitions_of(b):
                        for nu in partitions_of(a + b):
                            c = lr_coefficient(nu, lam, mu)
                            yield c == lr_coefficient(nu, mu, lam) and c == lr_coefficient(
                                conjugate(nu), conjugate(lam), conjugate(mu)
                            )

    def reduction_matches_direct():
        for n in range(1, 4):
            for lam in partitions_of(n):
                for nu in partitions_of(2 * n):
                    if len(nu) > n:
                        continue
                    try:
                        recurrence_coefficient(lam, nu, 2)
                    except VerificationError:
                        yield False
                    else:
                        yield True

    def growth_identity():
        for n in range(1, 3):
            for lam in partitions_of(n):
                for m in (1, 2):
                    for nu in partitions_of((m + 1) * n):
                        if len(nu) > n:
                            continue
                        for l in range(m + 1):
                            for j in range(3):
                                yield verify_growth_identity(nu, lam, l, m, j).equal

    return [
        oracle_equivalence,
        classical_anchors,
        involution,
        lr_symmetry,
        reduction_matches_direct,
        growth_identity,
    ]


def _passed_cases(check) -> tuple[int, bool]:
    """Cases passed before the first of ``check``'s yields that is False."""
    cases = 0
    for ok in check():
        if not ok:
            return cases, False
        cases += 1
    return cases, True


def _cmd_verify(args) -> int:
    all_ok = True
    for check in _verify_checks():
        (cases, ok), ms = _timed(args, _passed_cases, check)
        all_ok = all_ok and ok
        _emit(
            {"command": "verify", "check": check.__name__, "cases": cases, "ok": ok},
            timing_ms=ms,
        )
    _emit({"command": "verify", "summary": {"ok": all_ok}})
    return EXIT_OK if all_ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plethlab",
        description="Exact Littlewood-Richardson and plethysm computations "
        "with growth-sequence stability experiments.",
    )
    parser.add_argument("--cache", type=Path, default=None, help="on-disk coefficient cache file")
    parser.add_argument("--timing", action="store_true", help="add wall_ms to records (breaks byte-identical output)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    triple = argparse.ArgumentParser(add_help=False)
    triple.add_argument("--nu", required=True)
    triple.add_argument("--lambda", dest="lam", required=True)
    triple.add_argument("--mu", required=True)

    p = sub.add_parser("coeff", parents=[triple], help="single plethysm coefficient")
    p.add_argument("--oracle", action="store_true", help="cross-check with the brute-force oracle")
    p.set_defaults(run=_cmd_triple, coefficient=plethysm_coefficient)

    p = sub.add_parser("lr", parents=[triple], help="single Littlewood-Richardson coefficient")
    p.set_defaults(run=_cmd_triple, coefficient=lr_coefficient, oracle=False)

    p = sub.add_parser("plethysm", help="full Schur expansion of a plethysm")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check with the brute-force oracle")
    p.set_defaults(run=_cmd_plethysm)

    p = sub.add_parser("sequence", help="growth sequence of one family")
    p.add_argument("--sigma", required=True, help="target shape (outer[/inner])")
    p.add_argument("--tau", required=True, help="source shape (outer[/inner])")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--jmax", type=int, default=DEFAULT_J_MAX)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.set_defaults(run=_cmd_sequence)

    p = sub.add_parser("verify", help="run the built-in cross-check battery")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("scan", help="bulk scan of growth families")
    p.add_argument("--tau-sizes", default="0,1,2,3", help="comma list of source sizes")
    p.add_argument("--m", default="2,3", help="comma list of row sizes")
    p.add_argument("--l", default="all", help="'all' or comma list")
    p.add_argument("--jmax", type=int, default=DEFAULT_J_MAX)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.set_defaults(run=_cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    store = None
    if args.cache is not None:
        store = _load_cache(args.cache)
        loaded = len(store)
        install_coefficient_store(store)
    try:
        return args.run(args)
    except BrokenPipeError:
        # the interpreter flushes stdout at exit; send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    finally:
        if store is not None:
            install_coefficient_store(None)
            if len(store) > loaded:
                try:
                    _save_cache(args.cache, store)
                except OSError as exc:
                    print(f"warning: could not write cache {args.cache}: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
