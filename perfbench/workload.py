"""One workload process of the plethlab benchmark.

``run.py`` starts this script in a fresh interpreter for every measurement,
so every ``functools.cache`` and row table starts cold, as it does for a
user on each command line call::

    python3 perfbench/workload.py --workload expand --seed 3 --mode run

Modes:

* ``setup``: import plethlab, generate the inputs, report when ready, exit.
* ``run``: the same, then run the timed section and check its outputs.
* ``build``: fill the coefficient store at ``--store`` with a cached scan.

The last line of standard output is one JSON object: ``ready`` (the
``time.monotonic()`` reading once plethlab is imported and the inputs are
made; the parent subtracts its launch time), ``wall_s`` (the timed
section), ``peak_rss_mb``, item counts, and the per-layer metrics when
``--trace`` is given.

Every item's output is reduced to canonical text and hashed with SHA-256
after the timed section. An item fails when it raises, when its own
cross-check fails, or when its hash differs from the one recorded in
``digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
POOLS = HERE / "pools.json"
DIGESTS = HERE / "digests.json"
STATE_DIR = HERE.parent / ".perfbench"
SPANS_DIR = STATE_DIR / "spans"

# Items that every seed runs. The seeded items are drawn one from each group
# of pools.json; record.py groups items of similar cost, so every seed gets a
# sample of about the same cost.
FIXED = {"expand": ["schur|4|5"]}

WORKLOADS = ("scan", "expand", "identity", "rescan")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> list[str]:
    """Item keys of one workload for one seed; scan and rescan are fixed."""
    if workload in ("scan", "rescan"):
        return []
    pools = json.loads(POOLS.read_text(encoding="utf-8"))[workload]
    rng = random.Random(f"{workload}/{seed}")
    items = list(FIXED.get(workload, ()))
    for groups in pools.values():
        items.extend(rng.choice(group) for group in groups)
    return items


def _parts(text: str):
    from plethlab.partitions import parse_partition

    return parse_partition(text)


# ---------------------------------------------------------------------------
# Items: each returns (output, problem); problem is None when the item's own
# cross-check passed. Library functions are looked up on their modules at
# call time so that the tracer's wrappers see every call.
# ---------------------------------------------------------------------------


def _schur(lam, mu):
    from plethlab import plethysm

    return plethysm.plethysm_schur(_parts(lam), _parts(mu)), None


def _oracle(lam, mu):
    from plethlab import plethysm

    lam, mu = _parts(lam), _parts(mu)
    oracle = plethysm.plethysm_oracle(lam, mu)
    problem = None if oracle == plethysm.plethysm_schur(lam, mu) else "oracle != plethysm_schur"
    return oracle, problem


def _char(nu, lam, mu):
    from plethlab import plethysm

    triple = _parts(nu), _parts(lam), _parts(mu)
    value = plethysm.plethysm_coefficient(*triple)
    mirrored = plethysm.plethysm_coefficient(*plethysm.involution_map(*triple))
    return value, None if value == mirrored else f"involution gives {mirrored}"


def _growth(nu, lam, l, m, j_max):
    from plethlab import stability

    sides = []
    for j in range(int(j_max) + 1):
        report = stability.verify_growth_identity(_parts(nu), _parts(lam), int(l), int(m), j)
        if not report.equal:
            return sides, f"identity fails at j={j}: {report.lhs} != {report.rhs}"
        sides.append((report.lhs, report.rhs))
    return sides, None


def _recurrence(lam, nu, m):
    from plethlab import stability

    # raises VerificationError when the reduction disagrees with the engine
    return stability.recurrence_coefficient(_parts(lam), _parts(nu), int(m), deep=True), None


def _lr(nu):
    from plethlab import lr, partitions

    nu = _parts(nu)
    values = {}
    for size in range(1, nu.size):
        for mu in partitions.partitions_of(size):
            if not partitions.contains(nu, mu):
                continue
            skew = dict(lr.dual_pieri_expansion(nu, mu))
            for lam in partitions.partitions_of(nu.size - size):
                c = lr.lr_coefficient(nu, lam, mu)
                if c != skew.get(lam, 0):
                    return values, f"c({lam},{mu}) = {c} but dual Pieri gives {skew.get(lam, 0)}"
                if c:
                    values[(lam, mu)] = c
    return values, None


def _skew(outer):
    from plethlab import lr, partitions

    outer = _parts(outer)
    values = {}
    for size in range(1, outer.size):
        for inner in partitions.partitions_of(size):
            if not partitions.contains(outer, inner):
                continue
            expansion = lr.skew_schur_expansion(partitions.SkewShape(outer, inner))
            if expansion != dict(lr.dual_pieri_expansion(outer, inner)):
                return values, f"skew expansion of /{inner} disagrees with dual Pieri"
            values[inner] = expansion
    return values, None


ITEMS = {
    "schur": _schur,
    "oracle": _oracle,
    "char": _char,
    "growth": _growth,
    "recurrence": _recurrence,
    "lr": _lr,
    "skew": _skew,
}


def run_item(key: str):
    kind, *args = key.split("|")
    try:
        return ITEMS[kind](*args)
    except Exception as exc:  # an item that raises is a failed item
        return None, f"{type(exc).__name__}: {exc}"


def canonical(value) -> str:
    """Canonical text of an output: dicts sorted, partitions as lists."""

    def plain(v):
        if isinstance(v, dict):
            return sorted([plain(k), plain(x)] for k, x in v.items())
        if isinstance(v, (tuple, list)):
            return [plain(x) for x in v]
        return v

    return json.dumps(plain(value), separators=(",", ":"))


def digest(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


# ---------------------------------------------------------------------------
# Timed sections
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    from plethlab import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def timed(workload: str, items: list[str], store: str | None):
    """Run the workload; returns (wall_s, outputs), outputs as
    (key, canonical text or None, problem)."""
    if workload in ("scan", "rescan"):
        argv = ["scan"] if workload == "scan" else ["--cache", store, "scan"]
        t0 = time.perf_counter()
        code, text = run_cli(argv)
        wall = time.perf_counter() - t0
        outputs = [(f"scan|{i}", line, None) for i, line in enumerate(text.splitlines())]
        outputs.append(("scan|exit", str(code), None))
        if workload == "rescan":
            outputs.append(("store", Path(store).read_bytes(), None))
        return wall, outputs
    t0 = time.perf_counter()
    raw = [(key, *run_item(key)) for key in items]
    wall = time.perf_counter() - t0
    return wall, [(k, None if v is None else canonical(v), p) for k, v, p in raw]


def check(workload: str, outputs) -> dict:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = recorded[workload if workload != "rescan" else "scan"]
    if workload == "rescan":
        expected = {**expected, "store": recorded["store"]}
    failed, unrecorded, problems = 0, 0, []
    seen = set()
    for key, text, problem in outputs:
        seen.add(key)
        if problem is None and text is not None:
            want = expected.get(key)
            if want is None:
                unrecorded += 1
            elif want != digest(text):
                problem = "output differs from the recorded digest"
        if problem is not None:
            failed += 1
            problems.append(f"{key}: {problem}")
    if workload in ("scan", "rescan"):
        # a scan that stops early or prints too few lines fails the missing ones
        missing = [key for key in expected if key not in seen]
        failed += len(missing)
        problems.extend(f"{key}: missing" for key in missing)
        attempted = len(expected)
    else:
        attempted = len(outputs)
    return {
        "attempted": attempted,
        "failed": failed,
        "unrecorded": unrecorded,
        "problems": problems[:10],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "build"), default="run")
    parser.add_argument("--store", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import plethlab.cli  # noqa: F401  (set-up includes the package and CLI import)

    items = make_inputs(args.workload, args.seed)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "build":
        run_cli(["--cache", args.store, "scan"])
    elif args.mode == "run":
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        wall, outputs = timed(args.workload, items, args.store)
        result["wall_s"] = wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(check(args.workload, outputs))
        if tracer is not None:
            result["layers"] = tracer.metrics(wall)
            result["notes"] = tracer.notes
            tracer.write_spans(SPANS_DIR / f"{args.workload}-{args.seed}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
