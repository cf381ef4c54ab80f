"""Benchmark runner for plethlab.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One runner process starts one workload process (``workload.py``) at a time,
each a fresh interpreter, and keeps starting them until ``--seconds`` have
passed (at least one). Before that it starts ``SETUP_PROBES`` processes that
only import plethlab and make their inputs, so that the set-up time has a
median over many samples. For ``rescan`` it first fills a coefficient store
once with a cached scan, checks it against its recorded digest, and writes
a fresh copy of it before every process, because the command line rewrites
the store when it exits.

With ``--trace 0`` the result holds the end-to-end metrics: the medians of
``wall_s`` (the timed section), ``setup_s`` (process launch through import
and input generation) and ``peak_rss_mb`` over the processes. With
``--trace 1`` it alternates untraced and traced processes and holds the
per-layer metrics (see ``layers.py``), medians over the traced processes,
and the tracing overhead: the median traced ``wall_s`` minus the median
untraced one. The last line of standard output is one JSON object; the lines
before it are a readable report. Each run appends a record (source digest,
Python version, core count, load average before each process) to
``.perfbench/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "plethlab"
STATE_DIR = ROOT / ".perfbench"
STORE = STATE_DIR / "store.tsv"

WORKLOADS = ("scan", "expand", "identity", "rescan")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 12
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def source_record() -> dict:
    """Commit (when the checkout is a git repository) and source digest."""
    record = {"commit": None}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        record["commit"] = ref
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    record["source_sha256"] = sha.hexdigest()
    return record


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def child(workload: str, seed: int, mode: str, *, trace: bool = False, loads: list | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--store", str(STORE)]
    if trace:
        cmd.append("--trace")
    if loads is not None:
        loads.append(os.getloadavg()[0])
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{workload} {mode} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - launched
    return result


def build_store() -> bool:
    """Fill the store with a cached scan; True when it matches its digest."""
    STATE_DIR.mkdir(exist_ok=True)
    STORE.unlink(missing_ok=True)
    child("rescan", 0, "build")
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))["store"]
    return hashlib.sha256(STORE.read_bytes()).hexdigest() == recorded


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run of one workload."""
    loads: list[float] = []
    attempted = failed = unrecorded = 0
    problems: list[str] = []
    store_bytes = None
    if workload == "rescan":
        attempted += 1
        if not build_store():
            failed += 1
            problems.append("store: built store differs from the recorded digest")
        store_bytes = STORE.read_bytes()
    setup = [child(workload, seed, "setup", loads=loads)["setup_s"] for _ in range(SETUP_PROBES)]

    def one(traced: bool) -> dict | None:
        nonlocal attempted, failed, unrecorded
        if store_bytes is not None:
            STORE.write_bytes(store_bytes)
        try:
            result = child(workload, seed, "run", trace=traced, loads=loads)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            attempted += 1
            failed += 1
            problems.append(str(exc))
            return None
        attempted += result["attempted"]
        failed += result["failed"]
        unrecorded += result["unrecorded"]
        problems.extend(result["problems"])
        return result

    # a traced run alternates untraced and traced processes, so that the
    # tracing overhead compares processes measured side by side
    done: dict[bool, list[dict]] = {False: [], True: []}
    deadline = time.monotonic() + seconds
    while True:
        for traced in (False, True) if trace else (False,):
            result = one(traced)
            if result is not None:
                done[traced].append(result)
        if time.monotonic() >= deadline:
            break
    runs = done[trace]
    untraced_wall = statistics.median(r["wall_s"] for r in done[False]) if done[False] else None

    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "runs": len(runs),
        "setup_probes": len(setup),
        "attempted": attempted,
        "failed": failed,
        "unrecorded": unrecorded,
        "problems": problems[:10],
        "samples": {},
        "notes": sorted({n for r in runs for n in r.get("notes", ())}),
    }
    metrics: dict[str, dict] = {}
    if runs and not trace:
        samples = {
            "wall_s": [r["wall_s"] for r in runs],
            "setup_s": setup + [r["setup_s"] for r in runs],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        summary["samples"] = samples
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    elif runs:
        from layers import METRICS

        traced_wall = statistics.median(r["wall_s"] for r in runs)
        for name, unit in METRICS.items():
            values = [r["layers"][name] for r in runs if name in r["layers"]]
            if name == "trace.overhead_s" and untraced_wall is not None:
                values = [traced_wall - untraced_wall]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        summary["untraced_wall_s"] = untraced_wall
        summary["untraced_runs"] = len(done[False])
    summary["metrics"] = metrics
    summary["record"] = {
        **source_record(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": loads,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seconds": seconds,
    }
    return summary


def report(summary: dict) -> list[str]:
    lines = [
        f"{summary['workload']} (seed {summary['seed']}, "
        f"{'traced' if summary['trace'] else 'untraced'}): {summary['runs']} runs, "
        f"{summary['setup_probes']} set-up probes"
    ]
    for name, sample in summary["samples"].items():
        q1, q2, q3 = quartiles(sample)
        unit = END_TO_END[name]
        lines.append(f"  {name:<12} median {q2:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(sample)}")
    if not summary["trace"]:
        frac = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
        lines.append(f"  {'fail_frac':<12} {frac:.4f} ratio  ({summary['failed']} of {summary['attempted']} items)")
    else:
        for name, metric in summary["metrics"].items():
            lines.append(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")
        if summary["untraced_wall_s"] is not None:
            lines.append(f"  untraced wall_s median {summary['untraced_wall_s']:.4f} s over "
                         f"{summary['untraced_runs']} runs (tracing overhead baseline)")
    if summary["unrecorded"]:
        lines.append(f"  {summary['unrecorded']} items had no recorded digest; only their cross-checks ran")
    lines.extend(f"  note: {n}" for n in summary["notes"])
    lines.extend(f"  FAILED {p}" for p in summary["problems"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="plethlab benchmark runner")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no plethlab sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for name in names:
            summaries[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        # set-up itself failed: there is no program to measure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    STATE_DIR.mkdir(exist_ok=True)
    with open(STATE_DIR / "runs.jsonl", "a", encoding="utf-8") as fh:
        for summary in summaries.values():
            fh.write(json.dumps(summary, sort_keys=True) + "\n")
    for summary in summaries.values():
        print("\n".join(report(summary)))
    results = {
        name: {
            "correct": s["failed"] == 0 and len(s["metrics"]) > 0,
            "attempted": s["attempted"],
            "failed": s["failed"],
            "metrics": s["metrics"],
        }
        for name, s in summaries.items()
    }
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
