"""Regenerate the benchmark's input pools and recorded output digests.

    python3 perfbench/record.py

Writes ``perfbench/pools.json`` and ``perfbench/digests.json``. Run it only
when the benchmark's workload definitions change, never to make a changed
result pass: a digest that differs from the recorded one is a failed item.

``pools.json`` lists, per seeded workload and item kind, groups of
candidate items of similar cost, measured with every cache cleared; a seed
draws one item from each group, so any two seeds run samples of about the
same cost. ``digests.json`` holds the SHA-256 of the
canonical output of every pool item, of every line of the default
``plethlab scan`` and of the coefficient store that scan writes.
"""

from __future__ import annotations

import json
import sys
import time

import workload
from plethlab import lr, partitions, plethysm, row_plethysm, stability
from plethlab.partitions import format_partition, partitions_of

GROWTH_J_MAX = 3
# Items per group, and the widest cost spread within a group: an item joins
# a group while its cost is at most (1 + GROUP_TOLERANCE) times the group's
# cheapest plus GROUP_FLOOR_S.
GROUP_SIZE = {"schur": 16, "oracle": 4, "char": 16, "growth": 2, "recurrence": 2, "lr": 2, "skew": 2}
GROUP_TOLERANCE = 0.25
GROUP_FLOOR_S = 0.002
# Oracle pairs slower than this are left out of the pool: the five pairs of
# degree 8 above it take 1.1 to 1.6 s each, and one of them drawn or not
# would swing the whole workload by a fifth from seed to seed.
ORACLE_MAX_S = 1.0


def _key(kind: str, *parts) -> str:
    return "|".join([kind, *(p if isinstance(p, str) else format_partition(p) for p in parts)])


def pools() -> dict[str, dict[str, list[str]]]:
    """Every candidate item, in enumeration order."""
    pairs = [
        (lam, mu)
        for a in range(2, 9)
        for b in range(2, 9)
        for lam in partitions_of(a)
        for mu in partitions_of(b)
    ]
    schur = [_key("schur", lam, mu) for lam, mu in pairs if 10 <= lam.size * mu.size <= 16]
    oracle = [_key("oracle", lam, mu) for lam, mu in pairs if lam.size * mu.size <= 8]
    char = []
    for a, b, step in ((2, 8, 16), (3, 6, 16)):
        for lam in partitions_of(a):
            for mu in partitions_of(b):
                if len(mu) == 2:
                    char.extend(_key("char", nu, lam, mu) for nu in list(partitions_of(a * b))[::step])
    growth = [
        _key("growth", nu, lam, str(l), str(m), str(GROWTH_J_MAX))
        for n in range(1, 4)
        for lam in partitions_of(n)
        for m in (1, 2)
        for nu in partitions_of((m + 1) * n)
        if len(nu) <= n
        for l in range(m + 2)
    ]
    recurrence = [
        _key("recurrence", lam, nu, str(m))
        for m, n_max in ((2, 4), (3, 4), (4, 3))
        for n in range(1, n_max + 1)
        for lam in partitions_of(n)
        for nu in partitions_of(m * n)
        if len(nu) <= n
    ]
    shapes = [nu for n in range(2, 11) for nu in partitions_of(n)]
    return {
        "expand": {"schur": schur, "oracle": oracle, "char": char},
        "identity": {
            "growth": growth,
            "recurrence": recurrence,
            "lr": [_key("lr", nu) for nu in shapes],
            "skew": [_key("skew", nu) for nu in shapes],
        },
    }


def clear_caches() -> None:
    for module in (lr, partitions, plethysm, row_plethysm, stability):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    row_plethysm.reset_tables()


def measure(keys: list[str], digests: dict[str, str]) -> dict[str, float]:
    """Record each item's digest; return each item's cost with cold caches."""
    costs = {}
    for key in keys:
        clear_caches()
        t0 = time.perf_counter()
        value, problem = workload.run_item(key)
        costs[key] = time.perf_counter() - t0
        if problem is not None:
            sys.exit(f"{key}: {problem}")
        digests[key] = workload.digest(workload.canonical(value))
    return costs


def group(costs: dict[str, float], size: int) -> list[list[str]]:
    """Consecutive items in cost order, cut where a group is full or too wide."""
    groups: list[list[str]] = []
    for key in sorted(costs, key=costs.__getitem__):
        current = groups[-1] if groups else None
        if (
            current is None
            or len(current) == size
            or costs[key] > costs[current[0]] * (1 + GROUP_TOLERANCE) + GROUP_FLOOR_S
        ):
            groups.append([key])
        else:
            current.append(key)
    return groups


def main() -> int:
    grouped: dict[str, dict[str, list[list[str]]]] = {}
    digests: dict[str, dict[str, str] | str] = {}
    for name, parts in pools().items():
        digests[name] = {}
        grouped[name] = {}
        for part, keys in parts.items():
            costs = measure(keys, digests[name])
            if part == "oracle":
                costs = {k: c for k, c in costs.items() if c <= ORACLE_MAX_S}
            grouped[name][part] = group(costs, GROUP_SIZE[part])
            print(f"{name}/{part}: {len(keys)} items, {len(grouped[name][part])} groups, "
                  f"{sum(costs.values()):.1f} s", file=sys.stderr)
    for key in workload.FIXED["expand"]:
        if key not in digests["expand"]:
            measure([key], digests["expand"])
    clear_caches()
    store = workload.STATE_DIR / "record-store.tsv"
    store.parent.mkdir(parents=True, exist_ok=True)
    store.unlink(missing_ok=True)
    code, text = workload.run_cli(["--cache", str(store), "scan"])
    if code != 0:
        sys.exit(f"default scan exited with {code}")
    lines = {f"scan|{i}": workload.digest(line) for i, line in enumerate(text.splitlines())}
    digests["scan"] = {**lines, "scan|exit": workload.digest(str(code))}
    digests["store"] = workload.digest(store.read_bytes())
    store.unlink()
    workload.POOLS.write_text(json.dumps(grouped, indent=0) + "\n", encoding="utf-8")
    workload.DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
