"""Per-layer tracing for the plethlab benchmark.

A traced workload process installs :class:`Tracer` after importing plethlab
and before its timed section. The tracer replaces a fixed list of functions
with span-recording wrappers, in every ``plethlab`` module namespace that
holds the original object (``stability.plethysm_coefficient`` as well as
``plethysm.plethysm_coefficient``), and reads a few counters that the
package already keeps (``functools.cache`` statistics) or that a thin
wrapper can count.

Each span records its name, start, end and parent span. Spans are kept in
flat arrays in memory and written out when the process ends. A layer's self
time is its spans' total duration minus the duration of their child spans.

Names that are private to the package (``_character``, ``_RowTables.ensure``
and so on) are best effort: when one no longer exists, the metrics that
depend on it are omitted and a note says why, instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections.abc import MutableMapping
from pathlib import Path

# (span name, module, attribute path); "Class.method" patches a method.
SPANS = (
    ("lr.dual_pieri_expansion", "lr", "dual_pieri_expansion"),
    ("lr.lr_coefficient", "lr", "lr_coefficient"),
    ("plethysm.powersum_to_schur", "plethysm", "powersum_to_schur"),
    ("plethysm.powersum_plethysm", "plethysm", "powersum_plethysm"),
    ("plethysm.plethysm_oracle", "plethysm", "plethysm_oracle"),
    ("plethysm.plethysm_coefficient", "plethysm", "plethysm_coefficient"),
    ("plethysm.skew_plethysm_coefficient", "plethysm", "skew_plethysm_coefficient"),
    ("plethysm.coefficient_by_characters", "plethysm", "_coefficient_by_characters"),
    ("row_plethysm.row_coefficient", "row_plethysm", "row_coefficient"),
    ("row_plethysm.ensure", "row_plethysm", "_RowTables.ensure"),
    ("stability.coefficient_sequence", "stability", "coefficient_sequence"),
    ("stability.recurrence_coefficient", "stability", "recurrence_coefficient"),
    ("stability.verify_growth_identity", "stability", "verify_growth_identity"),
    ("cli.store.load", "cli", "_load_cache"),
    ("cli.store.save", "cli", "_save_cache"),
)

# functools.cache objects whose statistics give counters.
CACHES = ("plethysm._character", "row_plethysm._strip_additions", "lr.dual_pieri_expansion")

# Per-layer metrics reported by a traced run: name -> unit. Span metrics are
# "<span>.calls" and "<span>.self_s"; the others are derived below.
METRICS = {
    "partitions.Partition.calls": "count",
    "lr.dual_pieri_expansion.calls": "count",
    "lr.dual_pieri_expansion.self_s": "s",
    "lr.dual_pieri_expansion.hit_ratio": "ratio",
    "lr.lr_coefficient.calls": "count",
    "lr.lr_coefficient.self_s": "s",
    "plethysm.powersum_to_schur.self_s": "s",
    "plethysm.powersum_plethysm.self_s": "s",
    "plethysm.character.misses": "count",
    "plethysm.character.hit_ratio": "ratio",
    "plethysm.plethysm_oracle.self_s": "s",
    "plethysm.plethysm_coefficient.calls": "count",
    "plethysm.plethysm_coefficient.self_s": "s",
    "plethysm.skew_plethysm_coefficient.calls": "count",
    "plethysm.skew_plethysm_coefficient.self_s": "s",
    "plethysm.coefficient_by_characters.calls": "count",
    "row_plethysm.row_coefficient.calls": "count",
    "row_plethysm.row_coefficient.self_s": "s",
    "row_plethysm.ensure.self_s": "s",
    "row_plethysm.strip_additions.built": "count",
    "row_plethysm.envelope_rebuilds": "count",
    "stability.coefficient_sequence.self_s": "s",
    "stability.recurrence_coefficient.self_s": "s",
    "stability.verify_growth_identity.self_s": "s",
    "cli.store.load_s": "s",
    "cli.store.save_s": "s",
    "cli.store.hit_ratio": "ratio",
    "lr.self_s": "s",
    "plethysm.self_s": "s",
    "row_plethysm.self_s": "s",
    "stability.self_s": "s",
    "cli.self_s": "s",
    "trace.outside_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

MODULES = ("lr", "plethysm", "row_plethysm", "stability", "cli")


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


class CountingStore(MutableMapping):
    """Write-through view of a coefficient store that counts lookups."""

    def __init__(self, store, counts: dict):
        self._store = store
        self._counts = counts

    def get(self, key, default=None):
        value = self._store.get(key, default)
        self._counts["hits" if key in self._store else "misses"] += 1
        return value

    def __getitem__(self, key):
        return self._store[key]

    def __setitem__(self, key, value):
        self._store[key] = value

    def __delitem__(self, key):
        del self._store[key]

    def __iter__(self):
        return iter(self._store)

    def __len__(self):
        return len(self._store)


class Tracer:
    def __init__(self):
        self.notes: list[str] = []
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._caches: dict[str, object] = {}
        self.store_counts = {"hits": 0, "misses": 0}
        self.partition_calls = 0
        self.envelope_rebuilds = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for span, module, attr in SPANS:
            self._patch(module, attr, lambda fn, span=span: self._span_wrapper(span, fn))
        self._patch("partitions", "Partition.__new__", self._count_partitions)
        self._patch("row_plethysm", "_RowTables.extend_cap", self._count_rebuilds)
        self._patch("plethysm", "install_coefficient_store", self._counting_install)
        for key in CACHES:
            fn = self._originals.get(key) or self._lookup(*key.split(".", 1))
            if hasattr(fn, "cache_info"):
                self._caches[key] = fn
            else:
                self.notes.append(f"plethlab.{key} has no cache_info; its counters are omitted")

    def _lookup(self, module: str, attr: str):
        obj = sys.modules.get(f"plethlab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        return obj

    def _patch(self, module: str, attr: str, make) -> None:
        original = self._lookup(module, attr)
        if original is None:
            self.notes.append(f"plethlab.{module}.{attr} not found; its metrics are omitted")
            return
        self._originals[f"{module}.{attr}"] = original
        replacement = make(original)
        if "." in attr:
            owner, name = attr.rsplit(".", 1)
            setattr(self._lookup(module, owner), name, replacement)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "plethlab" or name.startswith("plethlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)

    def _span_wrapper(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_partitions(self, original_new):
        tracer = self

        def counted_new(cls, parts=()):
            tracer.partition_calls += 1
            return original_new(cls, parts)

        return counted_new

    def _count_rebuilds(self, extend_cap):
        tracer = self

        def counted(table, shapes):
            tracer.envelope_rebuilds += 1
            return extend_cap(table, shapes)

        return counted

    def _counting_install(self, install):
        counts = self.store_counts

        def counting_install(store):
            return install(None if store is None else CountingStore(store, counts))

        return counting_install

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced section that took ``wall_s``."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        top_ns = 0
        names, parents = self.span_name, self.span_parent
        for i, (start, end) in enumerate(zip(self.span_start, self.span_end)):
            duration = end - start
            nid = names[i]
            calls[nid] += 1
            self_ns[nid] += duration
            parent = parents[i]
            if parent >= 0:
                self_ns[names[parent]] -= duration
            else:
                top_ns += duration
        out: dict[str, float] = {}
        modules = {m: 0.0 for m in MODULES}
        for nid, span in enumerate(self.names):
            out[f"{span}.calls"] = calls[nid]
            out[f"{span}.self_s"] = self_ns[nid] / 1e9
            modules[span.split(".", 1)[0]] += self_ns[nid] / 1e9
        for module, seconds in modules.items():
            out[f"{module}.self_s"] = seconds
        if "cli.store.load.self_s" in out:
            out["cli.store.load_s"] = out["cli.store.load.self_s"]
        if "cli.store.save.self_s" in out:
            out["cli.store.save_s"] = out["cli.store.save.self_s"]
        if "plethysm.install_coefficient_store" in self._originals:
            out["cli.store.hit_ratio"] = _ratio(
                self.store_counts["hits"], self.store_counts["misses"]
            )
        if "partitions.Partition.__new__" in self._originals:
            out["partitions.Partition.calls"] = self.partition_calls
        if "row_plethysm._RowTables.extend_cap" in self._originals:
            out["row_plethysm.envelope_rebuilds"] = self.envelope_rebuilds
        info = self._cache_info("plethysm._character")
        if info is not None:
            out["plethysm.character.misses"] = info.misses
            out["plethysm.character.hit_ratio"] = _ratio(info.hits, info.misses)
        info = self._cache_info("row_plethysm._strip_additions")
        if info is not None:
            out["row_plethysm.strip_additions.built"] = info.misses
        info = self._cache_info("lr.dual_pieri_expansion")
        if info is not None:
            out["lr.dual_pieri_expansion.hit_ratio"] = _ratio(info.hits, info.misses)
        out["trace.outside_s"] = wall_s - top_ns / 1e9
        out["trace.spans"] = len(self.span_start)
        out["trace.wall_s"] = wall_s
        return {name: value for name, value in out.items() if name in METRICS}

    def _cache_info(self, key: str):
        fn = self._caches.get(key)
        return fn.cache_info() if fn is not None else None

    def write_spans(self, stem: Path) -> None:
        """Write the spans as ``stem.json`` (names, layout) and ``stem.bin``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = (self.span_name, self.span_parent, self.span_start, self.span_end)
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for column in columns:
                column.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "layout": "int32 name[n], int32 parent[n], int64 start_ns[n], int64 end_ns[n]",
            "byteorder": sys.byteorder,
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n", encoding="utf-8")
