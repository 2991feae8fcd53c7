"""Per-layer tracing of etalab from outside the package.

`install()` replaces selected etalab functions and methods with thin
wrappers.  A span wrapper records (name, start, end, parent) for every call;
a counter wrapper only counts calls.  Module functions are rebound in every
`etalab.*` namespace that imported them, so calls made from inside the
package are seen too; methods are rebound on their classes.  Spans stay in
in-memory arrays until `write_tsv()` is called at the end of a run.

A hook whose target no longer exists is skipped and listed in
`Recorder.missing`; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref
from array import array
from collections import defaultdict

_clock = time.perf_counter

# (module, function, span name)
FUNCTION_SPANS = [
    ("etalab.catalog", "load_catalog_group", "catalog.load"),
    ("etalab.table", "class_matrix", "table.class_matrix"),
    ("etalab.charops", "decompose", "charops.decompose"),
    ("etalab.charops", "restrict", "charops.restrict"),
    ("etalab.charops", "induce", "charops.induce"),
    ("etalab.charops", "inner_product", "charops.inner_product"),
    ("etalab.charops", "irr_mod", "charops.irr_mod"),
    ("etalab.clifford", "stabilizer", "clifford.stabilizer"),
    ("etalab.clifford", "build_chain", "clifford.build_chain"),
    ("etalab.clifford", "classify_chain", "clifford.classify_chain"),
    ("etalab.constructions", "wreath_cp", "constructions.wreath"),
    ("etalab.constructions", "prop5_witness", "constructions.witness"),
    ("etalab.verify", "verify_theorem_a", "verify.sweep"),
    ("etalab.verify", "verify_theorem_b", "verify.sweep"),
    ("etalab.verify", "verify_corollary_a", "verify.sweep"),
    ("etalab.verify", "verify_ledger", "verify.sweep"),
    ("etalab.verify", "verify_prop5", "verify.sweep"),
]

# (module, class, method, span name)
METHOD_SPANS = [
    ("etalab.perm", "PermGroup", "conjugacy_classes", "perm.classes"),
    ("etalab.perm", "PermGroup", "chief_series", "perm.chief_series"),
    ("etalab.chars", "Character", "__mul__", "chars.arith"),
    ("etalab.chars", "Character", "conjugate", "chars.arith"),
    ("etalab.table", "CharTable", "multiplicities", "table.multiplicities"),
    ("etalab.table", "CharTable", "verify_orthogonality", "table.orthogonality"),
]

# (module, class, method, counter name); the last two are the exact
# big-integer fallbacks, which have no public entry point
METHOD_COUNTERS = [
    ("etalab.perm", "Permutation", "__mul__", "perm.products"),
    ("etalab.cyclotomic", "CycValue", "rebase", "cyclotomic.rebase_calls"),
    ("etalab.table", "CharTable", "_multiplicities_exact", "table.exact_fallbacks"),
    ("etalab.table", "CharTable", "_verify_orthogonality_exact", "table.exact_fallbacks"),
]

# name, unit; the order is the order of BENCHMARK.json's per_layer list
LAYER_METRICS = [
    ("perm.closure_s", "s"),
    ("perm.classes_s", "s"),
    ("perm.chief_series_s", "s"),
    ("perm.products", "count"),
    ("cyclotomic.rebase_calls", "count"),
    ("chars.arith_s", "s"),
    ("table.requests", "count"),
    ("table.computed", "count"),
    ("table.memo_hit_ratio", "ratio"),
    ("table.class_matrices_s", "s"),
    ("table.eigensplit_lift_s", "s"),
    ("table.multiplicities_s", "s"),
    ("table.multiplicities_calls", "count"),
    ("table.exact_fallbacks", "count"),
    ("table.orthogonality_s", "s"),
    ("table.cache_bytes", "bytes"),
    ("charops.decompose_calls", "count"),
    ("charops.decompose_hit_ratio", "ratio"),
    ("charops.restrict_s", "s"),
    ("charops.restrict_calls", "count"),
    ("charops.induce_s", "s"),
    ("charops.inner_product_s", "s"),
    ("charops.irr_mod_s", "s"),
    ("clifford.stabilizer_s", "s"),
    ("clifford.stabilizer_calls", "count"),
    ("clifford.build_chain_s", "s"),
    ("clifford.classify_chain_s", "s"),
    ("constructions.wreath_s", "s"),
    ("constructions.witness_s", "s"),
    ("verify.self_s", "s"),
    ("catalog.load_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
]


class Recorder:
    """Spans in parallel arrays plus named call counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, list[int]] = {}
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, when=None, rename=None):
        """Wrap fn in a span.  `when(args, kwargs)` false skips recording;
        `rename(result, name_id)` gives the span's final name id."""
        nid = self.name_id(name)
        kind, start, end, parent, stack = self.kind, self.start, self.end, self.parent, self._stack

        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            idx = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _clock()
                stack.pop()
            if rename is not None:
                kind[idx] = rename(result, nid)
            return result

        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.kind[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            incl[name] += dur
            own[name] += dur - covered[i]
        return calls, incl, own

    def parents_of(self, child: str, parent: str) -> int:
        """Number of distinct `parent` spans with a direct `child` span."""
        cid, pid = self._ids.get(child), self._ids.get(parent)
        if cid is None or pid is None:
            return 0
        return len(
            {
                self.parent[i]
                for i in range(len(self.kind))
                if self.kind[i] == cid and self.parent[i] >= 0 and self.kind[self.parent[i]] == pid
            }
        )

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.kind[i]]}\t{self.start[i] - t0:.9f}"
                    f"\t{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )


def _rebind(orig, wrapped) -> None:
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "etalab" or modname.startswith("etalab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)


def _method(modname, clsname, meth):
    cls = getattr(importlib.import_module(modname), clsname, None)
    return cls, (None if cls is None else cls.__dict__.get(meth))


def install(rec: Recorder) -> None:
    """Wrap every hook; call once, after `import etalab` and before any work."""
    import etalab  # noqa: F401  (loads every submodule the hooks name)

    for modname, fname, span in FUNCTION_SPANS:
        orig = getattr(importlib.import_module(modname), fname, None)
        if orig is None:
            rec.missing.append(f"{modname}.{fname}")
            continue
        _rebind(orig, rec.span(span, orig))

    for modname, clsname, meth, span in METHOD_SPANS:
        cls, orig = _method(modname, clsname, meth)
        if orig is None:
            rec.missing.append(f"{modname}.{clsname}.{meth}")
            continue
        setattr(cls, meth, rec.span(span, orig))

    for modname, clsname, meth, name in METHOD_COUNTERS:
        cls, orig = _method(modname, clsname, meth)
        if orig is None:
            rec.missing.append(f"{modname}.{clsname}.{meth}")
            continue
        setattr(cls, meth, rec.counter(name, orig))

    # closure: a PermGroup built from generators rather than from a known
    # element set
    cls, orig = _method("etalab.perm", "PermGroup", "__init__")
    cls.__init__ = rec.span(
        "perm.closure", orig, when=lambda args, kwargs: kwargs.get("_elements") is None
    )

    # a request that returns a table object never seen before computed it
    seen = weakref.WeakSet()
    computed = rec.name_id("table.compute")

    def classify(table, nid):
        if table in seen:
            return nid
        seen.add(table)
        return computed

    orig = getattr(importlib.import_module("etalab.table"), "character_table")
    _rebind(orig, rec.span("table.request", orig, rename=classify))


def layer_metrics(rec: Recorder, wall_s: float, cache_bytes: int) -> dict:
    """The per-layer metrics of one traced run, keyed as in LAYER_METRICS."""
    calls, incl, own = rec.totals()
    requests = calls["table.request"] + calls["table.compute"]
    computed = calls["table.compute"]
    decomposed = calls["charops.decompose"]
    decompose_misses = rec.parents_of("table.multiplicities", "charops.decompose")
    values = {
        "perm.closure_s": own["perm.closure"],
        "perm.classes_s": own["perm.classes"],
        "perm.chief_series_s": own["perm.chief_series"],
        "perm.products": rec.count("perm.products"),
        "cyclotomic.rebase_calls": rec.count("cyclotomic.rebase_calls"),
        "chars.arith_s": own["chars.arith"],
        "table.requests": requests,
        "table.computed": computed,
        "table.memo_hit_ratio": (requests - computed) / requests if requests else 0.0,
        "table.class_matrices_s": own["table.class_matrix"],
        "table.eigensplit_lift_s": own["table.compute"],
        "table.multiplicities_s": own["table.multiplicities"],
        "table.multiplicities_calls": calls["table.multiplicities"],
        "table.exact_fallbacks": rec.count("table.exact_fallbacks"),
        "table.orthogonality_s": own["table.orthogonality"],
        "table.cache_bytes": cache_bytes,
        "charops.decompose_calls": decomposed,
        "charops.decompose_hit_ratio": (
            (decomposed - decompose_misses) / decomposed if decomposed else 0.0
        ),
        "charops.restrict_s": own["charops.restrict"],
        "charops.restrict_calls": calls["charops.restrict"],
        "charops.induce_s": own["charops.induce"],
        "charops.inner_product_s": own["charops.inner_product"],
        "charops.irr_mod_s": own["charops.irr_mod"],
        "clifford.stabilizer_s": own["clifford.stabilizer"],
        "clifford.stabilizer_calls": calls["clifford.stabilizer"],
        "clifford.build_chain_s": own["clifford.build_chain"],
        "clifford.classify_chain_s": own["clifford.classify_chain"],
        "constructions.wreath_s": own["constructions.wreath"],
        "constructions.witness_s": own["constructions.witness"],
        "verify.self_s": own["verify.sweep"],
        "catalog.load_s": incl["catalog.load"],
        "trace.wall_s": wall_s,
        "trace.spans": len(rec.start),
    }
    return {name: values[name] for name, _ in LAYER_METRICS}
