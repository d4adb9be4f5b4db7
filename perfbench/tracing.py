"""Spans around calls into finop's public functions, recorded from outside.

Recorder.install() replaces each function in TARGETS, wherever a loaded finop
module or the owning class holds it, by a wrapper that records a span; so a
call that isomorphism, dsl or cli makes through its own imported name is
caught as well as the benchmark's own calls.  uninstall() puts the
originals back.  A target that no longer exists is skipped and reads as zero
calls.

Only functions called O(1) times per operation are wrapped; per-cell helpers
such as expand_digits and cell_map are not, so that the wrapper's cost stays
small against the work it times.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


def _shift_terms(op) -> int:
    return len(getattr(op, "terms", ()))


def _dense_bytes(rep) -> int:
    return int(getattr(getattr(rep, "entries", None), "nbytes", 0))


def _cells(perm) -> int:
    return int(getattr(perm, "size", 0))


def _ode_shift_terms(result) -> int:
    return _shift_terms(getattr(result, "ode", None))


# (span name, module, attribute in it, count kept on the span, how to count the result)
TARGETS = (
    ("dsl.parse", "finop.dsl", "parse_fop", None, None),
    ("dsl.lower", "finop.dsl", "lower_fop", None, None),
    ("operators.compose", "finop.operators", "FiniteOperator.compose",
     "operators.shift_terms", _shift_terms),
    ("operators.adjoint", "finop.operators", "FiniteOperator.adjoint",
     "operators.shift_terms", _shift_terms),
    ("operators.apply", "finop.operators", "FiniteOperator.apply", None, None),
    ("refinement.embed", "finop.refinement", "embed", None, None),
    ("matrep.to_matrix", "finop.matrep", "to_matrix", "matrep.dense_bytes", _dense_bytes),
    ("matrep.from_matrix", "finop.matrep", "from_matrix", None, None),
    ("matrep.spectrum", "finop.matrep", "spectrum", None, None),
    ("matrep.assignment", "finop.matrep", "Spectrum.max_deviation", None, None),
    ("matrep.norm", "finop.matrep", "RepMatrix.norm", None, None),
    ("matrep.expm", "finop.matrep", "matrix_exp", "matrep.dense_bytes", _dense_bytes),
    ("digitmap.build_permutation", "finop.digitmap", "build_permutation",
     "digitmap.cells", _cells),
    ("digitmap.perm_matrix", "finop.digitmap", "CellPermutation.matrix", None, None),
    ("digitmap.apply_unitary", "finop.digitmap", "apply_unitary", None, None),
    ("digitmap.apply_unitary", "finop.digitmap", "apply_unitary_inverse", None, None),
    ("isomorphism.pde_to_ode_self", "finop.isomorphism", "pde_to_ode",
     "isomorphism.ode_shift_terms", _ode_shift_terms),
    ("isomorphism.evolve_compare_self", "finop.isomorphism", "evolve_compare", None, None),
    ("uhf.classify", "finop.uhf", "classify", None, None),
    ("cli.main", "finop.cli", "main", None, None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float
    ok: bool
    count: int


class Recorder:
    """Collects spans while installed and enabled; a no-op otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.enabled = False
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            ok, out = False, None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter()
                self._stack.pop()
                n = count(out) if ok and count else 0
                self.spans.append(Span(sid, parent, self.op, name, start, end, ok, n))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "finop" or n.startswith("finop."))]
        for name, module, path, _, count in TARGETS:
            *outer, attr = path.split(".")
            owner = sys.modules.get(module)
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(name, fn, count)
            for holder in ([owner] if outer else modules):
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, wrapped)
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Run finop calls that are not part of an operation (inputs, checks) untraced."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(span._asdict()) + "\n")


def layer_metrics(spans, traced_wall: float) -> dict:
    """Per-layer metrics: self time and its share of traced_wall per span name,
    summed counts, and calls and failures per layer."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    counts = defaultdict(int)
    calls = dict.fromkeys(LAYERS, 0)
    failed = dict.fromkeys(LAYERS, 0)
    for s in spans:
        self_s[s.name] += (s.end - s.start) - covered[s.id]
        layer = s.name.split(".")[0]
        calls[layer] += 1
        failed[layer] += not s.ok
        if s.count:
            counts[_count_metric(s.name)] += s.count
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = (self_s[name], "s")
        out[f"{name}_share"] = (self_s[name] / traced_wall if traced_wall else 0.0, "fraction")
    out["operators.shift_terms"] = (counts["operators.shift_terms"], "count")
    out["matrep.dense_bytes"] = (counts["matrep.dense_bytes"], "bytes_computed")
    build_s = self_s["digitmap.build_permutation"]
    out["digitmap.cells_per_s"] = (counts["digitmap.cells"] / build_s if build_s else 0.0, "1/s")
    out["isomorphism.ode_shift_terms"] = (counts["isomorphism.ode_shift_terms"], "count")
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.failed"] = (failed[layer], "count")
    return out


def _count_metric(span_name: str) -> str:
    return next(t[3] for t in TARGETS if t[0] == span_name)
