"""Spans around locsol's public functions, recorded from outside the package.

install() wraps every public function of the measured modules in every
locsol namespace that holds it, whatever name it was imported under, so
that calls made inside the package are seen too (survey and density call
solubility.decide_qp through their own module globals).  Each call
records a span (name, start, end, parent, operation id) in flat arrays;
counts come from return values and public lru_cache statistics only.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from math import comb
from time import perf_counter

from checks import power_class_count

LAYERS = ("primes", "padic", "solubility", "density", "product", "survey",
          "cache")

SPAN_FIELDS = ("name", "start", "end", "parent", "op")


def _on_decide_qp(counts, args, kwargs, result):
    counts[f"solubility.route.{result.route}.calls"] += 1
    if result.route == "dp":
        bits = result.place ** result.certificate_level
        counts["solubility.walk_bits.sum"] += bits
        counts["solubility.walk_bits.max"] = max(
            counts["solubility.walk_bits.max"], bits)
    if result.witness is not None:
        counts["solubility.witnesses"] += 1


def _on_build_unit_class_table(counts, args, kwargs, result, missed):
    if missed:
        counts["padic.table_residues"] += result.modulus


def _on_rho_p_exact(counts, args, kwargs, result):
    n, k, p = result.n, result.k, result.place
    counts["density.cells"] += comb(k * power_class_count(p, k) + n, n + 1)


def _on_rho_loc_interval(counts, args, kwargs, result):
    counts["product.result_bits"] += (result.lo.numerator.bit_length()
                                      + result.lo.denominator.bit_length())


def _on_load_verdicts(counts, args, kwargs, result):
    counts["cache.lines"] += len(result)


HOOKS = {
    "solubility.decide_qp": _on_decide_qp,
    "density.rho_p_exact": _on_rho_p_exact,
    "product.rho_loc_interval": _on_rho_loc_interval,
    "cache.load_verdicts": _on_load_verdicts,
}
MISS_HOOKS = {
    "padic.build_unit_class_table": _on_build_unit_class_table,
}


class Tracer:
    """In-memory span store; one per worker process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.current_op = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.missed: list[str] = []

    def install(self) -> None:
        """Wrap the public functions of LAYERS in every locsol namespace."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules.get(f"locsol.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or inspect.isclass(obj) \
                        or not callable(obj) \
                        or getattr(obj, "__module__", None) != module.__name__:
                    continue
                originals[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {key: self._wrap(name, fn)
                    for key, (fn, name) in originals.items()}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "locsol" or name.startswith("locsol.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and obj is originals[id(obj)][0]:
                    setattr(module, attr, wrappers[id(obj)])
        self.missed = [f"{module.__name__}.{attr}"
                       for module in namespaces
                       for attr, obj in vars(module).items()
                       if id(obj) in originals
                       and obj is originals[id(obj)][0]]

    def _wrap(self, qualname: str, fn):
        nid = self._ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        name, start, end = self.name, self.start, self.end
        parent, op, stack = self.parent, self.op, self._stack
        counts = self.counts
        hook = HOOKS.get(qualname)
        miss_hook = MISS_HOOKS.get(qualname)
        cache_info = getattr(fn, "cache_info", None)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            end.append(0.0)
            misses = cache_info().misses if cache_info else 0
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if cache_info:
                missed = cache_info().misses > misses
                counts[qualname + ".misses"] += missed
                if miss_hook:
                    miss_hook(counts, args, kwargs, result, missed)
            if hook:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def write(self, path) -> None:
        """Header line (JSON), then the five span arrays back to back."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({
                "names": self.names, "count": len(self.name),
                "fields": [[f, getattr(self, f).typecode]
                           for f in SPAN_FIELDS]}).encode() + b"\n")
            for field in SPAN_FIELDS:
                getattr(self, field).tofile(fh)


def self_times(start, end, parent) -> array:
    """Each span's duration minus the part its child spans cover.

    Spans come from one thread, so siblings never overlap and the
    covered part is the sum of the children's durations, each clipped
    to its parent's interval.
    """
    covered = array("d", bytes(8 * len(start)))
    for j, par in enumerate(parent):
        if par >= 0:
            overlap = min(end[j], end[par]) - max(start[j], start[par])
            if overlap > 0:
                covered[par] += overlap
    return array("d", (e - s - c for s, e, c in zip(start, end, covered)))


# --- per-layer metrics -------------------------------------------------------

CALLS = ("padic.normalize", "padic.class_label", "primes.factor",
         "primes.is_prime", "solubility.decide_qp", "solubility.decide_real",
         "density.rho_p_exact", "density.rho_p_closed_form",
         "density.generic_sum", "survey.is_everywhere_soluble")
SELF = ("padic.normalize", "padic.class_label",
        "padic.build_unit_class_table", "primes.factor", "primes.is_prime",
        "primes.primes_below", "solubility.decide_qp",
        "solubility.relevant_primes", "density.rho_p_exact",
        "density.rho_p_closed_form", "density.generic_sum",
        "product.rho_loc_interval", "product.tail_hypothesis",
        "survey.survey_box", "survey.is_everywhere_soluble",
        "cache.load_verdicts", "cache.save_verdicts")
COUNTS = {"padic.build_unit_class_table.misses": "count",
          "padic.table_residues": "count", "primes.factor.misses": "count",
          "solubility.route.dp.calls": "count",
          "solubility.route.scale.calls": "count",
          "solubility.route.trivial.calls": "count",
          "solubility.route.cache.calls": "count",
          "solubility.walk_bits.max": "bits",
          "solubility.walk_bits.sum": "bits",
          "solubility.witnesses": "count", "density.cells": "count",
          "product.primes_multiplied": "count",
          "product.result_bits": "bits", "cache.lines": "count"}
DERIVED = {"solubility.verdict_cache.hit_ratio": "ratio",
           "density.cells_per_s": "1/s"}

LAYER_UNITS = {**{f"{f}.calls": "count" for f in CALLS},
               **{f"{f}.self_s": "s" for f in SELF}, **COUNTS, **DERIVED}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], Counter]:
    """Per-layer figures of one traced repetition, and calls per function.

    Every name in LAYER_UNITS is present; a function never called
    reads 0.
    """
    names = tracer.names
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    enum_s = 0.0
    multiplied = 0
    rho_loc = names.index("product.rho_loc_interval")
    per_prime = {names.index(f) for f in ("density.rho_p_exact",
                                          "density.rho_p_closed_form",
                                          "density.generic_sum")}
    exact = names.index("density.rho_p_exact")
    for i, nid in enumerate(tracer.name):
        qual = names[nid]
        calls[qual] += 1
        self_s[qual] += selfs[i]
        par = tracer.parent[i]
        if nid in per_prime and par >= 0 and tracer.name[par] == rho_loc:
            multiplied += 1
        if nid == exact:
            enum_s += tracer.end[i] - tracer.start[i]
    counts = dict(tracer.counts, **{"product.primes_multiplied": multiplied})
    out = {f"{f}.calls": float(calls[f]) for f in CALLS}
    out.update({f"{f}.self_s": float(self_s[f]) for f in SELF})
    out.update({c: float(counts.get(c, 0)) for c in COUNTS})
    consulted = sum(counts.get(f"solubility.route.{r}.calls", 0)
                    for r in ("cache", "dp", "scale"))
    out["solubility.verdict_cache.hit_ratio"] = (
        counts.get("solubility.route.cache.calls", 0) / consulted
        if consulted else 0.0)
    out["density.cells_per_s"] = (counts.get("density.cells", 0) / enum_s
                                  if enum_s else 0.0)
    return out, calls
