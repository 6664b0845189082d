"""Spans recorded around calls into the grafclifford layers, and their arithmetic.

The program is not instrumented.  Instead, a traced invocation rebinds every
module-level function of the eight layer modules, in every module namespace
that binds it (the package ``__init__`` included), to a wrapper that records
one span per call.  Intra-module calls go through the module globals, so they
are spanned too.  Left unwrapped, with their cost counted as the caller's self
time:

* methods of every class (``Form`` methods run about a million times a run);
* ``exterior._norm`` and ``exterior._mask_of`` (1.4 million and half a
  million calls on ``census-sparse``, mostly from ``Form`` construction);
* generator functions, whose body runs while the caller iterates.

A span is ``[name, start, end, parent, error, bookkeeping]``; the spans of
one invocation share its run id.  ``bookkeeping`` is the time the wrapper
spent after the call ended on the counters and the rational-coefficient
scan; it lies inside the parent's interval but is not the parent's work, so
``self_times`` leaves it out of the parent's self time.  They are kept in memory and written out when the invocation
ends (``Tracer.dump``).  The same file carries the operation counters that are
taken at the same call boundaries (``COUNTED`` below).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass

LAYERS = ("cli", "classify", "fierz", "bilinear", "matrixrep", "graf", "exterior", "linalg")
PACKAGE = "grafclifford"
UNWRAPPED = frozenset({"_norm", "_mask_of"})

# Functions whose inclusive time is reported on its own, outermost calls only.
TIMED_FUNCTIONS = {
    "matrixrep.build_rep_s": "matrixrep.build_rep",
    "matrixrep.build_structure_s": "matrixrep.build_structure",
    "bilinear.admissible_pairings_s": "bilinear.admissible_pairings",
}

COUNTERS = (
    "graf.product_calls",
    "graf.blade_pairs",
    "graf.output_terms",
    "graf.rational_calls",
    "fierz.blade_actions",
    "linalg.mat_mul_calls",
    "linalg.mat_mul_madds",
)


def _has_rational(value) -> bool:
    """True if a Form, or a list of (mask, coefficient) pairs, has a non-integer coefficient."""
    if hasattr(value, "mask_items"):
        return any(type(c) is not int for _, c in value.mask_items())
    if isinstance(value, list) and value and isinstance(value[0], tuple) and len(value[0]) == 2:
        return any(type(c) is not int for _, c in value)
    return False


def _graf_product(counters: dict, args: tuple, result) -> None:
    f, g = args[0], args[1]
    counters["graf.product_calls"] += 1
    counters["graf.blade_pairs"] += f.num_terms() * g.num_terms()
    counters["graf.output_terms"] += result.num_terms()


def _bilinear_profile(counters: dict, args: tuple, result) -> None:
    counters["fierz.blade_actions"] += 1 << args[0].signature.n


def _mat_mul(counters: dict, args: tuple, result) -> None:
    a, b = args[0], args[1]
    counters["linalg.mat_mul_calls"] += 1
    counters["linalg.mat_mul_madds"] += len(a) * len(b) * (len(b[0]) if b else 0)


# Operation counters taken at the call boundary; none of them depends on timing.
COUNTED = {
    "graf.graf_product": _graf_product,
    "fierz._bilinear_profile": _bilinear_profile,
    "linalg.mat_mul": _mat_mul,
}


class Tracer:
    """Span recorder for one invocation.  Install once, before the first call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._wrappers: dict = {}

    def _wrap(self, fn, name: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        count = COUNTED.get(name)
        check_rational = name.startswith("graf.")
        bookkeeping = check_rational or count is not None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, 0.0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if bookkeeping:
                if check_rational and any(_has_rational(a) for a in (*args, *kwargs.values())):
                    counters["graf.rational_calls"] += 1
                if count is not None:
                    count(counters, args, result)
                span[5] = clock() - span[2]
            return result

        return spanned

    def install(self) -> int:
        """Rebind the layer functions in every layer namespace; returns the number rebound."""
        layer_modules = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        namespaces = [importlib.import_module(PACKAGE)]
        namespaces += [importlib.import_module(m) for m in layer_modules]
        rebound = 0
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ not in layer_modules:
                    continue
                if obj.__name__ in UNWRAPPED or inspect.isgeneratorfunction(obj):
                    continue
                wrapper = self._wrappers.get(obj)
                if wrapper is None:
                    name = f"{layer_modules[obj.__module__]}.{obj.__name__}"
                    wrapper = self._wrappers[obj] = self._wrap(obj, name)
                setattr(module, attr, wrapper)
                rebound += 1
        return rebound

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counters": self.counters}, handle)


# -- analysis (benchmark side) ---------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    error: bool
    bookkeeping: float
    run_id: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def load_spans(path: str) -> tuple[list[Span], dict]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    run_id = data["run_id"]
    return [Span(*row, run_id) for row in data["spans"]], data["counters"]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover and their bookkeeping."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered - sum(spans[k].bookkeeping for k in kids))
    return out


def _outermost(spans: list[Span], key) -> list[bool]:
    """Per span: no ancestor has the same key (so nested time is counted once)."""
    above: list[frozenset] = []
    out = []
    for span in spans:
        seen = frozenset() if span.parent < 0 else above[span.parent] | {key(spans[span.parent])}
        above.append(seen)
        out.append(key(span) not in seen)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """``<layer>.calls``, ``.total_s``, ``.self_s`` and ``.errors`` for every layer.

    ``total_s`` sums the outermost spans of the layer, so a layer calling
    itself is not counted twice; ``self_s`` sums self times.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        out.update({f"{layer}.calls": 0, f"{layer}.total_s": 0.0, f"{layer}.self_s": 0.0, f"{layer}.errors": 0})
    selfs = self_times(spans)
    outer = _outermost(spans, lambda s: s.layer)
    for span, own, top in zip(spans, selfs, outer):
        layer = span.layer
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += own
        out[f"{layer}.errors"] += span.error
        if top:
            out[f"{layer}.total_s"] += span.duration
    outer_by_name = _outermost(spans, lambda s: s.name)
    for metric, name in TIMED_FUNCTIONS.items():
        out[metric] = sum(s.duration for s, top in zip(spans, outer_by_name) if top and s.name == name)
    return out
