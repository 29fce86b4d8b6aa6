"""Spans and counters around the library's layer functions.

The tracer replaces each named function at every binding site inside the
``adelic.*`` module namespaces, so that a call made through a
``from .rational import ...`` name is recorded as well as one made through
the defining module.  Two methods are wrapped on their classes instead:
``ExactFactor.__mul__`` and ``Registry.verify``.

Each call records one span: name, start, end, parent span and operation id.
Spans stay in memory (compact arrays) until the run ends.  Self time is a
span's duration minus the time covered by its direct children; calls are
strictly nested in one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (metric prefix, module, attribute, argument key for distinct_ratio)
FUNCTIONS = (
    ("rational.is_prime", "rational", "is_prime", True),
    ("rational.valuation", "rational", "valuation", False),
    ("rational.factorize", "rational", "factorize", True),
    ("local.places_for", "local", "places_for", False),
    ("local.local_abs", "local", "local_abs", False),
    ("local.frac_part", "local", "frac_part", False),
    ("local.additive_character", "local", "additive_character", False),
    ("local.denominator_places", "local", "denominator_places", False),
    ("symbols.weil_index", "symbols", "weil_index", False),
    ("symbols.hilbert_symbol", "symbols", "hilbert_symbol", False),
    ("gauss.gauss_factor", "gauss", "gauss_factor", False),
    ("gauss.kernel", "gauss", "kernel", False),
    ("gauss.kernel_places", "gauss", "kernel_places", False),
    ("special.riemann_zeta", "special", "riemann_zeta", False),
    ("special.complex_gamma", "special", "complex_gamma", False),
    ("special.zeta_adelic", "special", "zeta_adelic", False),
    ("special.mellin_vacuum", "special", "mellin_vacuum", False),
    ("dynamics.classify", "dynamics", "classify", False),
)

# (metric prefix, module, class, method)
METHODS = (
    ("symbols.ExactFactor.mul", "symbols", "ExactFactor", "__mul__"),
    ("verifier.verify", "verifier", "Registry", "verify"),
)

SPAN_NAMES = tuple(f[0] for f in FUNCTIONS) + tuple(m[0] for m in METHODS)


class Tracer:
    """In-memory span recorder; install() wraps the library, export() hands the spans out."""

    def __init__(self) -> None:
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.keys: dict[str, set] = {"rational.is_prime": set(), "rational.factorize": set()}
        self.max_bits = 0
        #: (namespace, name, original) of every binding install() replaced
        self.replaced: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn, keyed: bool):
        name_id = self.name_ids[span]
        keys = self.keys.get(span)
        start, end, names, parents, ops, stack = (
            self.start, self.end, self.name, self.parent, self.op, self.stack
        )
        clock = time.perf_counter
        tracer = self
        factorize = span == "rational.factorize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed:
                key = abs(args[0]) if factorize else args[0]
                keys.add(key)
                if factorize and key.bit_length() > tracer.max_bits:
                    tracer.max_bits = key.bit_length()
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target at each binding site in the loaded adelic modules."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "adelic" or n.startswith("adelic."))
        ]
        for span, module, attr, keyed in FUNCTIONS:
            original = getattr(sys.modules[f"adelic.{module}"], attr)
            traced = self._wrap(span, original, keyed)
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is original:
                        self.replaced.append((m, bound, original))
                        setattr(m, bound, traced)
        for span, module, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"adelic.{module}"], cls_name)
            original = vars(cls)[method]
            self.replaced.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original, False))

    def uninstall(self) -> None:
        """Put back every binding install() replaced; recorded spans stay."""
        while self.replaced:
            namespace, name, original = self.replaced.pop()
            setattr(namespace, name, original)

    def export(self) -> dict:
        """Spans as plain lists plus the argument sets, for another process."""
        return {
            "names": list(SPAN_NAMES),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "keys": {k: sorted(v) for k, v in self.keys.items()},
            "max_bits": self.max_bits,
        }


def layer_stats(traces: list[dict]) -> dict[str, dict]:
    """Per-span-name calls, self_ms and distinct_ratio over exported traces."""
    stats = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    keys: dict[str, set] = {}
    max_bits = 0
    for t in traces:
        names, parent, start, end = t["names"], t["parent"], t["start"], t["end"]
        child = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        for i, n in enumerate(t["name"]):
            s = stats[names[n]]
            s["calls"] += 1
            s["self_s"] += end[i] - start[i] - child[i]
        for k, v in t["keys"].items():
            keys.setdefault(k, set()).update(v)
        max_bits = max(max_bits, t["max_bits"])
    for name, s in stats.items():
        s["self_ms"] = s.pop("self_s") * 1e3
        if name in keys:
            s["distinct_ratio"] = len(keys[name]) / s["calls"] if s["calls"] else 0.0
    stats["rational.factorize"]["max_bits"] = max_bits
    return stats


def write_spans(path, traces: list[dict]) -> int:
    """Write every span as one line: op parent name start_ns end_ns.

    Spans are numbered by line from 0; parent is the parent's number, -1 for
    a root.  Times count from the first span of their trace (process).
    """
    count = 0
    with open(path, "w") as out:
        out.write("# op parent name start_ns end_ns\n")
        for t in traces:
            base = min(t["start"], default=0.0)
            names = t["names"]
            for op, parent, n, s, e in zip(t["op"], t["parent"], t["name"], t["start"], t["end"]):
                parent = parent + count if parent >= 0 else -1
                out.write(f"{op} {parent} {names[n]} {round((s - base) * 1e9)} {round((e - base) * 1e9)}\n")
            count += len(t["name"])
    return count
