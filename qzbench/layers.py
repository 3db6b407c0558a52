"""Per-layer spans and counters for a traced benchmark run.

The library is never edited: :meth:`Tracer.install` rebinds the public
functions where ``qzeta.verify``, ``qzeta.evaluators`` and ``qzeta.rules``
look them up, and the ``QContext`` methods on the class, and
:meth:`Tracer.uninstall` puts the originals back.

Functions get spans: calls, self time (span time minus the time of the spans
nested inside it) and a per-layer work count.  ``QContext`` methods are
called up to millions of times per case, so they only get counters: calls,
and the distinct argument tuples seen per context, from which
``hit_ratio = 1 - distinct / calls`` is computed here, outside the program.
"""

from __future__ import annotations

import statistics
import time
import weakref
from collections import defaultdict
from fractions import Fraction

# (module, function, what its work count measures, how to read that count
# from the return value).  Exact evaluators also feed result_bits_max.
SPANS = (
    ("verify", "verify_mhs", None, None),
    ("verify", "verify_qmzsv", None, None),
    ("verify", "verify_classical", None, None),
    ("rules", "compose", None, None),
    ("rules", "classical_expand", "terms", len),
    ("expansion", "expand", "triples", len),
    ("evaluators", "mollified_mhs_many", None, None),
    ("evaluators", "mhs_many", None, None),
    ("evaluators", "q_zeta", "terms", lambda out: out.terms),
    ("evaluators", "frakz", "terms", lambda out: out.terms),
    ("evaluators", "classical_zeta", "terms", lambda out: out.terms),
)
EXACT = {"mollified_mhs_many", "mhs_many", "q_zeta", "frakz"}
NAMESPACES = ("verify", "evaluators", "rules", "expansion")
# QContext methods counted, and whether their arguments are a cache key.
COUNTERS = (
    ("binom_ratio", True),
    ("mollified_term", True),
    ("harmonic_term", True),
    ("gauss_binomial", False),
)


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, list):
        return max((_bits(v) for v in value), default=0)
    return _bits(value.value)  # SeriesValue


class Tracer:
    def __init__(self):
        self._stack = [[0.0]]  # per open span: time covered by its child spans
        self.spans: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0})
        self.bits_max = 0
        self.calls: dict = defaultdict(int)
        self._keys: dict = defaultdict(set)
        self._serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._restore: list = []

    def span(self, name: str, fn, work=None, exact: bool = False):
        stats = self.spans[name]
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                stats["calls"] += 1
                stats["self_s"] += dt - children[0]
            if work is not None:
                stats["work"] += work(out)
            if exact:
                self.bits_max = max(self.bits_max, _bits(out))
            return out

        return traced

    def counter(self, name: str, fn, keyed: bool):
        calls = self.calls
        keys = self._keys
        serial = self._serial

        def counted(ctx, *args):
            calls[name] += 1
            if keyed:
                keys[name, serial[ctx]].add(args)
            return fn(ctx, *args)

        return counted

    def install(self, qzeta) -> None:
        modules = {name: getattr(qzeta, name) for name in NAMESPACES}
        for mod, fname, work_name, work in SPANS:
            original = getattr(modules[mod], fname, None)
            if original is None:
                continue
            wrapper = self.span(f"{mod}.{fname}", original, work, fname in EXACT)
            for ns in modules.values():
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._rebind(ns, attr, wrapper)

        ctx_cls = qzeta.qarith.QContext
        init = ctx_cls.__init__
        serial = self._serial

        def counted_init(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            serial[ctx] = self.calls["contexts"]
            self.calls["contexts"] += 1

        self._rebind(ctx_cls, "__init__", counted_init)
        for name, keyed in COUNTERS:
            original = vars(ctx_cls).get(name)
            if original is not None:
                self._rebind(ctx_cls, name, self.counter(name, original, keyed))

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def span_count(self) -> int:
        return sum(s["calls"] for s in self.spans.values())

    def counter_count(self) -> int:
        return sum(self.calls[name] for name, _ in COUNTERS)

    def metrics(self, wall_s: float, overhead_s: float) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        out = {}

        def layer(name, work_name=None):
            s = self.spans[name]
            out[f"{name}.calls"] = (s["calls"], "count")
            out[f"{name}.ms"] = (s["self_s"] * 1000.0, "ms")
            if work_name:
                out[f"{name}.{work_name}"] = (s["work"], "count")

        for mod, fname, work_name, _ in SPANS:
            if mod != "verify":
                layer(f"{mod}.{fname}", work_name)
        out["evaluators.result_bits_max"] = (self.bits_max, "bits")
        out["qarith.contexts"] = (self.calls["contexts"], "count")
        for name, keyed in COUNTERS:
            calls = self.calls[name]
            out[f"qarith.{name}.calls"] = (calls, "count")
            if keyed:
                distinct = sum(len(v) for (n, _), v in self._keys.items() if n == name)
                out[f"qarith.{name}.hit_ratio"] = (1 - distinct / calls if calls else 0.0, "ratio")
        verify_s = sum(self.spans[f"verify.{f}"]["self_s"] for m, f, _, _ in SPANS if m == "verify")
        out["verify.self_ms"] = (verify_s * 1000.0, "ms")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out


class _Context:
    """Stand-in for a QContext when timing the counter wrapper."""


def calibrate(sample_args: tuple, calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds one span and one keyed counter add per call, measured here.

    The traced run's overhead is estimated as spans times the first plus
    counted calls times the second.
    """

    def bare(*args):
        return None

    def per_call(fn, *args) -> float:
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples) / calls

    tracer = Tracer()
    ctx = _Context()
    tracer._serial[ctx] = 0
    span_s = per_call(tracer.span("calibrate", bare)) - per_call(bare)
    counter_s = per_call(tracer.counter("calibrate", bare, True), ctx, *sample_args) - per_call(
        bare, ctx, *sample_args
    )
    return max(span_s, 0.0), max(counter_s, 0.0)
