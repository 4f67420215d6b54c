"""Per-layer tracing from outside the program.

Each layer function is replaced, in every qgalois module namespace that binds
it, by a wrapper that records a span (name, parent span, start, end) on a
stack while an op is being traced.  Spans stay in memory; at the end of each
op they are folded into per-layer counts and self times (duration minus the
part covered by child spans), and the raw spans of the first ops are kept to
be written out when the run ends.  Nothing under src/ is modified: the
wrappers are installed for traced ops only and removed again afterwards, so
untraced ops run the original functions.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# What each layer's numbers should move, written down before any change
# that claims a gain.  "none" names the workload where the prediction is no
# change.
_POCHHAMMER = ("ops_per_s and call_p50_ms on classify-mix and connection-scan; "
               "none on near-unit-q")
_NEAR_UNIT = ("ops_per_s, accuracy_digits and passed_ratio on near-unit-q; "
              "none on classify-mix and connection-scan")
_LADDER = "call_tail_ms and ops_per_s on classify-mix; none on connection-scan"
_CONTINUATION = "call_p50_ms on connection-scan"
_CHARACTERS = "ops_per_s on connection-scan; call_tail_ms (case iv) on classify-mix"
_SPIRAL = "ops_per_s on classify-mix"
_CONNECTION = "ops_per_s and peak_rss_mb on connection-scan and classify-mix"
_CLASSIFIER = "ops_per_s, call_p50_ms and call_tail_ms on classify-mix"
_CLI = "call_p50_ms on connection-scan and near-unit-q"

# Traced functions as "module.function", with the moves of their calls and
# self time; the .terms, ratio and trace metrics have their own entries in
# EXTRA_MOVES.
LAYERS = {
    "qseries.qpochhammer_infinite": _POCHHAMMER,
    "qseries.theta": _NEAR_UNIT,
    "qseries.qhyper_series": _LADDER,
    "qseries.qcharacter": _CHARACTERS,
    "qseries.lq": _CHARACTERS,
    "connection.pochhammer_coefficient": _POCHHAMMER,
    "connection.core_closed_form": _CONNECTION,
    "connection.core_numeric": _CONNECTION,
    "connection.birkhoff_closed_form": _CONNECTION,
    "connection.birkhoff_numeric": _CONNECTION,
    "connection.twisted_birkhoff": _CONNECTION,
    "connection.connection_logarithmic": _CONNECTION,
    "connection.det_formula": _CONNECTION,
    "connection.minor_formula": _CONNECTION,
    "connection.connection_eval": _CONNECTION,
    "hypersystem.fmatrix_at": _CONTINUATION,
    "hypersystem.e_matrix": _CONTINUATION,
    "hypersystem.system_matrix": _CONTINUATION,  # calls = q-shift continuation steps
    "mat3.eig3": _CHARACTERS,
    "mat3.dunford": _CHARACTERS,
    "mat3.minor2": _CHARACTERS,
    "spiral.in_q_spiral": _SPIRAL,
    "spiral.decompose": _SPIRAL,
    "spiral.g_endomorphism": _SPIRAL,
    "galois.classify": _CLASSIFIER,
    "galois.irreducibility": _CLASSIFIER,
    "galois.normalize_parameters": _CLASSIFIER,
    "galois.base_point": _CLASSIFIER,
    "galois.omega_samples": _CLASSIFIER,
    "galois.generators": _CLASSIFIER,
    "galois.pgl2_obstruction": _CLASSIFIER,
    "cli.main": _CLI,  # self time = argument parsing and JSON output
}
EXTRA_MOVES = {
    "qseries.qpochhammer_infinite.terms": _NEAR_UNIT,
    "qseries.qhyper_series.terms": _LADDER,
    "connection.pochhammer_coefficient.useful_ratio": _POCHHAMMER,
    "connection.local_pair.hit_ratio": _CONNECTION,
    "trace.overhead_ms": "none: the cost of tracing itself",
    "trace.unaccounted_ms": "none: op time outside every traced span",
}

TERMS = ("qseries.qpochhammer_infinite", "qseries.qhyper_series")
USEFUL = "connection.pochhammer_coefficient"
CACHED = ("connection", "local_pair")
KEEP_SPANS = 50_000  # raw spans kept for the trace file


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        if layer != "cli.main":
            names.append(f"{layer}.calls")
        if layer != "hypersystem.system_matrix":
            names.append(f"{layer}.self_ms")
        if layer in TERMS:
            names.append(f"{layer}.terms")
        if layer == USEFUL:
            names.append(f"{layer}.useful_ratio")
    names += ["connection.local_pair.hit_ratio", "trace.overhead_ms", "trace.unaccounted_ms"]
    return names


def expected_move(name: str) -> str:
    """The end-to-end metric and workload a per-layer metric should move."""
    return EXTRA_MOVES.get(name) or LAYERS[name.rpartition(".")[0]]


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".terms"):
        return "terms/op"
    if name.endswith("_ratio"):
        return "1"
    return "ms/op"


def _qgalois_modules():
    return [m for n, m in list(sys.modules.items()) if n == "qgalois" or n.startswith("qgalois.")]


class Tracer:
    """Stack-based span recorder around the layer functions."""

    def __init__(self):
        self._originals: list[tuple[object, object]] = []  # (original, wrapper)
        self._spans: list[list] = []  # [name, parent, t0, t1] of the current op
        self._stack: list[int] = []
        self._recording = [False]
        self._before = None
        self._op_keys: set = set()
        self._op_terms: Counter = Counter()
        self.kept: list[list] = []  # [op, span, parent, name, t0_ns, t1_ns]
        self.ops = 0
        # times below are in reference nanoseconds (wall time times the scale)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.terms: Counter = Counter()
        self.distinct = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self.top_level_ns = 0
        self.op_ns = 0
        for name in LAYERS:
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"qgalois.{mod_name}"), fn_name, None)
            if original is not None:  # a layer gone from the program reports 0
                self._originals.append((original, self._wrap(name, original)))

    def _wrap(self, name: str, fn):
        spans, stack, recording = self._spans, self._stack, self._recording
        now = time.perf_counter_ns
        keys, terms = self._op_keys, self._op_terms
        want_terms = name in TERMS
        want_keys = name == USEFUL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recording[0]:  # the benchmark's own checks between ops
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, now(), 0]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = now()
                stack.pop()
            if want_terms:
                terms[name] += result[1].terms_used
            elif want_keys:
                p, i, j, ctx = args
                keys.add((p, i, j, ctx.q))
            return result

        return traced

    def _swap(self, install: bool) -> None:
        table = {id(o if install else w): (w if install else o) for o, w in self._originals}
        for mod in _qgalois_modules():
            for attr, value in list(vars(mod).items()):
                repl = table.get(id(value))
                if repl is not None:
                    setattr(mod, attr, repl)

    def install(self) -> None:
        self._swap(True)

    def uninstall(self) -> None:
        self._swap(False)

    def _cache_info(self):
        mod = sys.modules.get(f"qgalois.{CACHED[0]}")
        fn = getattr(mod, CACHED[1], None)
        info = getattr(fn, "cache_info", None)
        return info() if info else None

    def begin(self) -> None:
        """Start recording the spans of one op."""
        self._before = self._cache_info()
        del self._spans[:]
        self._stack.clear()
        self._op_keys.clear()
        self._op_terms.clear()
        self._recording[0] = True

    def end(self, t0: int, t1: int, scale: float) -> None:
        """Stop recording; t0, t1 bound the op as the caller timed it (ns),
        and `scale` converts its wall time to reference time."""
        self._recording[0] = False
        self._fold(t0, t1, scale, self._before)

    def _fold(self, t0: int, t1: int, scale: float, before) -> None:
        spans = self._spans
        child = defaultdict(int)
        for name, parent, s0, s1 in spans:
            if parent >= 0:
                child[parent] += s1 - s0
            else:
                self.top_level_ns += (s1 - s0) * scale
        for sid, (name, parent, s0, s1) in enumerate(spans):
            self.calls[name] += 1
            self.self_ns[name] += (s1 - s0 - child[sid]) * scale
        self.terms.update(self._op_terms)
        self.distinct += len(self._op_keys)
        after = self._cache_info()
        if before is not None and after is not None:
            hits = after.hits - before.hits
            self.cache_hits += hits
            self.cache_lookups += hits + after.misses - before.misses
        self.op_ns += (t1 - t0) * scale
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend(
                [self.ops, sid, parent, name, s0 - t0, s1 - t0]
                for sid, (name, parent, s0, s1) in enumerate(spans[:room])
            )
        self.ops += 1

    def metrics(self, untraced_op_ms: float) -> dict[str, float]:
        """Per-op layer metrics, plus the tracing overhead against the mean
        untraced op time and the op time no top-level span covers."""
        n = max(self.ops, 1)
        out = {}
        for name in metric_names():
            layer, _, quantity = name.rpartition(".")
            if quantity == "calls":
                out[name] = self.calls[layer] / n
            elif quantity == "self_ms":
                out[name] = self.self_ns[layer] / 1e6 / n
            elif quantity == "terms":
                out[name] = self.terms[layer] / n
        calls = self.calls[USEFUL]
        out[f"{USEFUL}.useful_ratio"] = self.distinct / calls if calls else 0.0
        out["connection.local_pair.hit_ratio"] = (
            self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0
        )
        traced_op_ms = self.op_ns / 1e6 / n
        out["trace.overhead_ms"] = traced_op_ms - untraced_op_ms
        out["trace.unaccounted_ms"] = (self.op_ns - self.top_level_ns) / 1e6 / n
        return out
