"""Span tracing of the hbgowers layers, installed from outside the package.

:meth:`Tracer.install` wraps every public function of each layer module
(``arith``, ``hb_model``, ``gowers``, ``cube``, ``averages``, ``cli``) and
rebinds the wrapper under every name that refers to the original in any of
those modules, so ``averages.gowers_normalized`` and ``hb_model.ramanujan_table``
are traced as well as the module attributes, and in module-level dicts, so the
verbs ``cli.main`` dispatches through ``cli._COMMANDS`` are traced too.  lru-cached functions keep
``cache_info()`` and ``cache_clear()``.  Spans stay in memory; the worker
writes them out when the pass ends.

A span's self time is its duration minus the durations of its child spans.
Counts marked "computed" below come from argument and result sizes, not from
hardware counters.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hbgowers import arith, averages, cli, cube, gowers, hb_model

LAYERS = {"arith": arith, "hb_model": hb_model, "gowers": gowers, "cube": cube,
          "averages": averages, "cli": cli}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    layer: str
    t0: float
    t1: float
    note: dict | None = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _fft_points(L: int) -> int:
    """Zero-padded FFT length the U^2/U^3 kernels use for a length-L series."""
    return 1 << max(1, 2 * L - 1).bit_length() if L else 0


def _weight_note(ba, result, parent_layer, outer):
    return {"values": int(result.length), "outer": outer}


_NOTES = {
    "gowers.gowers_u3_fast": lambda ba, r, pl, o: {
        "rows": ba.arguments["f"].length,
        "fft_points": ba.arguments["f"].length * _fft_points(ba.arguments["f"].length)},
    "gowers.gowers_u2_fast": lambda ba, r, pl, o: {
        "fft_points": _fft_points(ba.arguments["f"].length)},
    "gowers.gowers_normalized": lambda ba, r, pl, o: (
        {"rhs": hashlib.sha1(ba.arguments["f"].values.tobytes()).hexdigest()
         + f":{ba.arguments['N']}:{ba.arguments['s']}"} if pl == "averages" else {}),
    "averages.ineq_u3_modulated": lambda ba, r, pl, o: {
        "grid_points": 2 * ba.arguments["N"] * ba.arguments["oversample"] * ba.arguments["N"]},
    "averages.orbit": lambda ba, r, pl, o: {"kind": ba.arguments["system"].kind},
    "arith.build_sieve": lambda ba, r, pl, o: {"entries": ba.arguments["limit"] + 1},
    "arith.save_sieve": lambda ba, r, pl, o: {
        "bytes": 12 + 32 * (ba.arguments["tables"].limit + 1)},
    "arith.load_sieve": lambda ba, r, pl, o: {"bytes": 12 + 32 * (r.limit + 1)},
    "hb_model.lambda_Q": _weight_note,
    "hb_model.lambda_leq": _weight_note,
    "hb_model.twist": _weight_note,
    "hb_model.vonmangoldt_weight": _weight_note,
    "cli.estimate_u3_seconds": lambda ba, r, pl, o: {"est": r, "N": ba.arguments["N"]},
}


def _traceable(mod, obj) -> bool:
    return ((inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper))
            and getattr(obj, "__module__", None) == mod.__name__)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, str]] = []  # (sid, layer) of open spans
        self._next = 0
        self._raised: list[BaseException] = []  # counted once, where first raised
        self._bindings: list[tuple[dict, object, object]] = []  # (namespace, key, original)

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        wrappers = {}
        for layer, mod in LAYERS.items():
            for name, obj in vars(mod).items():
                if not name.startswith("_") and _traceable(mod, obj):
                    wrappers[id(obj)] = self._wrap(layer, name, obj)
        for mod in LAYERS.values():
            for name, obj in list(vars(mod).items()):
                self._rebind(vars(mod), name, obj, wrappers)
                if isinstance(obj, dict):  # dispatch tables such as cli._COMMANDS
                    for key, value in list(obj.items()):
                        self._rebind(obj, key, value, wrappers)
        return self

    def _rebind(self, namespace: dict, key, obj, wrappers: dict) -> None:
        wrapper = wrappers.get(id(obj))
        if wrapper is not None:
            self._bindings.append((namespace, key, obj))
            namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, obj in reversed(self._bindings):
            namespace[key] = obj
        self._bindings.clear()

    def _wrap(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        note_fn = _NOTES.get(name)
        sig = inspect.signature(fn) if note_fn else None
        lru = hasattr(fn, "cache_info")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else (None, None)
            outer = all(entry[1] != layer for entry in stack)
            sid = tracer._next
            tracer._next += 1
            stack.append((sid, layer))
            hits = fn.cache_info().hits if lru else 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                t1 = perf_counter()
                stack.pop()
                tracer._error(layer, exc)
                tracer.spans.append(Span(sid, parent[0], name, layer, t0, t1, {"error": True}))
                raise
            t1 = perf_counter()
            stack.pop()
            note = {"hit": fn.cache_info().hits > hits} if lru else {}
            if note_fn:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                note.update(note_fn(ba, result, parent[1], outer))
            tracer.spans.append(Span(sid, parent[0], name, layer, t0, t1, note or None))
            return result

        if lru:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _error(self, layer: str, exc: BaseException) -> None:
        if not any(exc is seen for seen in self._raised):
            self._raised.append(exc)
            self.errors[layer] += 1

    # -- spans opened by the benchmark itself ------------------------------

    def begin(self) -> tuple[int, float]:
        sid = self._next
        self._next += 1
        self._stack.append((sid, "bench"))
        return sid, perf_counter()

    def end(self, token: tuple[int, float], name: str) -> None:
        t1 = perf_counter()
        self._stack.pop()
        sid, t0 = token
        self.spans.append(Span(sid, None, name, "bench", t0, t1))

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "name": s.name,
                                     "t0": s.t0, "t1": s.t1, "note": s.note}) + "\n")

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, job_seconds: float, csv_bytes: int) -> dict[str, float]:
        spans = self.spans
        by_id = {s.sid: s for s in spans}
        child = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        self_t = {s.sid: s.dur - child[s.sid] for s in spans}

        named = defaultdict(list)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        for s in spans:
            named[s.name].append(s)
            self_s[s.name] += self_t[s.sid]
            layer_self[s.layer] += self_t[s.sid]

        def calls(name):
            return len(named[name])

        def note(s, key):
            return (s.note or {}).get(key)  # None on spans that raised

        def note_sum(name, key):
            return sum(note(s, key) or 0 for s in named[name])

        def ratio(a, b):
            return a / b if b else 0.0

        def hit_ratio(name):
            hits = [note(s, "hit") for s in named[name] if note(s, "hit") is not None]
            return ratio(sum(hits), len(hits))

        def root(s):
            while s.parent is not None:
                s = by_id[s.parent]
            return s.sid

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
            m[f"{layer}.errors"] = self.errors[layer]

        # cli: the cost-model estimate against the U^3 call it gated, same job
        m["cli.main.self_s"] = self_s["cli.main"]
        m["cli.main.csv_bytes"] = csv_bytes
        m["cli.estimate_u3_seconds.s"] = sum(s.dur for s in named["cli.estimate_u3_seconds"])
        u3 = sorted(named["gowers.gowers_u3_fast"], key=lambda s: s.t0)
        est_total = actual_total = 0.0
        for e in named["cli.estimate_u3_seconds"]:
            job = root(e)
            match = next((s for s in u3 if s.t0 >= e.t1 and note(s, "rows") == note(e, "N")
                          and root(s) == job), None)
            if match is not None:
                est_total += e.note["est"]
                actual_total += match.dur
        m["cli.cost_model.est_over_actual"] = ratio(est_total, actual_total)

        m["arith.build_sieve.calls"] = calls("arith.build_sieve")
        m["arith.build_sieve.self_s"] = self_s["arith.build_sieve"]
        m["arith.build_sieve.entries_per_s"] = ratio(note_sum("arith.build_sieve", "entries"),
                                                     self_s["arith.build_sieve"])
        m["arith.save_sieve.self_s"] = self_s["arith.save_sieve"]
        m["arith.load_sieve.self_s"] = self_s["arith.load_sieve"]
        m["arith.sieve_cache.bytes"] = (note_sum("arith.save_sieve", "bytes")
                                        + note_sum("arith.load_sieve", "bytes"))
        m["arith.ramanujan_table.calls"] = calls("arith.ramanujan_table")
        m["arith.ramanujan_table.self_s"] = self_s["arith.ramanujan_table"]

        for fname in ("lambda_Q", "lambda_leq", "twist"):
            m[f"hb_model.{fname}.self_s"] = self_s[f"hb_model.{fname}"]
        builders = [s for s in spans if s.layer == "hb_model" and note(s, "outer")]
        m["hb_model.values_per_s"] = ratio(sum(s.note["values"] for s in builders),
                                           sum(s.dur for s in builders))

        name = "gowers.gowers_u3_fast"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.rows"] = note_sum(name, "rows")
        m[f"{name}.fft_points"] = note_sum(name, "fft_points")
        m[f"{name}.points_per_s"] = ratio(m[f"{name}.fft_points"], self_s[name])
        m[f"{name}.job_share"] = ratio(self_s[name], job_seconds)
        name = "gowers.interval_normalizer"
        m[f"{name}.hit_ratio"] = hit_ratio(name)
        m[f"{name}.miss_s"] = sum(s.dur for s in named[name] if note(s, "hit") is False)
        m["gowers.gowers_cyclic.self_s"] = self_s["gowers.gowers_cyclic"]
        m["gowers.gowers_u2_fast.self_s"] = self_s["gowers.gowers_u2_fast"]
        m["gowers.gowers_u2_fast.fft_points"] = note_sum("gowers.gowers_u2_fast", "fft_points")

        # averages: the rhs is a gowers_normalized call made from an averages span
        rhs = [s for s in named["gowers.gowers_normalized"] if note(s, "rhs")]
        name = "averages.ineq_u3_modulated"
        mod_spans = {s.sid: s for s in named[name]}
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.grid_points"] = note_sum(name, "grid_points")
        m[f"{name}.rhs_share"] = ratio(sum(s.dur for s in rhs if s.parent in mod_spans),
                                       sum(s.dur for s in mod_spans.values()))
        for fname in ("ww_sup_grid", "ineq_rtt", "ineq_double_recurrence", "rtt_average"):
            m[f"averages.{fname}.self_s"] = self_s[f"averages.{fname}"]
        for kind in ("rotation", "doubling", "signs"):
            m[f"averages.orbit.{kind}.self_s"] = sum(
                self_t[s.sid] for s in named["averages.orbit"] if note(s, "kind") == kind)
        m["averages.rhs_calls_per_weight"] = ratio(len(rhs), len({s.note["rhs"] for s in rhs}))

        name = "cube.ramanujan_cube_expectation"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s[name]
        m["cube.count_numerators_exact.hit_ratio"] = hit_ratio("cube.count_numerators_exact")
        m["cube.minimal_seed.self_s"] = self_s["cube.minimal_seed"]

        m["trace.spans"] = len(spans)
        return m

