"""Layer timing from outside the program: wrap public functions, record spans.

A layer is one galwalk module.  `Probe` replaces chosen public functions in
every galwalk module that binds them (so calls through `from .x import f`
and calls inside the defining module are both seen) and restores them on
exit.  Two kinds of probe exist:

* `RequestClock` wraps only the one function that marks a user-visible
  request (a walk sample, a prime, a word length) and records when each
  request starts and ends.  It is what the untraced run uses, at a cost of
  one `perf_counter` pair per request.
* `Tracer` wraps every function in `TARGETS` and keeps one span per call:
  name, start, end, parent span, request id and, where the function takes
  a prime or a walk length, that argument.  Spans stay in memory; self time
  per layer is derived from them after the run.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module -> public functions timed as spans in the traced run
TARGETS = {
    "experiment": ("run_convergence", "run_finite_field", "run_oracle",
                   "identify_sample", "exact_word_census"),
    "walker": ("batch_sample",),
    "exactmat": ("mat_mul", "char_poly", "reduce_poly_mod_p"),
    "modpoly": ("frobenius_cycle_type", "squarefree_over_q"),
    "galois_id": ("collect_samples", "expand_summary", "match_verdict"),
    "finfield": ("enumerate_mod_p", "census", "charpoly_mod_p", "density_report"),
    "output": ("render_csv",),
    "scenarios": ("builtin_scenarios",),
}

LAYERS = tuple(TARGETS)

# position of the prime (or walk length) argument, recorded on the span
_ARG_ID = {
    "frobenius_cycle_type": 1,
    "reduce_poly_mod_p": 1,
    "enumerate_mod_p": 1,
    "census": 1,
    "charpoly_mod_p": 1,
    "exact_word_census": 1,
}


def request_key(name: str, args) -> str:
    """Identifier of the request a request-marking call starts."""
    if name == "identify_sample":
        sample = args[0]
        return f"k{sample.length}/i{sample.seed_path[1]}"
    if name == "enumerate_mod_p":
        return f"p{args[1]}"
    if name == "exact_word_census":
        return f"k{args[1]}"
    raise ValueError(f"{name} does not mark a request")


def _galwalk_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n.startswith("galwalk.") and m is not None]


class Probe:
    """Context manager that swaps wrappers in for (module, name) targets."""

    def __init__(self, targets):
        self._targets = targets
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, layer: str, name: str, fn):
        raise NotImplementedError

    def __enter__(self):
        modules = _galwalk_modules()
        for layer, names in self._targets.items():
            home = sys.modules.get(f"galwalk.{layer}")
            for name in names:
                orig = getattr(home, name, None)
                if orig is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self.wrap(layer, name, orig)
                for mod in modules:
                    if mod.__dict__.get(name) is orig:
                        self._saved.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, orig in reversed(self._saved):
            setattr(mod, name, orig)
        self._saved.clear()
        return False


class RequestClock(Probe):
    """Start and end of each request, keyed by request id.

    With `until_next` a request runs from one call of the marking function
    to the next call (or to `close()`), which covers the work a public entry
    point does for one prime or one word length after the marked call
    returns; otherwise a request is the marked call itself.
    """

    def __init__(self, layer: str, name: str, until_next: bool):
        super().__init__({layer: (name,)})
        self.until_next = until_next
        self.spans: list[tuple[str, float, float]] = []  # (request id, start, end)
        self.result_sizes = 0  # until_next only: DP states or cosets returned
        self._open: tuple[str, float] | None = None

    def close(self) -> None:
        if self._open is not None:
            key, t0 = self._open
            self.spans.append((key, t0, time.perf_counter()))
            self._open = None

    def wrap(self, layer, name, fn):
        clock = time.perf_counter

        if self.until_next:
            def timed(*args, **kwargs):
                self.close()
                self._open = (request_key(name, args), clock())
                result = fn(*args, **kwargs)
                self.result_sizes += len(result)
                return result
            return timed

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((request_key(name, args), t0, clock()))

        return timed


class Tracer(Probe):
    """Records one span per call of every target function."""

    def __init__(self, request_fn: str, until_next: bool, targets=TARGETS):
        super().__init__(targets)
        self.request_fn = request_fn
        self.until_next = until_next
        self.spans: list = []  # (name, layer, t0, t1, parent, request, arg)
        self.request = "-"
        self.good_primes = 0
        self.chis: set = set()
        self.closure_elements = 0
        self.rendered_bytes = 0
        self._stack: list[int] = []

    def wrap(self, layer, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        arg_pos = _ARG_ID.get(name)
        marks_request = name == self.request_fn
        on_result = getattr(self, f"_saw_{name}", None)

        def traced(*args, **kwargs):
            if marks_request:
                self.request = request_key(name, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                arg = args[arg_pos] if arg_pos is not None and len(args) > arg_pos else None
                spans[idx] = (name, layer, t0, t1, parent, self.request, arg)
                if marks_request and not self.until_next:
                    self.request = "-"
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # counters read from return values, at the boundary where work happens
    def _saw_frobenius_cycle_type(self, sample):
        self.good_primes += sample.status == "good"

    def _saw_charpoly_mod_p(self, chi):
        self.chis.add((chi.p, chi.coeffs))

    def _saw_enumerate_mod_p(self, cosets):
        self.closure_elements += sum(len(v) for v in cosets.values())

    def _saw_render_csv(self, text):
        self.rendered_bytes += len(text.encode("utf-8"))

    def aggregate(self):
        """Per-name call count and busy (outermost inclusive) time, per-layer
        self time, and per-parent-name child counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, layer, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_time = {layer: 0.0 for layer in LAYERS}
        under = defaultdict(int)  # (parent name, child name) -> count
        for i, (name, layer, t0, t1, parent, _, _) in enumerate(spans):
            calls[name] += 1
            self_time[layer] += (t1 - t0) - child_time[i]
            outer = True
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outer = False
                    break
                p = spans[p][4]
            if outer:
                busy[name] += t1 - t0
            if parent >= 0:
                under[(spans[parent][0], name)] += 1
        return calls, busy, self_time, under

    def write_jsonl(self, path: str) -> None:
        """Write every span, times relative to the first start."""
        if not self.spans:
            return
        base = self.spans[0][2]
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, t0, t1, parent, req, arg) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": f"{layer}.{name}", "start_us": round((t0 - base) * 1e6, 1),
                    "end_us": round((t1 - base) * 1e6, 1), "parent": parent,
                    "request": req, "arg": arg,
                }) + "\n")
