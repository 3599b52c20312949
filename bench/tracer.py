"""Spans around spilqr's public functions, recorded from outside the library.

:meth:`Tracer.install` replaces each traced function with a timing wrapper
under every name a spilqr module binds it to, so calls through
``from .lti import is_controllable`` or ``cli.simulate`` are seen as well
as calls through ``matkit.spectral_radius``.  Spans are kept in memory as
``(name, start, end, parent, op, ok)`` tuples, with ``parent`` the index
of the enclosing span (``None`` for an op's root span), and are written
out by :meth:`Tracer.dump` when the run ends.
"""

import functools
import json
import sys
import time
from collections import Counter

TRACED = {
    "matkit": ("solve_discrete_lyapunov", "spectral_radius", "numerical_rank",
               "is_positive_definite"),
    "lti": ("simulate", "is_controllable", "is_observable"),
    "riccati": ("hewer_pi", "value_iteration", "are_residual"),
    "model_based": ("spi_model_based", "scaled_policy_evaluation",
                    "scaled_policy_improvement", "choose_c"),
    "model_free": ("spi_model_free", "build_regression_data",
                   "check_rank_condition", "search_b", "assemble_theta_gamma",
                   "solve_regression", "scaling_bound"),
    "cli": ("main", "load_config", "collect_trajectory"),
}
LAYERS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Counters read off a traced function's return value:
# function -> (counter, value).
RESULT_COUNTS = {
    "model_based.spi_model_based":
        ("model_based.iterations", lambda r: r.solution.iterations),
    "model_free.spi_model_free":
        ("model_free.c_fallbacks", lambda r: r.c_fallbacks),
    "riccati.value_iteration":
        ("riccati.value_iteration.sweeps", lambda r: r.iterations),
}

# Layer self times must add up to the op's span within this share.
SUM_RTOL = 1e-6


class Tracer:
    """Spans and counters of the ops run through :meth:`run_op`."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []       # indices of open spans
        self._patched = []     # (namespace, attribute, original)
        self._op = None

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), None, parent,
                           self._op, None))
        self._stack.append(len(self.spans) - 1)

    def _close(self, ok):
        end = time.perf_counter()
        idx = self._stack.pop()
        name, start, _, parent, op, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op, ok)

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` under a root span named ``op``."""
        self._op = op_id
        self._open("op")
        ok = False
        try:
            result = fn(*args)
            ok = True
            return result
        finally:
            self._close(ok)
            self._op = None

    def _wrap(self, name, fn):
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            self._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(ok)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every function in :data:`TRACED` under all its names."""
        spaces = [m for key, m in list(sys.modules.items())
                  if key == "spilqr" or key.startswith("spilqr.")]
        for mod, fns in TRACED.items():
            module = sys.modules[f"spilqr.{mod}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is original:
                            self._patched.append((space, attr, original))
                            setattr(space, attr, wrapper)

    def uninstall(self):
        for space, attr, original in reversed(self._patched):
            setattr(space, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def metrics(self):
        """Per-layer means over the traced ops.

        Covers ``<layer>.calls`` and ``<layer>.self_ms`` for every traced
        layer (zero where the workload never calls it), ``op.self_ms``,
        the counters, and ``model_free.useful_regression_ratio`` (zero when
        no regression ran).  Raises ``AssertionError`` when an op's self
        times do not add up to its span.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = Counter({f"{layer}.{kind}": 0 for layer in LAYERS
                          for kind in ("calls", "self_ms")})
        op_ms, op_self_sum = {}, Counter()
        for idx, (name, start, end, parent, op, _) in enumerate(self.spans):
            self_ms = (end - start - child[idx]) * 1e3
            op_self_sum[op] += self_ms
            if name == "op":
                op_ms[op] = (end - start) * 1e3
            totals[f"{name}.self_ms"] += self_ms
            totals[f"{name}.calls"] += 1
        for op, total in op_ms.items():
            if abs(op_self_sum[op] - total) > SUM_RTOL * total:
                raise AssertionError(
                    f"op {op}: self times add up to {op_self_sum[op]:.6f} ms, "
                    f"span is {total:.6f} ms")
        del totals["op.calls"]
        probes, accepted = self._probes()
        regressions = totals["model_free.solve_regression.calls"]
        totals["model_free.regressions"] = regressions
        totals["model_free.probes"] = probes
        for key, _ in RESULT_COUNTS.values():
            totals[key] = self.counts[key]
        ops = len(op_ms)
        out = {key: value / ops for key, value in totals.items()}
        # A rejected divisor probe is a regression that bought nothing.
        out["model_free.useful_regression_ratio"] = (
            (regressions - (probes - accepted)) / regressions
            if regressions else 0.0)
        return out

    def _probes(self):
        """Regressions run inside ``search_b`` and how many of them were
        the accepted probe (one per ``search_b`` that returned)."""
        probes = 0
        for name, _, _, parent, _, _ in self.spans:
            if name == "model_free.solve_regression" and parent is not None \
                    and self.spans[parent][0] == "model_free.search_b":
                probes += 1
        accepted = sum(1 for s in self.spans
                       if s[0] == "model_free.search_b" and s[5])
        return probes, accepted

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "ok"], "spans": self.spans}, f)
