"""Span tracing of monogamy_lab, installed from outside the package.

`Tracer.install()` wraps the public functions and class methods named in
`TARGETS`. Each wrapped call records a span (name, start, end, parent) in
memory; `Tracer.pass_metrics()` turns the spans of one pass into per-layer
calls and self times, and `Tracer.write_spans()` writes them out.

A name bound elsewhere by ``from ... import`` is patched in every loaded
``monogamy_lab`` module, so callers that hold their own reference are
traced too. A target that no longer exists is reported with a warning and
counts zero calls.

The span stack is a plain list: traced passes run with ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings

import numpy as np

_clock = time.perf_counter
PACKAGE = "monogamy_lab"


def eig_layer(args, kwargs) -> str:
    """qcore.eig.<bucket> by matrix size: small d<=4, mid 8..32, large >=64."""
    m = args[0] if args else kwargs["matrix"]
    d = np.shape(getattr(m, "matrix", m))[0]
    if d <= 4:
        return "qcore.eig.small"
    if d <= 32:
        return "qcore.eig.mid"
    return "qcore.eig.large"


def _count_xi2(counters, args, kwargs, result):
    moments = args[0] if args else kwargs["moments"]
    points = int(np.shape(moments)[1])
    counters["spin.xi2.points"] += points
    counters["spin.xi2.refine_calls"] += points == 1
    counters["spin.xi2.degenerate_points"] += int(np.count_nonzero(result[1]))


def _count_map(counters, args, kwargs, result):
    counters["parallel.map.items"] += args[1] if len(args) > 1 else kwargs["n"]


def _count_refine(counters, args, kwargs, result):
    # A row's refinement "wins" when its argmin lies off the tp grid.
    for trace in result.values():
        tp = trace.config.tp_grid
        counters["protocol.refine.rows"] += len(trace)
        counters["protocol.refine.off_grid"] += int(np.count_nonzero(~np.isin(trace.argmin_tp, tp)))


# (module, attribute path, layer name or name function, result hook).
# A layer name of None marks a transparent wrap: counted and timed
# inclusively, but its self time stays with the caller's layer.
TARGETS = [
    ("qcore", "hermitian_eigen", eig_layer, None),
    ("qcore", "hermitian_eigenvalues", eig_layer, None),
    ("qcore", "reduced_state_matrix", "qcore.reduce", None),
    ("qcore", "partial_trace_matrix", "qcore.reduce", None),
    ("qcore", "partial_trace", "qcore.reduce", None),
    ("qcore", "apply_local_unitary", "qcore.local_unitary", None),
    ("qcore", "partial_transpose_matrix", "qcore.partial_transpose", None),
    ("qcore", "partial_transpose", "qcore.partial_transpose", None),
    ("qcore", "SpectralPropagator.__init__", "qcore.propagate", None),
    ("qcore", "SpectralPropagator.apply", "qcore.propagate", None),
    ("qcore", "SpectralPropagator.unitary", "qcore.propagate", None),
    ("qcore", "evolve", "qcore.propagate", None),
    ("spin", "xi2_from_moment_arrays", "spin.xi2", _count_xi2),
    ("spin", "collective_ops", "spin.collective_ops", None),
    ("spin", "CollectiveSpinOps.moment_operators", "spin.collective_ops", None),
    ("measures", "schmidt_negativity_raw", "measures.negativity", None),
    ("measures", "negativity_raw_pure", "measures.negativity", None),
    ("measures", "negativity_normalized_pure", "measures.negativity", None),
    ("measures", "negativity_raw", "measures.negativity", None),
    ("measures", "negativity_normalized", "measures.negativity", None),
    ("measures", "concurrence", "measures.concurrence", None),
    ("measures", "max_concurrence", "measures.concurrence", None),
    ("measures", "max_negativity", "measures.spectrum", None),
    ("measures", "negativity_2pn_from_spectrum", "measures.spectrum", None),
    ("measures", "linear_entropy", "measures.linear_entropy", None),
    ("hamiltonians", "build", "hamiltonians.build", None),
    ("analytic", "cmax_boundary", "analytic.bound", None),
    ("analytic", "threshold_negativity", "analytic.bound", None),
    ("sampling", "haar_random_pure", "sampling.draw", None),
    ("sampling", "random_spectrum", "sampling.draw", None),
    ("sampling", "fig2_dataset", "sampling.dataset", None),
    ("sampling", "fig3_dataset", "sampling.dataset", None),
    ("protocol", "run_protocol_multi", "protocol.run", _count_refine),
    ("protocol", "run_protocol", "protocol.run", None),
    ("protocol", "explore_measure_vs_squeezing", "protocol.explore", None),
    ("protocol", "reduced_a_at", "protocol.explore", None),
    ("protocol", "state_at", "protocol.explore", None),
    ("protocol", "calibration", "protocol.calibrate", None),
    ("protocol", "invert", "protocol.calibrate", None),
    ("protocol", "monotonicity_score", "protocol.calibrate", None),
    ("_parallel", "map_indexed", None, _count_map),
]

# Every layer that gets .calls and .self_s metrics, in report order.
LAYERS = [
    "qcore.eig.small", "qcore.eig.mid", "qcore.eig.large", "qcore.reduce",
    "qcore.local_unitary", "qcore.partial_transpose", "qcore.propagate",
    "spin.xi2", "spin.collective_ops",
    "measures.negativity", "measures.concurrence", "measures.spectrum", "measures.linear_entropy",
    "hamiltonians.build", "analytic.bound", "sampling.draw", "sampling.dataset",
    "protocol.run", "protocol.explore", "protocol.calibrate", "cli",
]

COUNTERS = [
    "spin.xi2.points", "spin.xi2.refine_calls", "spin.xi2.degenerate_points",
    "parallel.map.calls", "parallel.map.items", "protocol.refine.rows", "protocol.refine.off_grid",
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.map_busy_s = 0.0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = _clock()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def _wrap(self, fn, layer, hook):
        tracer = self

        if layer is None:
            @functools.wraps(fn)
            def transparent(*args, **kwargs):
                start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.map_busy_s += _clock() - start
                    tracer.counters["parallel.map.calls"] += 1
                hook(tracer.counters, args, kwargs, result)
                return result
            return transparent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(layer(args, kwargs) if callable(layer) else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, path, layer, hook in TARGETS:
            target = f"{mod_name}.{path}"
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                warnings.warn(f"trace target {target} not found; reported as zero calls",
                              stacklevel=2)
                continue
            if isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(original.func, layer, hook))
                wrapped.__set_name__(owner, attr)
                self._set(owner, attr, wrapped)
            elif outer:
                self._set(owner, attr, self._wrap(original, layer, hook))
            else:
                wrapped = self._wrap(original, layer, hook)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.map_busy_s = 0.0

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer calls and self times, plus counters, for the spans so far."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for (name, start, end, _), children in zip(self.spans, child_s):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - children
        out.update(self.counters)
        out["parallel.map.busy_s"] = self.map_busy_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")
