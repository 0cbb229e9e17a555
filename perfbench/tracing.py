"""Span tracer for a loaded ``stringlab`` package, installed from outside.

Every stringlab module imports the functions it uses by name
(``from .grid import d_tau``), so wrapping a function means rebinding each
``stringlab.*`` module attribute that *is* that function object.  ``Tracer``
does exactly that on ``__enter__`` and puts every original object back on
``__exit__``; nothing under ``src/`` is edited.  ``numpy.einsum`` and
``numpy.fft.rfft``/``irfft`` are wrapped as leaf "kernel" spans.

A span is ``[name, parent, start_ns, end_ns, note]``: ``parent`` indexes the
enclosing span (-1 for a root) and ``note`` carries what a ratio needs (an
embedding digest, a cache hit, a row count, bytes touched).
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from collections import defaultdict

import numpy as np
import numpy.fft

# module.function targets inside the stringlab package
TARGETS = (
    "grid.d_tau",
    "grid.d_sigma",
    "geometry.build_geometry",
    "geometry.covariant_gradient",
    "geometry.normal_laplacian",
    "geometry.fill_masked_along_sigma",
    "deformation.fd_oracle",
    "deformation.vary_metric",
    "deformation.vary_connection",
    "deformation.vary_ricci_scalar",
    "dynamics.operator_coefficients",
    "dynamics.stability_operator_apply",
    "dynamics.linearized_residual",
    "dynamics.linearized_residual_string",
    "dynamics.einstein_block",
    "dynamics.linearized_fd_oracle",
    "dynamics.eom_residual",
    "symplectic.bilinear_current",
    "symplectic.symplectic_form",
    "symplectic.worldsheet_divergence",
    "symplectic.gauge_invariance_check",
    "background.riemann_slots",
    "solutions.jacobi_from_family",
    "cli.serialize_report",
)
# leaf kernels: (span name, module, attribute)
KERNELS = (
    ("kernel.einsum", np, "einsum"),
    ("kernel.fft", numpy.fft, "rfft"),
    ("kernel.fft", numpy.fft, "irfft"),
)
ROOT = "experiments"


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _embedding_digest(args, kwargs):
    x = _first_arg(args, kwargs, "emb").x.values
    return hashlib.blake2b(np.ascontiguousarray(x).tobytes(), digest_size=16).hexdigest()


def _coefficients_cached(args, kwargs):
    return "linearized_coeffs" in _first_arg(args, kwargs, "geo").cache


def _rows(args, kwargs):
    return _first_arg(args, kwargs, "geo").grid.n_tau


# notes taken before the call, so a cache hit is seen before the call fills it
NOTES = {
    "geometry.build_geometry": _embedding_digest,
    "dynamics.operator_coefficients": _coefficients_cached,
    "symplectic.bilinear_current": _rows,
}


class Tracer:
    """Records spans around the stringlab layer functions while entered."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def root(self, kind: str):
        """Context manager for the root span of one experiment kind."""
        return _RootSpan(self, kind)

    def _open(self, name, note=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1], time.perf_counter_ns(), 0, note])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            idx = self._open(name, note(args, kwargs) if note else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_einsum(self, fn):
        def traced(*operands, **kwargs):
            idx = self._open("kernel.einsum")
            try:
                out = fn(*operands, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx][4] = sum(
                a.nbytes for a in (*operands, out) if isinstance(a, np.ndarray)
            )
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        wrappers = {}  # id(original) -> (original, wrapper)
        for target in TARGETS:
            module_name, func_name = target.split(".")
            try:
                module = importlib.import_module(f"stringlab.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            fn = getattr(module, func_name, None)
            if not callable(fn):
                self.absent.append(target)
                continue
            wrappers[id(fn)] = (fn, self._wrap(target, fn, NOTES.get(target)))
        try:
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == "stringlab" or module_name.startswith("stringlab.")
                ):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._rebind(module, attr, hit[1])
            for name, owner, attr in KERNELS:
                fn = getattr(owner, attr)
                wrapper = self._wrap_einsum(fn) if attr == "einsum" else self._wrap(name, fn)
                self._rebind(owner, attr, wrapper)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class _RootSpan:
    def __init__(self, tracer: Tracer, kind: str):
        self.tracer, self.kind = tracer, kind

    def __enter__(self):
        self.idx = self.tracer._open(ROOT, self.kind)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)


# -- aggregation -----------------------------------------------------------


def aggregate(spans: list[list]) -> dict[str, dict[str, dict]]:
    """Per root kind, per span name: calls, total and self time, and notes.

    Self time is a span's duration minus the time its direct children cover.
    ``total_ns`` counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice.
    """
    n = len(spans)
    child_ns = [0] * n
    root_of = [0] * n
    names_above: list[frozenset] = [frozenset()] * n
    for i, (name, parent, t0, t1, note) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += t1 - t0
            root_of[i] = root_of[parent]
            names_above[i] = names_above[parent] | {spans[parent][0]}
        else:
            root_of[i] = i
    per_kind: dict[str, dict[str, dict]] = defaultdict(lambda: defaultdict(_new_entry))
    for i, (name, parent, t0, t1, note) in enumerate(spans):
        kind = spans[root_of[i]][4]
        e = per_kind[kind][name]
        e["calls"] += 1
        e["self_ns"] += (t1 - t0) - child_ns[i]
        if name not in names_above[i]:
            e["total_ns"] += t1 - t0
        if name == "kernel.einsum":
            e["bytes"] += note or 0  # None when the call raised
        elif name == "geometry.build_geometry":
            e["digests"].add(note)
        elif name == "dynamics.operator_coefficients":
            e["hits"] += bool(note)
        elif name == "symplectic.bilinear_current":
            e["rows_computed"] += note
            under_form = "symplectic.symplectic_form" in names_above[i]
            e["rows_used"] += 1 if under_form else note
    return per_kind


def _new_entry() -> dict:
    return {"calls": 0, "self_ns": 0, "total_ns": 0, "bytes": 0, "digests": set(),
            "hits": 0, "rows_computed": 0, "rows_used": 0}


def counts(per_kind) -> dict:
    """The exact part of an aggregate: what two traced runs must repeat."""
    return {
        kind: {name: (e["calls"], e["bytes"], len(e["digests"]), e["hits"],
                      e["rows_computed"], e["rows_used"])
               for name, e in sorted(names.items())}
        for kind, names in sorted(per_kind.items())
    }
