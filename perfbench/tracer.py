"""Span tracer that instruments acbott from outside the package.

Every public function defined in an ``acbott.<layer>`` module is replaced by
a wrapper that records a span (name, start, end, parent).  The library
imports names with ``from .x import f``, so one function can be bound in
several modules (its defining module, the modules that import it, and the
package ``__init__``); the wrapper is installed at every ``acbott.*``
binding that holds the original object, and ``uninstall`` puts the
originals back.

The ``linalg`` pseudo-layer counts the dense factorizations the library
asks numpy and scipy for.  Those calls are counters, not spans: their time
stays inside the calling function's self time and is also summed on its own
as ``linalg.s``.  Matrix products (``@``) cannot be intercepted from
outside; their time is self time of whichever library function runs them.

Span starts and ends are CPU seconds of the process (``time.process_time``),
so time the host takes the vCPU away is left out; unlike the end-to-end
times they are not calibrated against the reference computation.  Spans
are kept in memory and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import process_time

import numpy as np
import scipy.linalg

PACKAGE = "acbott"
LAYERS = (
    "models",
    "matio",
    "cli",
    "wannier",
    "invariants",
    "relations",
    "symmetry",
    "matkernel",
    "canonical",
)
# (namespace, attribute names) of the factorizations counted as linalg
LINALG_ENTRY_POINTS = (
    (np.linalg, ("eigh", "eigvalsh", "svd", "qr", "det", "inv")),
    (scipy.linalg, ("schur",)),
)
# functions whose file argument is sized after the call, as bytes moved
BYTE_COUNTERS = {
    "matio.read_matrix": "matio.bytes_read",
    "matio.write_matrix": "matio.bytes_written",
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Collects spans and counters while installed; one instance per phase."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = self._span_wrapper(f"{layer}.{attr}", value)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for namespace, attrs in LINALG_ENTRY_POINTS:
            for attr in attrs:
                self._patch(namespace, attr, self._linalg_wrapper(getattr(namespace, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counters = self._stack, self.counters
        byte_counter = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(process_time())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = process_time()
                stack.pop()
                if byte_counter is not None:
                    counters[byte_counter] += _file_size(args[0])

        return wrapper

    def _linalg_wrapper(self, fn):
        stack, counters = self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not stack:  # called by the benchmark itself, not the library
                return fn(a, *args, **kwargs)
            t0 = process_time()
            try:
                return fn(a, *args, **kwargs)
            finally:
                counters["linalg.s"] += process_time() - t0
                counters["linalg.factorizations"] += 1
                m, n = np.shape(a)[-2:]
                counters["linalg.n3_e9"] += m * n * min(m, n) / 1e9

        return wrapper

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Totals over every span recorded: ``<fn>.s`` self seconds,
        ``<fn>.incl_s`` inclusive seconds (outermost call of a recursion
        only), ``<fn>.calls``, ``<layer>.s`` self seconds per layer, plus
        the counters."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            self_s = dur - child[i]
            out[f"{name}.s"] += self_s
            out[f"{name}.calls"] += 1
            out[f"{name.split('.', 1)[0]}.s"] += self_s
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                out[f"{name}.incl_s"] += dur
        out.update(self.counters)
        out["trace.spans"] = float(n)
        return dict(out)

    def dump(self, path, label: str) -> None:
        """Write every span as [name, start, end, parent] rows."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        rows = [
            [index[name], self.starts[i], self.ends[i], self.parents[i]]
            for i, name in enumerate(self.names)
        ]
        with open(path, "a") as fh:
            fh.write(json.dumps({
                "phase": label,
                "names": table,
                "columns": ["name", "start", "end", "parent"],
                "spans": rows,
                "counters": dict(self.counters),
            }) + "\n")
