"""Spans around chipfire's public functions, installed from outside.

The library's modules import names from each other directly (`sandpile`
calls its own binding of `smith_normal_form`, `intlinalg.char_poly` calls
the module-level `determinant`, the CLI calls its imported `cone` and
`read_edge_list`), so patching one module would miss most calls.
`Tracer.install` therefore wraps each public function of the traced modules
and rebinds the wrapper at *every* module attribute that holds the original
function, package namespace included.

Spans are kept in memory and written out once, at the end.  Work
the tracer does for a span after it closes (measuring SNF witness size) is
subtracted from every enclosing span, so it never shows as library time.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from time import perf_counter

TRACED_MODULES = ("cli", "graphs", "intlinalg", "sandpile", "theorems")
GRAPH_CONSTRUCTORS = ("graphs.cone", "graphs.join", "graphs.complete")
SNF = "intlinalg.smith_normal_form"
CONSTRUCT = "intlinalg.IntMatrix.construct"


def _witness_bits(args, result) -> dict:
    a = args[0]
    bits = max(
        (abs(x).bit_length() for m in (result.u, result.v) for row in m for x in row),
        default=0,
    )
    return {"dim": max(a.rows, a.cols), "bits": bits}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names = []  # span name table; spans refer to names by index
        self._name_index = {}
        self.spans = []  # [id, parent id, op, name index, start, duration, self, extra]
        self._stack = []  # open frames: [id, name index, start, paused at start, child time]
        self._paused = 0.0
        self._next_id = 0
        self.op = -1
        self.bindings = 0

    # --- spans --------------------------------------------------------------

    def _name(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, self._name(name), perf_counter(), self._paused, 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, paused, child = frame
        duration = end - start - (self._paused - paused)
        if self._stack:
            self._stack[-1][4] += duration
            parent = self._stack[-1][0]
        else:
            parent = 0
        self.spans.append([span_id, parent, self.op, name, start, duration, duration - child, None])

    def annotate_last(self, measure, *args) -> None:
        """Attach `measure(*args)` to the span just closed, off the clock."""
        t0 = perf_counter()
        self.spans[-1][7] = measure(*args)
        self._paused += perf_counter() - t0

    # --- installation -------------------------------------------------------

    def _wrap(self, name: str, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if measure is not None:
                tracer.annotate_last(measure, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules at every binding."""
        import chipfire

        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"chipfire.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    measure = _witness_bits if name == SNF else None
                    wrappers[id(fn)] = self._wrap(name, fn, measure)
        modules = [chipfire] + [
            m for n, m in sys.modules.items() if n.startswith("chipfire.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self.bindings += 1
        int_matrix = chipfire.intlinalg.IntMatrix
        int_matrix.__init__ = self._wrap(CONSTRUCT, int_matrix.__init__)

    # --- results ------------------------------------------------------------

    def totals(self, scales) -> dict:
        """Per span name: calls, summed self seconds and summed duration,
        each span's times multiplied by the scale of the op it belongs to."""
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for _, _, op, name, _, duration, self_s, _ in self.spans:
            entry = out[self.names[name]]
            entry["calls"] += 1
            entry["self_s"] += self_s * scales[op]
            entry["total_s"] += duration * scales[op]
        return out

    def snf_extremes(self) -> dict:
        snf = self._name_index.get(SNF)
        extras = [s[7] for s in self.spans if s[3] == snf and s[7]]
        return {
            "max_dim": max((e["dim"] for e in extras), default=0),
            "bits": max((e["bits"] for e in extras), default=0),
        }

    def write(self, path: str, meta: dict) -> None:
        """Spans as JSON: `meta`, a name table and rows of
        [id, parent, op, name, start_us, duration_us, self_us, extra]."""
        origin = min((span[4] for span in self.spans), default=0.0)
        rows = [
            [i, p, op, n, round((s - origin) * 1e6, 1), round(d * 1e6, 1), round(x * 1e6, 1), e]
            for i, p, op, n, s, d, x, e in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "names": self.names, "spans": rows}, fh, separators=(",", ":"))
