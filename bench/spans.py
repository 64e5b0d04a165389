"""In-memory span tracer that wraps the public functions of each layer.

``Tracer.install`` replaces every public function of the layer modules, in
every ``deltasvp`` module namespace that refers to it, by a wrapper that
opens a span; ``uninstall`` puts the originals back.  Calls between
modules (``threshold.scaled_inverse``, ``polyhedra.det``) and inside a
module (``linalg.adjugate`` calling ``det``) resolve through module globals,
so they are traced too.  ``IntMatrix.matmul`` is wrapped on the class.
Hot per-point helpers (``IntMatrix.matvec``, ``PolyhedronH.contains``) and
private helpers are not wrapped; their time is the caller's self time.

Every span is aggregated (calls, total and self time per name) and also
kept in memory with name, start, end, parent id and operation id, to be
written out when the run ends.  Spans per pass of each workload: about
300 (solve-large), 1,200 (solve-walk), 400 (enumerate) and 57,000
(verify-hull, thousands of tiny ``det`` calls per polytope); a 25 s
traced run keeps a few hundred thousand at most.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "deltasvp"
LAYERS = ("cli", "textio", "generators", "linalg", "threshold", "oracle", "polyhedra")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total s, self s]
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self.op_id = -1
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._hooks: dict[str, object] = {}

    # ---- spans

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        self.spans.append((span_id, parent[0] if parent else None, self.op_id, name, start, end))
        return duration

    def parent_name(self) -> str | None:
        return self.stack[-1][1] if self.stack else None

    # ---- wrapping

    def hook(self, name: str, fn) -> None:
        """Calls ``fn(tracer, args, kwargs, result, seconds)`` after span ``name`` ends."""
        self._hooks[name] = fn

    def _wrap(self, fn, name: str):
        tracer = self
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.exit(frame)
            if hook is not None:
                hook(tracer, args, kwargs, result, seconds)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    wrappers[id(value)] = (value, self._wrap(value, f"{layer}.{attr}"))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, entry[1])
        linalg = modules.get(f"{PACKAGE}.linalg")
        if linalg is not None:
            cls = linalg.IntMatrix
            self._patched.append((cls, "matmul", cls.matmul))
            cls.matmul = self._wrap(cls.matmul, "linalg.matmul")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---- results

    def total_ms(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2] * 1e3

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def layer_self_ms(self) -> dict[str, float]:
        out: Counter = Counter()
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s * 1e3
        return dict(out)

    def write(self, path) -> None:
        """Writes stored spans as JSON lines, times in seconds from the first span."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                        }
                    )
                    + "\n"
                )
