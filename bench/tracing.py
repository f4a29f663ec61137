"""In-memory spans around the public calls into each sparsefl layer.

The tracer wraps module functions from outside the program; nothing in
sparsefl changes. Layer calls (a handful per pass) each leave a span record:
name, layer, start, end, parent and pass id. Hot calls (``Expression.evaluate``
and ``ControllerSpec.control_value``, called per sample and per RK4 stage)
are only counted and timed, so their parent's self time excludes them
without storing a record per call. Self time is a span's duration minus the
time its child calls cover, accumulated per pass and per layer.
"""

from __future__ import annotations

import importlib
import json
import resource
from collections import defaultdict
from time import perf_counter

# (module, function): one span record per call.
LAYER_CALLS = [
    ("cli", "main"),
    ("data", "save_csv"),
    ("data", "load_csv"),
    ("dictionary", "build_dictionaries"),
    ("dynamics", "integrate"),
    ("dynamics", "simulate_closed_loop"),
    ("regression", "solve"),
    ("lie", "relative_degree"),
    ("control", "synthesize"),
    ("symexpr", "parse_expression"),
]
# (module, class, method): counted and timed, no record per call.
HOT_CALLS = [
    ("symexpr", "Expression", "evaluate"),
    ("control", "ControllerSpec", "control_value"),
]


def maxrss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss) in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.self_s: defaultdict = defaultdict(float)  # (pass id, layer) -> seconds
        self.calls: defaultdict = defaultdict(int)  # (pass id, call name) -> count
        self._stack: list[list] = []  # open frames: [child seconds, span id]
        self._pass_id: str | None = None
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._hot: list[tuple[str, str, list]] = []  # (name, layer, [self seconds, calls])

    # -- installing the wrappers ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every LAYER_CALLS function and HOT_CALLS method of ``package``."""
        for module_name, attr in LAYER_CALLS:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            fn = getattr(module, attr)
            wrapped = self._wrap(fn, f"{module_name}.{attr}", module_name)
            self._patch(module, attr, wrapped)
            if getattr(package, attr, None) is fn:  # the package re-export
                self._patch(package, attr, wrapped)
        for module_name, cls_name, attr in HOT_CALLS:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            cls = getattr(module, cls_name)
            fn = cls.__dict__[attr]
            self._patch(cls, attr, self._wrap_hot(fn, f"{module_name}.{cls_name}.{attr}",
                                                  module_name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._hot.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str, layer: str):
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside a traced pass
                return fn(*args, **kwargs)
            return self._call(fn, name, layer, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_hot(self, fn, name: str, layer: str):
        """Like _wrap, but only sums self time and calls; run() files them per pass."""
        stack = self._stack
        acc = [0.0, 0]
        self._hot.append((name, layer, acc))

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                stack[-1][0] += duration
                acc[0] += duration - frame[0]
                acc[1] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ------------------------------------------------------------------------

    def run(self, pass_id: str, name: str, fn):
        """Run ``fn()`` as the root span of pass ``pass_id``."""
        self._pass_id = pass_id
        self._stack.append([0.0, None])
        try:
            return self._call(fn, name, "bench", (), {})
        finally:
            self._stack.pop()
            for hot_name, layer, acc in self._hot:
                self.self_s[(pass_id, layer)] += acc[0]
                self.calls[(pass_id, hot_name)] += acc[1]
                acc[:] = [0.0, 0]
            self._pass_id = None

    def _call(self, fn, name: str, layer: str, args, kwargs):
        stack = self._stack
        parent_id = stack[-1][1]
        frame = [0.0, self._next_id]
        self._next_id += 1
        rss0 = maxrss_mb()
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            duration = t1 - t0
            stack[-1][0] += duration
            self_s = duration - frame[0]
            self.self_s[(self._pass_id, layer)] += self_s
            self.calls[(self._pass_id, name)] += 1
            self.spans.append({
                "id": frame[1], "parent": parent_id, "pass": self._pass_id,
                "name": name, "layer": layer, "start": t0, "end": t1,
                "self_s": self_s, "rss_growth_mb": maxrss_mb() - rss0,
            })

    # -- results ----------------------------------------------------------------------

    def layer_self_s(self, pass_id: str) -> dict[str, float]:
        return {layer: s for (pid, layer), s in self.self_s.items() if pid == pass_id}

    def roots(self, name: str) -> list[dict]:
        return [sp for sp in self.spans if sp["parent"] is None and sp["name"] == name]

    def write(self, path, header: dict) -> None:
        """Write the header, every span, then per-pass self times and call counts (JSONL)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (pid, layer), s in sorted(self.self_s.items()):
                fh.write(json.dumps({"pass": pid, "layer": layer, "self_s": s}) + "\n")
            for (pid, name), n in sorted(self.calls.items()):
                fh.write(json.dumps({"pass": pid, "call": name, "count": n}) + "\n")
