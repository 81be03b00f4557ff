"""Outside-in tracing of equicoh's public functions.

The tracer wraps each target function and rebinds the wrapper under every
name that refers to the original in the ``equicoh`` modules (``from .linalg
import nullspace`` leaves a second reference in ``s1`` and ``xray``).  Files
under ``src/`` are never edited; ``uninstall`` restores every binding.

Each call records a span (id, parent id, query index, name, start and end
in nanoseconds).  A span's self time is its duration minus the part of it
covered by its children.  The root span is ``cli.main``; spans opened in
another thread with nothing open there (the batch-validate pool) are
children of the running root, and the root subtracts the union of its
children's intervals, so overlapping worker spans are not counted twice.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from array import array
from time import perf_counter_ns

ROOT = "cli.main"

# (span name, module, attribute); a dotted attribute names a method.
TARGETS = (
    (ROOT, "equicoh.cli", "main"),
    ("graph.parse_graph", "equicoh.graph", "parse_graph"),
    ("graph.validate_graph", "equicoh.graph", "validate_graph"),
    ("graph.resolve_self_intersections", "equicoh.graph", "resolve_self_intersections"),
    ("xray.parse_xray", "equicoh.xray", "parse_xray"),
    ("xray.validate_xray", "equicoh.xray", "validate_xray"),
    ("xray.piece_obstructions", "equicoh.xray", "piece_obstructions"),
    ("xray.image_basis_xray", "equicoh.xray", "image_basis_xray"),
    ("xray.check_membership_xray", "equicoh.xray", "check_membership_xray"),
    ("xray.parse_class_torus", "equicoh.xray", "parse_class_torus"),
    ("s1.localize", "equicoh.s1", "localize"),
    ("s1.image_basis", "equicoh.s1", "image_basis"),
    ("s1.check_membership", "equicoh.s1", "check_membership"),
    ("s1.abbv_degree2_functional", "equicoh.s1", "abbv_degree2_functional"),
    ("s1.parse_class", "equicoh.s1", "parse_class"),
    ("s1.localize_torus", "equicoh.s1", "localize_torus"),
    ("s1.torus_obstructions", "equicoh.s1", "torus_obstructions"),
    ("linalg.nullspace", "equicoh.linalg", "nullspace"),
    ("linalg.rref", "equicoh.linalg", "rref"),
    ("mpoly.substitute_linear", "equicoh.mpoly", "MPoly.substitute_linear"),
    ("mpoly.unimodular_completion", "equicoh.mpoly", "unimodular_completion"),
    ("core.laurent_mul", "equicoh.core", "laurent_mul"),
    ("core.integrate_surface", "equicoh.core", "integrate_surface"),
)

# Sizes of the systems handed to the eliminator, summed over nullspace calls.
SIZE_COUNTERS = ("linalg.rows", "linalg.cols", "linalg.rank")

SPAN_FIELDS = ("span", "parent", "query", "name", "start_ns", "end_ns")


def _nullspace_sizes(counters: dict, args: tuple, result) -> None:
    rows, ncols = args[0], args[1]
    counters["linalg.rows"] += len(rows)
    counters["linalg.cols"] += ncols
    counters["linalg.rank"] += ncols - len(result)


OBSERVERS = {"linalg.nullspace": _nullspace_sizes}


class Tracer:
    """Spans and per-name aggregates for one traced pass."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.total_ns = [0] * len(self.names)
        self.counters = dict.fromkeys(SIZE_COUNTERS, 0)
        self.spans = array("q")
        self.query = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self._bindings: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "equicoh" or name.startswith("equicoh."))]
        for index, (name, module_name, attr) in enumerate(TARGETS):
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, original, self._wrap(index, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        self._bindings.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._bindings):
            setattr(owner, key, original)
        self._bindings.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------------

    def _wrap(self, index: int, fn):
        tracer = self
        is_root = self.names[index] == ROOT
        observe = OBSERVERS.get(self.names[index])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            if is_root:
                parent = None
            else:
                parent = stack[-1] if stack else tracer._root
            # frame: [span id, same-thread child time, child intervals (root only)]
            frame = [next(tracer._ids), 0, [] if is_root else None]
            if is_root:
                tracer._root = frame
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer._close(index, frame, parent, start, end)
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        return wrapper

    def _close(self, index: int, frame: list, parent, start: int, end: int) -> None:
        duration = end - start
        covered = _union(frame[2]) if frame[2] is not None else frame[1]
        with self._lock:
            self.calls[index] += 1
            self.self_ns[index] += duration - covered
            self.total_ns[index] += duration
            self.spans.extend((frame[0], parent[0] if parent else 0, self.query, index, start, end))
            if parent is not None:
                if parent[2] is not None:
                    parent[2].append((start, end))
                else:
                    parent[1] += duration

    def write_spans(self, path: str, query_ids: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\t".join(SPAN_FIELDS) + "\n")
            s = self.spans
            for i in range(0, len(s), 6):
                handle.write(f"{s[i]}\t{s[i + 1]}\t{query_ids[s[i + 2]]}\t{self.names[s[i + 3]]}"
                             f"\t{s[i + 4]}\t{s[i + 5]}\n")


def _union(intervals: list[tuple[int, int]]) -> int:
    covered = 0
    last = None
    for start, end in sorted(intervals):
        if last is not None and start < last:
            if end > last:
                covered += end - last
                last = end
        else:
            covered += end - start
            last = end
    return covered
