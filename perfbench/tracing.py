"""Spans around cobweb's public functions, installed from outside the package.

``install`` wraps every public function of the cobweb modules, the
TriangularMatrix methods and the registered crosschecks, then rebinds each
wrapper everywhere the original is bound: module globals (so the
``from .fib_core import fib`` copies are covered), module-level dicts and
lists (the CLI's method table, ``crosscheck.CHECKS``) and the ``values``
field of PsiSequence instances such as ``FIBONACCI``.

Every call updates per-name totals (calls, inclusive and self seconds,
errors) as it returns.  Self time is a call's duration minus the time its
traced children took.  Calls of hot tiny functions are only aggregated;
all other calls also leave a span (id, name, start, end, parent id,
request id) in memory, written out once at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# called up to ~10^5 times per request: aggregate, keep no span per call
HOT = frozenset({
    "fib_core.fib", "poset.level_size", "poset.to_linear", "poset.from_linear", "poset.leq",
    "poset.covers", "paths_fences.path_determinant", "konvalina.dp", "konvalina.brute_sum",
})

# several public names folded into one layer metric
RENAME = {
    "incidence.TriangularMatrix.__mul__": "incidence.matmul",
    "incidence.TriangularMatrix.power": "incidence.matmul",
    "incidence.TriangularMatrix.__init__": "incidence.matrix_init",
    "incidence.TriangularMatrix.to_dense_text": "incidence.export",
    "incidence.TriangularMatrix.to_csv": "incidence.export",
    "incidence.TriangularMatrix.to_json_dict": "incidence.export",
    "konvalina.c_first_kind": "konvalina.dp",
    "konvalina.s_second_kind": "konvalina.dp",
}

# argument keys whose repeats are counted, for the *.repeat_frac metrics
REPEAT_KEYS = {
    "fib_core.fib": "fib_core.fib",
    "poset.truncate": "poset.truncate",
    "incidence.zeta_from_order": "incidence.zeta",
    "incidence.zeta_explicit": "incidence.zeta",
}

MODULES = ("fib_core", "poset", "incidence", "chains", "konvalina", "paths_fences", "crosscheck", "cli")


class Tracer:
    def __init__(self) -> None:
        self.request_id = -1
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, errors]
        self.spans: list[tuple] = []
        self.seen: dict[str, set] = {}
        self.repeats: dict[str, list[int]] = {}  # key -> [repeated, calls]
        self.result_bits = 0
        self.entries_built = 0
        # a frame is [child seconds, span id, layer]; the root frame is outside cobweb
        self._stack: list[list] = [[0.0, -1, None]]
        self._next_id = 0

    def _enter(self, hot: bool, layer: str) -> list:
        sid = -1
        if not hot:
            sid, self._next_id = self._next_id, self._next_id + 1
        frame = [0.0, sid if sid >= 0 else self._stack[-1][1], layer]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float, hot: bool, failed: bool) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        dt = t1 - t0
        parent[0] += dt
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[0]
        st[3] += failed
        if not hot:
            self.spans.append((frame[1], name, t0, t1, parent[1], self.request_id))

    def _note(self, name: str, layer: str, args: tuple, result) -> None:
        key = REPEAT_KEYS.get(name)
        if key is not None:
            seen = self.seen.setdefault(key, set())
            arg = (name, args[0] if args else None)
            counts = self.repeats.setdefault(key, [0, 0])
            counts[0] += arg in seen
            counts[1] += 1
            seen.add(arg)
        # called after the frame is popped, so the top of the stack is the caller
        if layer == "fib_core" and self._stack[-1][2] != "fib_core" and isinstance(result, int):
            self.result_bits += result.bit_length()  # a result leaving the layer
        if name == "incidence.matrix_init":
            self.entries_built += len(args[0].rows) ** 2

    def wrap(self, name: str, fn):
        name = RENAME.get(name, name)
        layer = name.split(".")[0]
        hot = name in HOT
        perf = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:  # each resumption is timed as one hot call
                    frame = self._enter(True, layer)
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._exit(name, frame, t0, perf(), True, False)
                        return
                    except BaseException:
                        self._exit(name, frame, t0, perf(), True, True)
                        raise
                    self._exit(name, frame, t0, perf(), True, False)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(hot, layer)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(name, frame, t0, perf(), hot, True)
                raise
            self._exit(name, frame, t0, perf(), hot, False)
            self._note(name, layer, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "repeats": self.repeats,
            "result_bits": self.result_bits,
            "entries_built": self.entries_built,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "request"], "spans": self.spans}, fh)


def install(tracer: Tracer, cobweb) -> None:
    """Wrap cobweb's public functions and rebind the wrappers everywhere."""
    modules = [getattr(cobweb, m) for m in MODULES]
    wrapped: dict[int, object] = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            wrapped[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    cls = cobweb.incidence.TriangularMatrix
    for attr in ("__init__", "__mul__", "power", "to_dense_text", "to_csv", "to_json_dict"):
        setattr(cls, attr, tracer.wrap(f"incidence.TriangularMatrix.{attr}", vars(cls)[attr]))
    checks = cobweb.crosscheck.CHECKS
    checks[:] = [(name, tracer.wrap(f"crosscheck.check.{name}", fn)) for name, fn in checks]

    def swap(obj):
        return wrapped.get(id(obj), obj) if inspect.isfunction(obj) else obj

    for mod in [cobweb, *modules]:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(obj):
                setattr(mod, attr, swap(obj))
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    obj[key] = swap(val)
            elif isinstance(obj, cobweb.fib_core.PsiSequence):
                object.__setattr__(obj, "values", swap(obj.values))
