"""Layer spans timed from outside the program.

`Tracer` replaces each named layer function with a timing (or counting)
wrapper in every `curveflow.*` module namespace that binds it.  Bindings are
found by object identity, because `from .x import y` copies the function
object into the importing module, so patching `x.y` alone would miss the
calls made through `y`.  The originals are put back by `restore()`.

Span stacks live in thread-local storage, so a layer's self time (its span
time minus the time its child spans cover on the same thread) stays correct
if the program runs work on a thread pool.
"""

import functools
import importlib
import sys
import threading
import time

# (module, function, stats reported).  A layer reported by call count alone
# gets a counting wrapper, for functions too small to time per call.
LAYERS = (
    ("curves", "ddx", ("calls", "self_s")),
    ("curves", "parallel_normal_frame", ("calls", "self_s")),
    ("curves", "resample_arclength", ("calls", "self_s")),
    ("hierarchy", "symplectic_Y_list", ("calls", "self_s")),
    ("functionals", "energy", ("calls", "self_s")),
    ("functionals", "energy_report", ("calls", "self_s")),
    ("flows", "velocity", ("calls", "self_s")),
    ("flows", "export_trajectory", ("self_s",)),
    ("frames", "integrate_frame", ("calls", "self_s")),
    ("frames", "monodromy_angle_scan", ("total_s",)),
    ("frames", "hamiltonians_from_angle", ("total_s",)),
    ("darboux", "fixed_points", ("calls", "self_s")),
    ("darboux", "darboux_transform", ("calls", "self_s")),
    ("darboux", "spectral_image_scan", ("total_s",)),
    ("cli", "write_manifest", ("self_s",)),
    ("qmath", "qrotate", ("calls",)),
    ("qmath", "qmul", ("calls",)),
)

# layers whose distinct second positional argument (lambda) is recorded
DISTINCT_ARG = {"frames.integrate_frame": 1}

PACKAGE = "curveflow"


class _Stats:
    __slots__ = ("calls", "self_s", "total_s", "depth", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0     # outermost spans of this name only
        self.depth = 0
        self.distinct = set()


class Tracer:
    """Install with `install()`, run the program, then `restore()` and read
    `summary()`."""

    def __init__(self):
        self.missing = []          # layer names whose function was not found
        self._patched = []         # (module, attribute, original)
        self._local = threading.local()
        self._per_thread = []      # one {name: _Stats} per thread
        self._lock = threading.Lock()

    def _stat(self, name):
        """This thread's record for the layer `name`."""
        table = getattr(self._local, "stats", None)
        if table is None:
            table = self._local.stats = {}
            self._local.stack = []
            with self._lock:
                self._per_thread.append(table)
        st = table.get(name)
        if st is None:
            st = table[name] = _Stats()
        return st

    def _span_wrapper(self, name, fn):
        local = self._local
        key_index = DISTINCT_ARG.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stat(name)
            stack = local.stack
            child = [0.0]
            stack.append(child)
            st.depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st.depth -= 1
                st.calls += 1
                st.self_s += dur - child[0]
                if st.depth == 0:
                    st.total_s += dur
                if key_index is not None and len(args) > key_index:
                    st.distinct.add(complex(args[key_index]))
        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stat(name).calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for modname, func, stats in LAYERS:
            name = "%s.%s" % (modname, func)
            try:
                orig = getattr(importlib.import_module(
                    "%s.%s" % (PACKAGE, modname)), func)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            make = (self._count_wrapper if stats == ("calls",)
                    else self._span_wrapper)
            wrapped = make(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def restore(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def summary(self):
        """{name: {"calls", "self_s", "total_s", "distinct"}} over all
        threads."""
        out = {}
        for table in self._per_thread:
            for name, st in table.items():
                agg = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                            "total_s": 0.0, "distinct": set()})
                agg["calls"] += st.calls
                agg["self_s"] += st.self_s
                agg["total_s"] += st.total_s
                agg["distinct"] |= st.distinct
        return out
