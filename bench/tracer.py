"""In-memory span tracer that wraps dualfrac's public functions from outside.

One span is recorded per wrapped call: ``(id, parent, name, start, end,
thread, bytes, cpu)``.  bytes is computed from the arguments and result
(FFT input plus output, snapshot file size) and is 0 elsewhere; cpu is the
calling thread's CPU time during the span, which excludes time spent
waiting for the interpreter lock.  Spans stay
in memory and are handed back by :meth:`Tracer.finish` when the operation
ends.  Parents come from a per-thread stack, so spans opened in a worker
thread are roots of that thread.  Beside spans the tracer keeps plain
counters (container constructions, dense grid bytes) and, for the waste
ratios, the set of distinct argument keys per wrapped function.

Wrapping must reach every binding: ``fixed_point``, ``poisson``, ``bounds``
and ``cli`` import helpers with ``from .x import name``, so each module-level
name bound to an original is replaced, as are ``cli._HANDLERS`` values,
``Nonlinearity.eval_components`` and the FFT entry points of ``numpy.fft``
and (when imported) ``scipy.fft``.  :meth:`Tracer.unwrapped` lists every
place that still holds an original; a traced run with a non-empty list is
invalid.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from functools import cached_property

# Every complex and real FFT entry point, so that switching the backend
# function cannot hide transforms from the counter.
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
)
FFT_MODULES = ("numpy.fft", "scipy.fft")

NORMS = "spectral.norms"


def _dualfrac_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "dualfrac" or name.startswith("dualfrac."))
    ]


def _nbytes(value) -> int:
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return int(getattr(value, "nbytes", 0))


def _linear_key(args, kwargs):
    problem = args[0] if args else kwargs["problem"]
    return (problem.orders, problem.influxes, problem.grid)


def _gaussian_key(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return (spec, grid)


def _fft_bytes(args, kwargs, result) -> int:
    data = args[0] if args else kwargs.get("a", kwargs.get("x"))
    return _nbytes(data) + _nbytes(result)


def _snapshot_bytes(args, kwargs, result) -> int:
    # 32-byte FSF1 header plus the float64 payload
    field = args[0] if args else kwargs["field"]
    return 32 + field.values.size * 8


class Tracer:
    """Span recorder for one operation process; thread-safe."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        # id(original) -> (original, wrapper)
        self._wrapped: dict[int, tuple] = {}
        self._fft_modules: set[str] = set()

    # --- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, key=None, nbytes=None):
        """Return a wrapper recording one span per call of ``fn``.

        ``key(args, kwargs)`` adds a distinct-argument key under ``name``;
        ``nbytes(args, kwargs, result)`` gives the span's computed bytes.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            stack.append(sid)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer._record((sid, parent, name, start, end, threading.get_ident(), 0,
                                time.thread_time() - cpu), None)
                raise
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            stack.pop()
            size = nbytes(args, kwargs, result) if nbytes is not None else 0
            distinct = key(args, kwargs) if key is not None else None
            tracer._record((sid, parent, name, start, end, threading.get_ident(), size, cpu),
                           distinct)
            return result

        self._wrapped[id(fn)] = (fn, wrapper)
        return wrapper

    def _record(self, span: tuple, distinct) -> None:
        with self._lock:
            self.spans.append(span)
            if distinct is not None:
                self.keys[span[2]].add(distinct)

    def count(self, name: str, fn):
        """Return a wrapper that only counts calls of ``fn`` (no span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        self._wrapped[id(fn)] = (fn, wrapper)
        return wrapper

    def _dense_cache(self, prop: cached_property, owner, attr: str) -> cached_property:
        tracer = self
        compute = prop.func

        @functools.wraps(compute)
        def build(grid):
            value = compute(grid)
            with tracer._lock:
                tracer.counts["grid.dense_bytes"] += _nbytes(value)
            return value

        new = cached_property(build)
        new.__set_name__(owner, attr)
        self._wrapped[id(prop)] = (prop, new)
        return new

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and rebind every reference to it."""
        from dualfrac import bounds, cli, fieldio, fixed_point, grid, poisson, problems, spectral

        targets = [
            (spectral.forward_transform, "spectral.forward_transform", None, None),
            (spectral.inverse_transform, "spectral.inverse_transform", None, None),
            (spectral.convolve, "spectral.convolve", None, None),
            (spectral.field_norms, NORMS, None, None),
            (spectral.vector_norms, NORMS, None, None),
            (spectral.spectrum_l2, NORMS, None, None),
            (poisson.solve_double_fractional, "poisson.solve_double_fractional", None, None),
            (poisson.solve_linear_system, "poisson.solve_linear_system", _linear_key, None),
            (poisson.regularity_check, "poisson.regularity_check", None, None),
            (poisson.box_length_sweep, "poisson.box_length_sweep", None, None),
            (bounds.build_bounds_context, "bounds.build_bounds_context", None, None),
            (bounds.kernel_constants, "bounds.kernel_constants", None, None),
            (bounds.c2_ball_norm, "bounds.c2_ball_norm", None, None),
            (problems.load_problem, "problems.load_problem", None, None),
            (problems.realize_gaussian, "problems.realize_gaussian", _gaussian_key, None),
            (fixed_point.apply_tau, "fixed_point.apply_tau", None, None),
            (fixed_point.solve_fixed_point, "fixed_point.solve_fixed_point", None, None),
            (fixed_point.system_residual, "fixed_point.system_residual", None, None),
            (fixed_point.sample_ball, "fixed_point.sample_ball", None, None),
            (fieldio.write_snapshot, "fieldio.write_snapshot", None, _snapshot_bytes),
            (cli.run_command, "cli.run_command", None, None),
            (cli.write_report, "cli.write_report", None, None),
        ]
        targets += [(handler, "cli.handler", None, None) for handler in cli._HANDLERS.values()]
        for fn, name, key, nbytes in targets:
            self.wrap(name, fn, key, nbytes)
        self._rebind_modules()
        for sub, handler in list(cli._HANDLERS.items()):
            cli._HANDLERS[sub] = self._wrapped[id(handler)][1]
        nl = problems.Nonlinearity
        nl.eval_components = self.wrap("problems.eval_components", nl.eval_components)
        grid.ScalarField.__post_init__ = self.count(
            "grid.field.constructs", grid.ScalarField.__post_init__
        )
        grid.Spectrum.__post_init__ = self.count(
            "grid.spectrum.constructs", grid.Spectrum.__post_init__
        )
        for attr, prop in list(vars(grid.Grid3).items()):
            if isinstance(prop, cached_property):
                setattr(grid.Grid3, attr, self._dense_cache(prop, grid.Grid3, attr))
        self._wrap_fft_modules()

    def _wrap_fft_modules(self) -> None:
        # numpy imports its fft submodule lazily, on first attribute access
        import numpy.fft  # noqa: F401

        for modname in FFT_MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            self._fft_modules.add(modname)
            for attr in FFT_NAMES:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                hit = self._wrapped.get(id(fn))
                if hit is None or hit[0] is not fn:
                    self.wrap("spectral.fft", fn, nbytes=_fft_bytes)
                setattr(mod, attr, self._wrapped[id(fn)][1])
        # dualfrac modules may also bind an entry point by name
        self._rebind_modules()

    def _rebind_modules(self) -> None:
        """Point every dualfrac module-level name bound to an original at its wrapper."""
        for mod in _dualfrac_modules():
            for attr, value in list(vars(mod).items()):
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # --- completeness ---------------------------------------------------------

    def unwrapped(self) -> list[str]:
        """Every place that still holds an unwrapped original; empty when complete."""
        problems_found = []

        def is_original(value) -> bool:
            hit = self._wrapped.get(id(value))
            return hit is not None and hit[0] is value

        for mod in _dualfrac_modules():
            for attr, value in vars(mod).items():
                if is_original(value):
                    problems_found.append(f"{mod.__name__}.{attr}")
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if is_original(v):
                            problems_found.append(f"{mod.__name__}.{attr}[{k!r}]")
                elif isinstance(value, type) and value.__module__.startswith("dualfrac"):
                    for cattr, cvalue in vars(value).items():
                        if is_original(cvalue):
                            problems_found.append(f"{mod.__name__}.{attr}.{cattr}")
        for modname in FFT_MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if modname not in self._fft_modules:
                problems_found.append(f"{modname} was imported after the tracer was installed")
                continue
            for attr in FFT_NAMES:
                if is_original(getattr(mod, attr, None)):
                    problems_found.append(f"{modname}.{attr}")
        return problems_found

    def finish(self) -> dict:
        """Hand back spans, counters and the completeness verdict."""
        with self._lock:
            return {
                "op": self.op_id,
                "spans": [list(s) for s in self.spans],
                "counts": dict(self.counts),
                "distinct": {name: len(keys) for name, keys in self.keys.items()},
                "unwrapped": self.unwrapped(),
            }
