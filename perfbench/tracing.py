"""Span tracing of the tunneltimes layers, installed from outside the package.

The package imports its functions by name (``from .momentum import
momentum_spectrum``), so wrapping only the defining module would miss most
calls. ``install`` therefore replaces every binding of a public tunneltimes
function, in the defining module and in every module that imported it, with
one shared wrapper, plus a few public methods that carry real work. ``restore``
puts the original objects back.

Each call records a span ``[name, start, end, parent, run]`` in memory; the
spans are written out only when the run ends. A span's self time is its
duration minus the durations of its direct children, which cover the part of
its interval spent in other traced calls (the program is single-threaded, so
children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter, defaultdict

import numpy as np

MODULES = ("barrier", "numerics", "momentum", "depth", "times", "sweep", "cli")

#: Public methods that do real work; traced as ``<module>.<method>``.
METHODS = (
    ("barrier", "StationarySolution", "psi_barrier"),
    ("momentum", "MomentumSpectrum", "kinematics"),
    ("momentum", "MomentumSpectrum", "pdf"),
)


class Tracer:
    """In-memory span recorder plus counters taken at the same call sites."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, label=None, on_args=None, on_result=None):
        """A traced stand-in for ``fn``.

        ``label(args, kwargs)`` names the span per call, ``on_args(args,
        kwargs)`` may count or substitute arguments, ``on_result(result)``
        inspects the return value.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            span = [
                label(args, kwargs) if label else name,
                clock(),
                0.0,
                stack[-1] if stack else -1,
                self.run_id,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return functools.update_wrapper(traced, fn)

    def _hooks(self, name):
        """Counters and span labels for the call sites that need them."""
        counts = self.counts
        if name == "numerics.integrate":

            def count_integrand(args, kwargs):
                f = args[0]

                def counted(x):
                    counts["numerics.integrate.samples"] += np.size(x)
                    return f(x)

                return (counted, *args[1:]), kwargs

            return {"on_args": count_integrand}
        if name == "momentum.momentum_amplitude":

            def count_wavenumbers(args, kwargs):
                k = args[1] if len(args) > 1 else kwargs["wavenumber"]
                counts["momentum.amplitude.samples"] += np.size(k)
                return args, kwargs

            return {"on_args": count_wavenumbers}
        if name == "depth.penetration_depth":

            def count_missing(result):
                counts["depth.penetration_depth.none"] += result is None

            return {"on_result": count_missing}
        if name == "sweep.emit_figure_data":

            def per_figure(args, kwargs):
                which = args[1] if len(args) > 1 else kwargs["which"]
                return f"{name}.{which}"

            return {"label": per_figure}
        return {}

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every public tunneltimes function at every binding.

        Returns the replaced ``(owner, attribute, original)`` triples for
        ``restore``.
        """
        package = importlib.import_module("tunneltimes")
        modules = {}
        for m in MODULES:
            try:
                modules[m] = importlib.import_module(f"tunneltimes.{m}")
            except ModuleNotFoundError:  # a layer that no longer exists reads 0
                continue
        wrappers: dict[object, object] = {}
        replaced = []
        for owner in (package, *modules.values()):
            for attr, value in list(vars(owner).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                package_name, _, home = value.__module__.rpartition(".")
                if package_name != "tunneltimes" or home not in modules:
                    continue
                if value not in wrappers:
                    name = f"{home}.{value.__name__}"
                    wrappers[value] = self.wrap(name, value, **self._hooks(name))
                replaced.append((owner, attr, value))
                setattr(owner, attr, wrappers[value])
        for module, cls_name, method in METHODS:
            cls = getattr(modules.get(module), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                continue
            replaced.append((cls, method, original))
            setattr(cls, method, self.wrap(f"{module}.{method}", original))
        return replaced

    @staticmethod
    def restore(replaced) -> None:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)

    def summary(self, scale: list[float]) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Durations of spans in run ``r`` are multiplied by ``scale[r]``.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, parent, run), children in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += (end - start) * scale[run]
            entry["self_s"] += (end - start - children) * scale[run]
        return dict(out)

    def write_spans(self, path) -> None:
        """Spans as CSV, times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_us,end_us,parent,run\n")
            for name, start, end, parent, run in self.spans:
                out.write(
                    f"{name},{(start - origin) * 1e6:.3f},"
                    f"{(end - origin) * 1e6:.3f},{parent},{run}\n"
                )
