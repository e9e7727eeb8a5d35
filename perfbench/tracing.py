"""In-memory span tracer for the traced benchmark run.

The tracer wraps public qdefect functions by rebinding the module
attributes through which the package's layers call one another (for
example ``qdefect.reduced.reduced_energy`` inside ``minimize`` and
``qdefect.render.eigen3`` inside ``glyph_svg``).  Every call through a
wrapped attribute records a span: name, start, end, parent span and the
benchmark operation that caused it.  Spans stay in memory; the per-layer
metrics are aggregated from them when the run ends.  Nothing is written
into qdefect's own output files.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

# Layer -> public functions whose calls are recorded as spans.  Every
# qdefect module namespace that binds one of these functions gets the
# wrapper, so calls between layers are seen whichever attribute they use.
TRACED = {
    "reduced": ("minimize", "continuation_in_b2", "reduced_energy", "ode_residual"),
    "field": (
        "lift",
        "random_perturbation",
        "second_variation",
        "energy_gap",
        "ldg_energy_2d",
        "ldg_energy_spectral",
        "el_residual_2d",
    ),
    "harmonic": ("explicit_profile", "dirichlet_energy_2d", "e0_energy"),
    "render": ("glyph_svg", "eigenvalue_chart_svg"),
    "tensor": ("eigen3",),
}
MODULES = ("qdefect", "reduced", "field", "harmonic", "render", "tensor", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int  # benchmark operation index within the pass


@dataclass
class SolvePhases:
    """Per-call split of ``minimize`` taken from its ``on_step`` events."""

    flow_accepted: int = 0
    flow_rejected: int = 0
    newton_iters: int = 0
    flow_s: float = 0.0
    newton_s: float = 0.0
    nonconverged: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    svg_bytes: int = 0
    sample_bytes: int = 0
    op: int = -1
    enabled: bool = False
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every module attribute that holds a traced function."""
        import importlib

        mods = [importlib.import_module("qdefect")]
        mods += [importlib.import_module(f"qdefect.{m}") for m in MODULES[1:]]
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(importlib.import_module(f"qdefect.{layer}"), name)
                wrapper = self._wrapper(f"{layer}.{name}", original)
                for mod in mods:
                    if getattr(mod, name, None) is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrapper(self, span_name: str, original):
        if span_name == "reduced.minimize":
            return self._minimize_wrapper(original)

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            idx = self.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if isinstance(result, str):  # SVG documents from the render layer
                self.svg_bytes += len(result)
            elif span_name == "field.random_perturbation":
                self.sample_bytes = max(self.sample_bytes, result.values.nbytes)
            return result

        traced.__wrapped__ = original
        return traced

    def _minimize_wrapper(self, original):
        import qdefect

        def traced(params, grid, *args, **kwargs):
            if not self.enabled or len(args) >= 6 or "on_step" in kwargs:
                return original(params, grid, *args, **kwargs)
            events = []

            def on_step(kind, _energy, _gn):
                events.append((kind, time.perf_counter()))

            idx = self.begin("reduced.minimize")
            t0 = self.spans[idx].start
            report = None
            try:
                result = original(params, grid, *args, on_step=on_step, **kwargs)
                report = result[1]
                return result
            except qdefect.NonConvergence as exc:
                report = exc.report
                raise
            finally:
                self.end(idx)
                self.phases.append(_phases(events, t0, report))

        traced.__wrapped__ = original
        return traced


def _phases(events, t0: float, report) -> SolvePhases:
    flow_t = [t for kind, t in events if kind == "flow"]
    newton_t = [t for kind, t in events if kind == "newton"]
    ph = SolvePhases(flow_accepted=len(flow_t), newton_iters=len(newton_t))
    flow_end = flow_t[-1] if flow_t else t0
    ph.flow_s = flow_end - t0
    ph.newton_s = (newton_t[-1] - flow_end) if newton_t else 0.0
    if report is not None:
        ph.flow_rejected = max(0, report.iterations - ph.flow_accepted - ph.newton_iters)
        ph.nonconverged = int(not report.converged)
    return ph


def aggregate(tracer: Tracer) -> dict:
    """Totals per span name: calls, inclusive seconds and self seconds."""
    child = defaultdict(float)
    for sp in tracer.spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.end - sp.start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, sp in enumerate(tracer.spans):
        row = out[sp.name]
        dur = sp.end - sp.start
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child[i]
    return dict(out)


def count_children(tracer: Tracer, parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans opened directly under ``parent_name``."""
    spans = tracer.spans
    return sum(
        1
        for sp in spans
        if sp.name == child_name and sp.parent >= 0 and spans[sp.parent].name == parent_name
    )
