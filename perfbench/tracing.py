"""Spans around the public entry points of each svplab module.

The tracer wraps each listed function from outside the package.  Several
modules bind entry points with ``from .x import y`` (runner, asymptotics,
energetics and zones do), so replacing the attribute on the defining module
alone would leave those names pointing at the original and their calls would
bypass the span without a warning.  ``install`` therefore rebinds every name,
in every loaded ``svplab`` module, that refers to a wrapped function, and
checks that no such reference is left.

A layer is an ``svplab`` module.  Unwrapped helpers count toward the layer of
the span they run in.  A span's self time is its duration minus the time
covered by its child spans; spans are kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time

ENTRY_POINTS = {
    "config": ("load_config", "parse_config"),
    "geometry": ("build_mesh",),
    "solver": ("solve",),
    "frequency": ("frequency_profile", "optimal_constant"),
    "energetics": ("energy", "energy_profile", "svp_check_dirichlet",
                   "svp_check_neumann", "svp_symmetric_check"),
    "zones": ("w1p_zone", "lp_zone", "sup_zone"),
    "asymptotics": ("cutoff_bound", "optimal_cutoff", "pl_check"),
    "report": ("write_json", "write_csv", "write_field_csv", "svg_semilog"),
    "runner": ("run",),
}
LAYERS = tuple(ENTRY_POINTS)
PACKAGE = "svplab"

# Per-layer metrics of a traced pass: unit, which way is better, the
# end-to-end metric a change to the layer should move, and the workloads
# where it shows.  config runs before the first op, so its time is
# config.parse_s rather than a share of the pass.
LAYER_METRICS = {
    "runner.self_s": ("s", "lower", "wall_s", "layer-p2-refine"),
    "config.parse_s": ("s", "lower", "setup_s", "all"),
    "geometry.self_s": ("s", "lower", "wall_s", "solve-sweep"),
    "geometry.nodes": ("count", "lower", "wall_s peak_rss_mb", "solve-sweep"),
    "solver.self_s": ("s", "lower", "wall_s", "solve-sweep layer-p2-refine"),
    "solver.solves": ("count", "lower", "wall_s", "solve-sweep layer-p2-refine"),
    "solver.outer_iters": ("count", "lower", "wall_s", "solve-sweep layer-p2-refine"),
    "solver.unconverged": ("count", "lower", "ok_ratio", "solve-sweep"),
    "solver.direct_solves": ("count", "lower", "wall_s peak_rss_mb", "solve-sweep"),
    "solver.cg_solves": ("count", "lower", "wall_s peak_rss_mb", "solve-sweep"),
    "frequency.self_s": ("s", "lower", "wall_s", "layer-p1.5 radial-pl"),
    "frequency.profile_s": ("s", "lower", "wall_s", "layer-p1.5 radial-pl"),
    "frequency.sections": ("count", "lower", "wall_s", "layer-p1.5 radial-pl"),
    "frequency.distinct_sections": ("count", "lower", "wall_s", "layer-p1.5 radial-pl"),
    "frequency.useful_ratio": ("ratio", "higher", "wall_s", "layer-p1.5 radial-pl"),
    "frequency.descent_iters": ("count", "lower", "wall_s", "layer-p1.5"),
    "frequency.residual_max": ("ratio", "lower", "oracle_rel_err", "layer-p1.5"),
    "frequency.optimal_constant_calls": ("count", "lower", "wall_s",
                                         "layer-p1.5 layer-p2-refine"),
    "frequency.optimal_constant_s": ("s", "lower", "wall_s", "layer-p1.5 layer-p2-refine"),
    "energetics.self_s": ("s", "lower", "wall_s", "layer-p2-refine"),
    "energetics.energy_calls": ("count", "lower", "wall_s", "layer-p2-refine"),
    "zones.self_s": ("s", "lower", "wall_s", "layer-p2-refine"),
    "zones.calls": ("count", "lower", "wall_s", "layer-p2-refine"),
    "asymptotics.self_s": ("s", "lower", "wall_s", "layer-p2-refine radial-pl"),
    "asymptotics.optimal_cutoff_s": ("s", "lower", "wall_s", "layer-p2-refine radial-pl"),
    "asymptotics.truncations": ("count", "lower", "wall_s", "radial-pl"),
    "report.self_s": ("s", "lower", "wall_s", "layer-p2-refine"),
    "report.files": ("count", "lower", "wall_s", "layer-p2-refine"),
    "report.bytes": ("B", "lower", "wall_s", "layer-p2-refine"),
    "bench.traced_wall_s": ("s", "lower", "none", "all"),
    "bench.remainder_s": ("s", "lower", "none", "all"),
    "bench.trace_overhead_s": ("s", "lower", "none", "all"),
}


class Span:
    __slots__ = ("layer", "name", "start", "end", "child", "parent")

    def __init__(self, layer, name, start, parent):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.parent = parent

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


class Tracer:
    """Records spans and result-derived counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.distinct_sections = set()
        self._stack = []
        self._rebound = []

    # -- installing ---------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                orig = getattr(module, name)
                wrappers[id(orig)] = (orig, self._wrap(layer, name, orig))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))
        originals = {id(orig) for orig, _ in wrappers.values()}
        for module in self._modules():
            for attr, value in vars(module).items():
                if id(value) in originals:
                    raise RuntimeError(f"{module.__name__}.{attr} still bypasses its span")
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, layer, name, fn):
        observe = getattr(self, f"_observe_{name}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, name, time.perf_counter(), parent)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child += span.duration
                self.spans.append(span)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- counts read from results -------------------------------------------

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _observe_build_mesh(self, args, kwargs, mesh):
        self._add("geometry.nodes", mesh.n_nodes)

    def _observe_solve(self, args, kwargs, field_):
        diag = field_.diagnostics
        self._add("solver.solves", 1)
        self._add("solver.outer_iters", diag.outer_iterations)
        self._add("solver.unconverged", int(not diag.converged))
        self._add("solver.direct_solves", int(diag.linear_solver == "direct"))
        self._add("solver.cg_solves", int(diag.linear_solver.startswith("cg")))

    def _observe_frequency_profile(self, args, kwargs, pairs):
        mesh, p, kind = args[:3]
        dom = mesh.domain
        radial = dom.axial_kind == "radial"
        grid = tuple(len(ax) for ax in mesh.grid.axes[:-1])
        for tau, res in pairs:
            self._add("frequency.sections", 1)
            self._add("frequency.descent_iters", res.iterations)
            self.counts["frequency.residual_max"] = max(
                self.counts.get("frequency.residual_max", 0.0), res.residual)
            self.distinct_sections.add((kind, float(p), dom.base, dom.lateral_bc, grid,
                                        float(tau) if radial else None))

    def _observe_pl_check(self, args, kwargs, report):
        self._add("asymptotics.truncations", len(report.rows))

    def _observe_run(self, args, kwargs, result):
        self._add("report.files", len(result.files))
        self._add("report.bytes", sum(os.path.getsize(f) for f in result.files))

    # -- summaries ----------------------------------------------------------

    def reached(self):
        """Qualified names of the entry points called so far."""
        return {f"{s.layer}.{s.name}" for s in self.spans}

    def span_rows(self):
        """Spans as [layer, name, start, end, parent index] rows."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s.layer, s.name, s.start, s.end, index.get(id(s.parent))]
                for s in self.spans]

    def reset(self):
        self.spans = []
        self.counts = {}
        self.distinct_sections = set()

    def layer_metrics(self):
        """Per-layer self time and counts over the spans recorded so far."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        inclusive = {"frequency_profile": 0.0, "optimal_constant": 0.0, "optimal_cutoff": 0.0}
        calls = {}
        for s in self.spans:
            out[f"{s.layer}.self_s"] += s.self_time
            calls[s.name] = calls.get(s.name, 0) + 1
            # the time spent under an entry point, counted once when it nests
            if s.name in inclusive and not _nested_in(s, s.name):
                inclusive[s.name] += s.duration
        keys = ("geometry.nodes", "solver.solves", "solver.outer_iters", "solver.unconverged",
                "solver.direct_solves", "solver.cg_solves", "frequency.sections",
                "frequency.descent_iters", "frequency.residual_max",
                "asymptotics.truncations", "report.files", "report.bytes")
        out.update({k: self.counts.get(k, 0) for k in keys})
        sections = out["frequency.sections"]
        out["frequency.distinct_sections"] = len(self.distinct_sections)
        out["frequency.useful_ratio"] = (len(self.distinct_sections) / sections
                                         if sections else 1.0)
        out["frequency.profile_s"] = inclusive["frequency_profile"]
        out["frequency.optimal_constant_calls"] = calls.get("optimal_constant", 0)
        out["frequency.optimal_constant_s"] = inclusive["optimal_constant"]
        out["energetics.energy_calls"] = calls.get("energy", 0)
        out["zones.calls"] = sum(calls.get(n, 0) for n in ENTRY_POINTS["zones"])
        out["asymptotics.optimal_cutoff_s"] = inclusive["optimal_cutoff"]
        out["config.parse_s"] = sum(s.duration for s in self.spans
                                    if s.layer == "config" and s.parent is None)
        return out


def _nested_in(span, name):
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False
