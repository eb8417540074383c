"""In-memory span recorder that times kgbound's layers from outside.

During a traced pass the recorder replaces selected public functions of the
kgbound modules with timing wrappers, and puts the originals back afterwards.
kgbound's modules call each other through module globals and attributes, so
a wrapped function is seen by every caller inside the package too.  Nothing
in the package itself is changed.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import time
from dataclasses import dataclass

# Public functions wrapped per layer (kgbound module name -> attributes).
LAYERS = {
    "oracle": ("eigen_lowest", "solve_modelA", "solve_modelB"),
    "coulomb_mixed": ("spectrum", "candidate_energies", "validate"),
    "scalar_linear": ("spectrum", "energy_squared"),
    "wavefunctions": ("norm_quadrature", "build_scalar"),
    "nu": ("branches", "solve_k"),
    "cli": ("main",),
}

# Per-layer metrics reported by a traced run, with their units.  Counts and
# times are totals over the traced pass unless the name says per level.
PER_LAYER_UNITS = {
    "oracle.eigen_lowest.calls": "count",
    "oracle.eigen_lowest.busy_s": "s",
    "oracle.eigen_lowest.node_checks": "count",
    "oracle.eigen_lowest.points": "count",
    "oracle.eigen_lowest.bytes_computed": "B",
    "oracle.eigensolves_per_level": "count/level",
    "oracle.evals_per_level": "count/level",
    "oracle.eigen_lowest_share": "ratio",
    "oracle.solve_modelA.calls": "count",
    "oracle.solve_modelA.self_s": "s",
    "oracle.solve_modelB.calls": "count",
    "oracle.solve_modelB.self_s": "s",
    "oracle.no_bracket": "count",
    "oracle.convergence_failures": "count",
    "oracle.max_rel_dev": "ratio",
    "coulomb_mixed.spectrum.calls": "count",
    "coulomb_mixed.spectrum.self_s": "s",
    "coulomb_mixed.candidate_energies.calls": "count",
    "coulomb_mixed.validate.calls": "count",
    "coulomb_mixed.bound_fraction": "ratio",
    "scalar_linear.spectrum.calls": "count",
    "scalar_linear.spectrum.self_s": "s",
    "scalar_linear.energy_squared.calls": "count",
    "wavefunctions.norm_quadrature.calls": "count",
    "wavefunctions.norm_quadrature.busy_s": "s",
    "wavefunctions.build_scalar.self_s": "s",
    "nu.branches.calls": "count",
    "nu.branches.self_s": "s",
    "nu.solve_k.calls": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_out": "B",
    "trace.levels_per_s": "1/s",
    "trace.untraced_levels_per_s": "1/s",
    "trace.overhead_pct": "%",
}

EIGEN = "oracle.eigen_lowest"
SOLVES = ("oracle.solve_modelA", "oracle.solve_modelB")
BYTES_PER_POINT = 16  # one float64 diagonal and one off-diagonal entry


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a request root
    request: int
    error: str | None = None
    info: object = None  # per-function detail, see NOTES


def _eigen_note(args, kwargs, result):
    """(grid points, check_nodes) of an eigen_lowest call."""
    check = kwargs.get("check_nodes", args[2] if len(args) > 2 else True)
    return args[0].grid.points, bool(check)


def _validate_note(args, kwargs, result):
    return result is not None and result.status == "bound"


NOTES = {EIGEN: _eigen_note, "coulomb_mixed.validate": _validate_note}


class Recorder:
    """Collects spans; records only while a request is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request: int | None = None

    @contextlib.contextmanager
    def request(self, request_id: int):
        self._request = request_id
        try:
            yield
        finally:
            self._request = None
            self._stack.clear()

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if note is not None:
                    span.info = note(args, kwargs, result)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in LAYERS for the duration of the block."""
        originals = []
        try:
            for module_name, attrs in LAYERS.items():
                module = importlib.import_module(f"kgbound.{module_name}")
                for attr in attrs:
                    fn = getattr(module, attr)
                    originals.append((module, attr, fn))
                    setattr(module, attr, self.wrap(f"{module_name}.{attr}", fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.request, s.error]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass, keyed by metric name."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    errors: dict[tuple[str, str], int] = {}
    for s, self_s in zip(spans, self_times(spans)):
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + self_s
        if s.error:
            errors[s.name, s.error] = errors.get((s.name, s.error), 0) + 1
    eigen = [s.info for s in spans if s.name == EIGEN]
    points = sum(p for p, _ in eigen)
    node_checks = sum(1 for _, check in eigen if check)
    levels = sum(calls.get(name, 0) for name in SOLVES)
    solve_s = sum(busy.get(name, 0.0) for name in SOLVES)
    validated = [s.info for s in spans if s.name == "coulomb_mixed.validate"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "oracle.eigen_lowest.calls": calls.get(EIGEN, 0),
        "oracle.eigen_lowest.busy_s": busy.get(EIGEN, 0.0),
        "oracle.eigen_lowest.node_checks": node_checks,
        "oracle.eigen_lowest.points": points,
        "oracle.eigen_lowest.bytes_computed": BYTES_PER_POINT * points,
        "oracle.eigensolves_per_level": ratio(calls.get(EIGEN, 0), levels),
        "oracle.evals_per_level": ratio((len(eigen) - node_checks) / 2, levels),
        "oracle.eigen_lowest_share": ratio(busy.get(EIGEN, 0.0), solve_s),
        "oracle.no_bracket": errors.get(("oracle.solve_modelA", "NoBracket"), 0),
        "oracle.convergence_failures": errors.get((EIGEN, "ConvergenceFailure"), 0),
        "coulomb_mixed.bound_fraction": ratio(sum(validated), len(validated)),
    }
    for name in ("oracle.solve_modelA", "oracle.solve_modelB", "coulomb_mixed.spectrum",
                 "scalar_linear.spectrum", "nu.branches", "cli.main"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = own.get(name, 0.0)
    for name in ("coulomb_mixed.candidate_energies", "coulomb_mixed.validate",
                 "scalar_linear.energy_squared", "nu.solve_k"):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["wavefunctions.norm_quadrature.calls"] = calls.get("wavefunctions.norm_quadrature", 0)
    m["wavefunctions.norm_quadrature.busy_s"] = busy.get("wavefunctions.norm_quadrature", 0.0)
    m["wavefunctions.build_scalar.self_s"] = own.get("wavefunctions.build_scalar", 0.0)
    return m
