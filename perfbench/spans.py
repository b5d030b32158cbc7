"""Span tracing for the benchmark's traced run.

The tracer wraps the functions named in TRACED in every `fourphoton` module
namespace that binds them (for example `detection_amplitude` is bound in
`fourphoton.states`, `fourphoton.experiment` and `fourphoton` itself), records
one span per call (name, start, end, parent) in memory, and puts the originals
back afterwards. The package source is never modified.

A span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time

PACKAGE = "fourphoton"

# <layer>.<function>, where <layer> is the defining module of the package.
TRACED = (
    "states.detection_amplitude",
    "states.tensor",
    "states.DensityMatrix.validate",
    "elements.apply_pbs",
    "elements.dephase_by_distinguishability",
    "elements.distinguishability",
    "experiment.exact_outcome_probabilities",
    "experiment.ghz_after_postselection",
    "experiment.postselect_fourfold",
    "experiment.monte_carlo_counts",
    "experiment.derive_point_seed",
    "swap.phi_plus_via_45_coincidence",
    "swap.chsh_value",
    "swap.visibility_from_counts",
    "cli.main",
)

# Functions whose arguments and results are kept for the two waste ratios.
EXACT = "experiment.exact_outcome_probabilities"
POSTSELECT = "experiment.postselect_fourfold"
RECORDED = (EXACT, POSTSELECT)

# Functions reported per op (cli.main is reported per scenario instead).
REPORTED = tuple(name for name in TRACED if name != "cli.main")


class Tracer:
    """Collects spans while installed; `spans` holds [name, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[tuple] = []  # (name, args, kwargs, result) for RECORDED
        self.patched: list[tuple] = []  # (namespace, attribute, original)
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.calls.clear()

    def wrap(self, name: str, fn):
        spans, calls, stack = self.spans, self.calls, self._stack
        record = name in RECORDED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if record:
                    calls.append((name, args, kwargs, result))

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for name in TRACED:
            layer, *path = name.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{layer}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = vars(owner).get(path[-1]) if owner is not None else None
            if original is None:
                continue  # layer not imported in this workload
            wrapped = self.wrap(name, original)
            namespaces = modules + ([owner] if inspect.isclass(owner) else [])
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapped)
                        self.patched.append((ns, attr, original))

    def restore(self) -> None:
        for ns, attr, original in reversed(self.patched):
            setattr(ns, attr, original)
        self.patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, child)]


def _exact_key(signature, args, kwargs) -> tuple:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return tuple(repr(v) for v in bound.arguments.values())


def block_metrics(tracer: Tracer, ops: int) -> tuple[dict, float]:
    """Per-layer metrics of one traced block of `ops` ops, normalised per op,
    and the summed self time of all its spans in seconds."""
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = dict.fromkeys(TRACED, 0)
    busy: dict[str, float] = dict.fromkeys(TRACED, 0.0)
    for (name, *_), s in zip(tracer.spans, selfs):
        calls[name] += 1
        busy[name] += s
    out = {}
    for name in REPORTED:
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.self_ms"] = busy[name] * 1e3 / ops
    exact = [(a, k) for n, a, k, _ in tracer.calls if n == EXACT]
    distinct = set()
    if exact:
        sig = inspect.signature(sys.modules[f"{PACKAGE}.experiment"].exact_outcome_probabilities)
        distinct = {_exact_key(sig, a, k) for a, k in exact}
    out[f"{EXACT}.calls_per_distinct_input"] = len(exact) / len(distinct) if distinct else 0.0
    attempted = kept = 0.0
    for n, args, kwargs, result in tracer.calls:
        if n == POSTSELECT:
            state = args[0] if args else kwargs["state"]
            attempted += state.norm_sq()
            kept += result[1] if result is not None else 0.0
    out[f"{POSTSELECT}.kept_mass"] = kept / attempted if attempted else 0.0
    return out, sum(selfs)


def median_metrics(blocks: list[dict]) -> dict:
    return {k: statistics.median(b[k] for b in blocks) for k in blocks[0]}
