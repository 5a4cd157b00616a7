"""Span tracer for the traced benchmark run.

``instrument`` replaces every public function of the layer modules, under
every name a ``levybridge`` module binds it to, by a wrapper that opens a
span.  It also counts ``scipy.integrate.quad`` calls and their integrand
evaluations, attributed to the innermost open span, and the integrand
evaluations of ``integrate_levy`` per noise law.  Nothing here changes what
the library computes; ``instrument`` returns a function that restores every
replaced attribute.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import warnings
from collections import Counter

import numpy as np
from scipy import integrate

import levybridge
from levybridge.mc import McReport
from levybridge.numerics import QuadratureError

LAYERS = ("sampling", "numerics", "pricing", "default_pricing", "laws", "mc", "cli")

# Leaf density kernels run once per integrand evaluation: a span each would
# cost more than the kernel, so their time falls to the enclosing span.
UNTRACED = frozenset({"numerics.gauss_density", "numerics.gamma_density", "numerics.poisson_pmf"})

ROOT_LAYER = "bench"


class Tracer:
    """In-memory spans with self time and work counts per layer.

    A span's self time is its duration minus the durations of its direct
    child spans.  ``calls`` counts every call per function, ``entries``
    counts calls into a layer from another layer (or from the benchmark),
    ``nested`` counts calls per (open ancestor function, function) and
    ``counts`` holds the other work counters by ``<layer>.<name>``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, parent span index, start, end]
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._child: list[float] = []
        self._open: Counter = Counter()
        self.calls: Counter = Counter()
        self.binding_calls: Counter = Counter()
        self.entries: Counter = Counter()
        self.nested: Counter = Counter()
        self.self_time: Counter = Counter()
        self.fn_self_time: Counter = Counter()
        self.counts: Counter = Counter()

    def current_layer(self) -> str:
        return self._layers[-1] if self._layers else ROOT_LAYER

    def enter(self, name: str, layer: str) -> None:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        if self.current_layer() != layer:
            self.entries[layer] += 1
        self.calls[name] += 1
        for ancestor in self._open:
            self.nested[(ancestor, name)] += 1
        self._open[name] += 1
        self._stack.append(len(self.spans))
        self._layers.append(layer)
        self._child.append(0.0)
        self.spans.append([name_id, parent, self.clock(), None])

    def exit(self) -> None:
        end = self.clock()
        span = self.spans[self._stack.pop()]
        layer = self._layers.pop()
        child = self._child.pop()
        span[3] = end
        duration = end - span[2]
        name = self.names[span[0]]
        self.self_time[layer] += duration - child
        self.fn_self_time[name] += duration - child
        if self._child:
            self._child[-1] += duration
        self._open[name] -= 1
        if not self._open[name]:
            del self._open[name]

    def parent_layer(self) -> str:
        """Layer of the span that encloses the innermost open span."""
        return self._layers[-2] if len(self._layers) > 1 else ROOT_LAYER

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i, (name_id, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{self.names[name_id]},{start!r},{end!r}\n")


def _arrays(out) -> list:
    items = out if isinstance(out, tuple) else (out,)
    return [a for a in items if isinstance(a, np.ndarray)]


def _mc_reports(out) -> list:
    items = out if isinstance(out, list) else [out]
    return [r for r in items if isinstance(r, McReport)]


def _make_wrapper(tracer: Tracer, fn, name: str, layer: str, binding: str):
    """Span wrapper with the per-function work counters."""
    is_levy = name == "numerics.integrate_levy"
    is_node = name in ("pricing.posterior_mean", "default_pricing.survival_posterior_mean")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if is_levy:
            args, kwargs = _count_levy_integrand(tracer, args, kwargs)
        tracer.enter(name, layer)
        tracer.binding_calls[binding] += 1
        outer = tracer.parent_layer()
        if layer == "sampling" and outer == "mc":
            tracer.counts["mc.batches"] += 1
        if is_node and outer == "mc":
            tracer.counts["mc.posterior_nodes"] += 1
        try:
            out = fn(*args, **kwargs)
        except QuadratureError as exc:
            if not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                tracer.counts["numerics.quad_errors"] += 1
            raise
        finally:
            tracer.exit()
        if layer == "sampling":
            arrays = _arrays(out)
            tracer.counts["sampling.bytes_computed"] += sum(a.nbytes for a in arrays if a.flags.owndata)
            if outer != "sampling" and arrays and arrays[0].ndim == 2:
                rows, cols = arrays[0].shape
                tracer.counts["sampling.path_steps"] += rows * (cols - 1)
        elif layer == "mc" and outer != "mc":
            reports = _mc_reports(out)
            tracer.counts["mc.checks_run"] += len(reports)
            tracer.counts["mc.checks_passed"] += sum(bool(r.passed) for r in reports)
        return out

    return traced


def _count_levy_integrand(tracer: Tracer, args, kwargs):
    """Wrap the integrand of integrate_levy(f, law, t, q) to count evaluations per law."""
    args = list(args)
    law = args[1] if len(args) > 1 else kwargs["law"]
    key = f"numerics.integrand_evals.{law.kind}"
    f = args[0] if args else kwargs["f"]

    def counted(y):
        tracer.counts[key] += 1
        return f(y)

    if args:
        args[0] = counted
    else:
        kwargs["f"] = counted
    return tuple(args), kwargs


def _counting_quad(tracer: Tracer, quad):
    @functools.wraps(quad)
    def traced_quad(func, *args, **kwargs):
        layer = tracer.current_layer()
        tracer.counts[f"{layer}.quad_calls"] += 1
        key = f"{layer}.quad_evals"

        def counted(*a):
            tracer.counts[key] += 1
            return func(*a)

        return quad(counted, *args, **kwargs)

    return traced_quad


def _layer_functions(module, layer: str):
    """(owner, attribute, qualified name) for the public functions and methods defined in module."""
    found = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, attr, f"{layer}.{attr}"))
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    found.append((obj, meth, f"{layer}.{obj.__name__}.{meth}"))
    return [item for item in found if item[2] not in UNTRACED]


def instrument(tracer: Tracer):
    """Wrap the layer functions everywhere levybridge binds them; returns the undo function."""
    patched = []
    originals = {}
    for layer in LAYERS:
        module = importlib.import_module(f"levybridge.{layer}")
        for owner, attr, name in _layer_functions(module, layer):
            fn = getattr(owner, attr) if owner is module else vars(owner)[attr]
            originals[id(fn)] = (fn, name, layer)
            if owner is not module:  # methods: one binding, on the class
                patched.append((owner, attr, fn))
                setattr(owner, attr, _make_wrapper(tracer, fn, name, layer, name))

    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "levybridge" or key.startswith("levybridge."))]
    for module in modules:
        short = module.__name__.rpartition(".")[2] if module is not levybridge else "levybridge"
        for attr, obj in list(vars(module).items()):
            hit = originals.get(id(obj))
            if hit is None or hit[0] is not obj:
                continue
            fn, name, layer = hit
            patched.append((module, attr, fn))
            setattr(module, attr, _make_wrapper(tracer, fn, name, layer, f"{short}.{attr}"))

    quad = integrate.quad
    integrate.quad = _counting_quad(tracer, quad)
    patched.append((integrate, "quad", quad))

    def undo():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return undo


@contextlib.contextmanager
def count_warnings(tracer: Tracer):
    """Count every warning raised inside the block into ``tracer.counts``, by category and layer."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")

        def show(message, category, *args, **kwargs):
            tracer.counts[f"warnings.{category.__name__}"] += 1
            tracer.counts[f"{tracer.current_layer()}.warnings"] += 1

        warnings.showwarning = show
        yield


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit) in report order
PER_LAYER = (
    ("sampling.self_s", "s"), ("sampling.calls", "count"), ("sampling.path_steps", "count"),
    ("sampling.bytes_computed", "bytes"),
    ("numerics.self_s", "s"), ("numerics.integrate_levy.calls", "count"),
    ("numerics.integrand_evals.gamma", "count"), ("numerics.integrand_evals.poisson", "count"),
    ("numerics.quad_calls", "count"), ("numerics.pcf.calls", "count"),
    ("numerics.evals_per_levy_call", "ratio"), ("numerics.warnings", "count"),
    ("numerics.quad_errors", "count"),
    ("pricing.self_s", "s"), ("pricing.likelihood_q.calls", "count"),
    ("pricing.option_value.calls", "count"), ("pricing.likelihood_per_option", "ratio"),
    ("pricing.psi.calls", "count"), ("pricing.levy_calls_per_psi", "ratio"),
    ("default_pricing.self_s", "s"), ("default_pricing.survival_kernel.calls", "count"),
    ("default_pricing.levy_calls", "count"),
    ("laws.tau_integrate.calls", "count"), ("laws.tau_integrate.self_s", "s"),
    ("mc.self_s", "s"), ("mc.posterior_nodes", "count"), ("mc.batches", "count"),
    ("mc.checks_run", "count"), ("mc.checks_passed", "count"),
    ("cli.self_s", "s"), ("cli.bytes_written", "bytes"),
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics by name as (value, unit)."""
    calls, counts, nested = tracer.calls, tracer.counts, tracer.nested
    levy = calls["numerics.integrate_levy"]
    evals = counts["numerics.integrand_evals.gamma"] + counts["numerics.integrand_evals.poisson"]
    options = calls["pricing.option_value"]
    psi = calls["pricing.transition_density_psi"]
    # D goes through log D for every nonzero order: count each evaluation once
    pcf = (calls["numerics.parabolic_cylinder_D"] + calls["numerics.parabolic_cylinder_log_D"]
           - nested[("numerics.parabolic_cylinder_D", "numerics.parabolic_cylinder_log_D")])
    values = {
        "sampling.self_s": tracer.self_time["sampling"],
        "sampling.calls": tracer.entries["sampling"],
        "sampling.path_steps": counts["sampling.path_steps"],
        "sampling.bytes_computed": counts["sampling.bytes_computed"],
        "numerics.self_s": tracer.self_time["numerics"],
        "numerics.integrate_levy.calls": levy,
        "numerics.integrand_evals.gamma": counts["numerics.integrand_evals.gamma"],
        "numerics.integrand_evals.poisson": counts["numerics.integrand_evals.poisson"],
        "numerics.quad_calls": counts["numerics.quad_calls"],
        "numerics.pcf.calls": pcf,
        "numerics.evals_per_levy_call": _ratio(evals, levy),
        "numerics.warnings": counts["warnings.IntegrationWarning"] + counts["warnings.RuntimeWarning"],
        "numerics.quad_errors": counts["numerics.quad_errors"],
        "pricing.self_s": tracer.self_time["pricing"],
        "pricing.likelihood_q.calls": calls["pricing.likelihood_q"],
        "pricing.option_value.calls": options,
        "pricing.likelihood_per_option": _ratio(
            nested[("pricing.option_value", "pricing.likelihood_q")], options),
        "pricing.psi.calls": psi,
        "pricing.levy_calls_per_psi": _ratio(
            nested[("pricing.transition_density_psi", "numerics.integrate_levy")], psi),
        "default_pricing.self_s": tracer.self_time["default_pricing"],
        "default_pricing.survival_kernel.calls": calls["default_pricing.survival_kernel"],
        "default_pricing.levy_calls": tracer.binding_calls["default_pricing.integrate_levy"],
        "laws.tau_integrate.calls": calls["laws.DefaultTimeLaw.integrate"],
        "laws.tau_integrate.self_s": tracer.fn_self_time["laws.DefaultTimeLaw.integrate"],
        "mc.self_s": tracer.self_time["mc"],
        "mc.posterior_nodes": counts["mc.posterior_nodes"],
        "mc.batches": counts["mc.batches"],
        "mc.checks_run": counts["mc.checks_run"],
        "mc.checks_passed": counts["mc.checks_passed"],
        "cli.self_s": tracer.self_time["cli"],
        "cli.bytes_written": counts["cli.bytes_written"],
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}
