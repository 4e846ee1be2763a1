"""Spans and counts around the public functions of every ``qcflow`` module.

The tracer only observes.  It wraps each public function defined in a
``qcflow`` module, rebinds the wrapper in every ``qcflow`` namespace that
holds the original (``qcflow.energy.grad_h`` as well as
``qcflow.operators.grad_h``), keeps spans and counts in memory, and puts the
original bindings back in ``uninstall``.  Two methods are wrapped as well:
``LatticeGrid.step_permutation``, whose every call feeds one whole-field
``np.take``, and ``FlowQuantities.__init__``, to count instances.

A span is ``[name, start, end, parent]``; a layer's self time is its span
durations minus the time covered by its direct child spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import weakref
from collections import Counter, defaultdict

MODULES = ("algebra", "lattice", "operators", "identities", "flow", "energy",
           "suites", "cli")

# computed, not measured: one gather reads an int64 index and a float64 value
# and writes a float64 per grid point
GATHER_BYTES_PER_POINT = 24

# calls whose first argument or result feeds a count (Tracer._observe)
OBSERVED = ("energy.energy", "energy.energy_series", "flow.evolve",
            "lattice.save_field")

OPERATOR_FUNCTIONS = ("grad_h", "sub_laplacian", "hessian_data",
                      "third_contractions", "p_form", "p_functional")

# (name, unit) of every per-layer metric, in report order; BENCHMARK.json
# lists the same names
LAYER_METRICS = (
    [("lattice.gathers", "count"),
     ("lattice.gather_bytes", "B"),
     ("lattice.shift.self_s", "s"),
     ("lattice.perm_build_s", "s"),
     ("lattice.make_grid.calls", "count"),
     ("lattice.save_field_s", "s"),
     ("lattice.snapshot_bytes", "B"),
     ("lattice.integrate.calls", "count"),
     ("lattice.integrate_s", "s"),
     ("flow.heat_step.calls", "count"),
     ("flow.heat_step_s", "s"),
     ("flow.heat_step_ms_p50", "ms"),
     ("flow.evolve.self_s", "s"),
     ("flow.records_held", "count"),
     ("flow.record_bytes", "B"),
     ("flow.initial_field_s", "s")]
    + [(f"operators.{fn}.{kind}", unit) for fn in OPERATOR_FUNCTIONS
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("identities.FlowQuantities.instances", "count"),
       ("energy.derf_rhs.self_s", "s"),
       ("energy.energy.calls", "count"),
       ("energy.energy_useful_ratio", "ratio"),
       ("energy.gathers_per_record", "count"),
       ("energy.energy_series_s", "s"),
       ("energy.monotonicity_verdict_s", "s"),
       ("cli.cmd_run.self_s", "s"),
       ("suites.theorem_suite.self_s", "s"),
       ("algebra.calls", "count")]
    + [(f"{mod}.{kind}", unit) for mod in MODULES if mod != "algebra"
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("trace.run_s", "s"),
       ("trace_overhead_frac", "ratio")]
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [importlib.import_module(f"{package.__name__}.{name}")
                        for name in MODULES]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self.gathers = 0
        self.gathers_in_series = 0
        self.gather_points = 0
        self.perm_build_s = 0.0
        self.series_records = 0
        self.records_held = 0
        self.record_points = 0
        self.snapshot_bytes = 0
        self.flow_quantities = 0
        self._energy_inputs: dict[int, weakref.ref] = {}
        self.energy_distinct = 0

    # spans ---------------------------------------------------------------
    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._active[name] += 1
        return idx

    def _exit(self, idx: int):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    # observers of particular calls ----------------------------------------
    def _observe(self, name, first, result):
        if name == "energy.energy":
            values = first.values
            ref = self._energy_inputs.get(id(values))
            if ref is None or ref() is not values:
                self._energy_inputs[id(values)] = weakref.ref(values)
                self.energy_distinct += 1
        elif name == "energy.energy_series":
            self.series_records += len(first)
        elif name == "flow.evolve":
            if len(result) > self.records_held:
                self.records_held = len(result)
                self.record_points = len(result) * result[0].u.values.size
        elif name == "lattice.save_field":
            self.snapshot_bytes += first.values.nbytes

    def _wrap_function(self, name, fn):
        tracer = self
        first_param = next(iter(inspect.signature(fn).parameters), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if name in OBSERVED:
                tracer._observe(name, args[0] if args else kwargs[first_param], result)
            return result

        return wrapper

    def _wrap_step_permutation(self, fn):
        tracer = self

        def step_permutation(grid, a, direction):
            cached = (a, direction) in grid._perm_cache
            idx = tracer._enter("lattice.LatticeGrid.step_permutation")
            try:
                return fn(grid, a, direction)
            finally:
                tracer._exit(idx)
                span = tracer.spans[idx]
                tracer.gathers += 1
                tracer.gather_points += grid.size
                if tracer._active["energy.energy_series"]:
                    tracer.gathers_in_series += 1
                if not cached:
                    tracer.perm_build_s += span[2] - span[1]

        return step_permutation

    def _wrap_flow_quantities_init(self, fn):
        tracer = self

        def __init__(obj, *args, **kwargs):
            tracer.flow_quantities += 1
            fn(obj, *args, **kwargs)

        return __init__

    # install / uninstall ---------------------------------------------------
    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        namespaces = [self.package] + self.modules
        for mod, short in zip(self.modules, MODULES):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap_function(f"{short}.{attr}", obj)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._rebind(ns, attr, wrapper)
        by_name = dict(zip(MODULES, self.modules))
        grid_cls = by_name["lattice"].LatticeGrid
        self._rebind(grid_cls, "step_permutation",
                     self._wrap_step_permutation(grid_cls.step_permutation))
        fq_cls = by_name["identities"].FlowQuantities
        self._rebind(fq_cls, "__init__",
                     self._wrap_flow_quantities_init(fq_cls.__init__))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # per-layer metrics -----------------------------------------------------
    def layer_metrics(self) -> dict:
        """Every LAYER_METRICS value except the two that need an untraced run."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        durations: defaultdict = defaultdict(list)
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur
            durations[name].append(dur)
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur

        def module_sum(table, mod):
            return sum(v for k, v in table.items() if k.split(".")[0] == mod)

        heat = durations.get("flow.heat_step", [])
        energy_calls = calls["energy.energy"]
        m = {
            "lattice.gathers": self.gathers,
            "lattice.gather_bytes": GATHER_BYTES_PER_POINT * self.gather_points,
            "lattice.shift.self_s": self_s["lattice.shift"],
            "lattice.perm_build_s": self.perm_build_s,
            "lattice.make_grid.calls": calls["lattice.make_grid"],
            "lattice.save_field_s": total["lattice.save_field"],
            "lattice.snapshot_bytes": self.snapshot_bytes,
            "lattice.integrate.calls": calls["lattice.integrate"],
            "lattice.integrate_s": total["lattice.integrate"],
            "flow.heat_step.calls": calls["flow.heat_step"],
            "flow.heat_step_s": total["flow.heat_step"],
            "flow.heat_step_ms_p50": 1e3 * statistics.median(heat) if heat else 0.0,
            "flow.evolve.self_s": self_s["flow.evolve"],
            "flow.records_held": self.records_held,
            "flow.record_bytes": 8 * self.record_points,
            "flow.initial_field_s": total["flow.initial_field"],
        }
        for fn in OPERATOR_FUNCTIONS:
            m[f"operators.{fn}.calls"] = calls[f"operators.{fn}"]
            m[f"operators.{fn}.self_s"] = self_s[f"operators.{fn}"]
        m.update({
            "identities.FlowQuantities.instances": self.flow_quantities,
            "energy.derf_rhs.self_s": self_s["energy.derf_rhs"],
            "energy.energy.calls": energy_calls,
            "energy.energy_useful_ratio":
                self.energy_distinct / energy_calls if energy_calls else 0.0,
            "energy.gathers_per_record":
                self.gathers_in_series / self.series_records if self.series_records else 0.0,
            "energy.energy_series_s": total["energy.energy_series"],
            "energy.monotonicity_verdict_s": total["energy.monotonicity_verdict"],
            "cli.cmd_run.self_s": self_s["cli.cmd_run"],
            "suites.theorem_suite.self_s": self_s["suites.theorem_suite"],
            "algebra.calls": module_sum(calls, "algebra"),
        })
        for mod in MODULES:
            if mod != "algebra":
                m[f"{mod}.calls"] = module_sum(calls, mod)
                m[f"{mod}.self_s"] = module_sum(self_s, mod)
        return m
