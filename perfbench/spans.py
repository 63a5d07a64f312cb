"""In-memory spans around kerrcat's public functions, and the per-layer
metrics derived from them.

A function is traced by replacing it, in every kerrcat module that holds a
reference to it, with a wrapper: callers find the wrapper at the module
attribute they look the function up through (``kerrcat.dynamics.lb_step``,
``kerrcat.kernels._lb_rhs``, ...). The program itself is not changed.

Three kinds of wrapper:

* a span records name, parent, start and end of each call;
* a leaf adds its call count and time to the enclosing span instead of
  keeping one span per call. The right-hand-side evaluations are leaves:
  they run millions of times and have no children;
* a counter adds a quantity (bytes written) to the enclosing span and
  takes no time of its own.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (module, attribute) of each traced function, with the layer name its
# metrics carry.
SPANS = [
    ("kernels", "lb_step", "kernels.lb_step"),
    ("kernels", "se_step", "kernels.se_step"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("dynamics", "evolve_ket", "dynamics.evolve_ket"),
    ("dynamics", "liouvillian_matrix", "dynamics.liouvillian_matrix"),
    ("dynamics", "fit_exponential", "dynamics.fit_exponential"),
    ("dynamics", "build_full_dissipators", "dynamics.build_full_dissipators"),
    ("control", "x_gate_transfer", "control.x_gate_transfer"),
    ("control", "x_gate_schedule", "control.x_gate_schedule"),
    ("control", "simulate_z_rotation", "control.simulate_z_rotation"),
    ("control", "rabi_frequency", "control.rabi_frequency"),
    ("model", "kerr_cat_hamiltonian", "model.kerr_cat_hamiltonian"),
    ("catframe", "build_cat_frame", "catframe.build_cat_frame"),
    ("fock", "wigner_grid", "fock.wigner_grid"),
    ("microwave", "sweep", "microwave.sweep"),
    ("measurement", "qndness", "measurement.qndness"),
    ("measurement", "simulate_readout", "measurement.simulate_readout"),
    ("measurement", "tomography_pipeline", "measurement.tomography_pipeline"),
    ("experiments", "RunContext.write_csv", "experiments.write_csv"),
    ("experiments", "RunContext.write_json", "experiments.write_json"),
]
LEAVES = [
    ("kernels", "_lb_rhs", "kernels.lb_rhs"),
    ("kernels", "_se_rhs", "kernels.se_rhs"),
]
COUNTERS = [
    ("experiments", "RunContext._write_bytes", "experiments.artifact_bytes"),
]
# Each stepper and the right-hand side it evaluates.
STEPPERS = {"kernels.lb_step": "kernels.lb_rhs", "kernels.se_step": "kernels.se_rhs"}
# Dormand-Prince with FSAL: one RHS call on entry to the stepper, six per
# attempted step and one more after each rejected step.
RHS_PER_STEP = 6


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0
    leaf: dict = field(default_factory=dict)  # leaf name -> [calls, seconds]
    counts: dict = field(default_factory=dict)  # quantity -> total

    def as_json(self) -> list:
        return [self.name, self.parent, self.start, self.end, self.leaf, self.counts]


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.outside = Span("(outside spans)", -1, 0.0)
        self._undo: list = []

    # ---- recording

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, parent, self.clock()))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self.stack.pop()

    def current(self) -> Span:
        return self.spans[self.stack[-1]] if self.stack else self.outside

    def span_wrapper(self, name: str, fn):
        tracer = self
        stepper = name in STEPPERS

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if stepper:
                # (state, h_next, status, nsteps) for a call (state, t0, t1, ...)
                counts = tracer.spans[idx].counts
                counts["steps"] = int(out[3])
                counts["simulated_us"] = float(args[2] - args[1]) if out[2] == 0 else 0.0
            return out
        return traced

    def leaf_wrapper(self, name: str, fn):
        tracer, clock = self, self.clock

        def traced(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            rec = tracer.current().leaf.setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += dt
            return out
        return traced

    def counter_wrapper(self, name: str, fn):
        tracer = self

        def counted(ctx, fname, data):
            counts = tracer.current().counts
            counts[name] = counts.get(name, 0) + len(data)
            return fn(ctx, fname, data)
        return counted

    # ---- installing the wrappers

    def install(self, package) -> None:
        """Wrap every traced function of the imported kerrcat package."""
        for table, make in ((SPANS, self.span_wrapper), (LEAVES, self.leaf_wrapper),
                            (COUNTERS, self.counter_wrapper)):
            for module, attr, name in table:
                mod = sys.modules[f"{package.__name__}.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, make(name, orig))
                    self._undo.append((cls, meth, orig))
                else:
                    orig = getattr(mod, attr)
                    self._replace_everywhere(package, orig, make(name, orig))

    def _replace_everywhere(self, package, orig, wrapped) -> None:
        prefix = package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


# ----------------------------------------------------------------- metrics

def covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list) -> list:
    """Per span: its duration minus the time its child spans and leaf calls
    cover."""
    children: dict = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        inner = covered(children.get(i, [])) + sum(sec for _, sec in s.leaf.values())
        out.append((s.end - s.start) - inner)
    return out


def layer_metrics(tracer: Tracer, rhs_counted: bool) -> dict:
    """name -> (value, unit) for every traced layer.

    rhs_counted is False when the kernels are compiled and the RHS wrappers
    never run; the RHS-derived numbers are then left out.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    m: dict = {}
    for _, _, name in SPANS:
        idx = [i for i, s in enumerate(spans) if s.name == name]
        m[f"{name}.calls"] = (len(idx), "count")
        m[f"{name}.self_s"] = (sum(selfs[i] for i in idx), "s")
    if rhs_counted:
        for _, _, name in LEAVES:
            recs = [s.leaf[name] for s in spans + [tracer.outside] if name in s.leaf]
            m[f"{name}.calls"] = (sum(r[0] for r in recs), "count")
            m[f"{name}.self_s"] = (sum(r[1] for r in recs), "s")
    for stepper, rhs in STEPPERS.items():
        own = [s for s in spans if s.name == stepper]
        attempted = sum(s.counts["steps"] for s in own)
        simulated = sum(s.counts["simulated_us"] for s in own)
        m[f"{stepper}.mean_step_us"] = (simulated / attempted if attempted else 0.0, "us")
        if rhs_counted:
            rhs_calls = sum(s.leaf.get(rhs, [0, 0.0])[0] for s in own)
            rejected = rejected_steps(rhs_calls, len(own), attempted)
            m[f"{stepper}.steps_accepted"] = (attempted - rejected, "count")
            m[f"{stepper}.steps_rejected"] = (rejected, "count")
    for _, _, name in COUNTERS:
        m[name] = (sum(s.counts.get(name, 0) for s in spans + [tracer.outside]), "bytes")
    return m


def rejected_steps(rhs_calls: int, stepper_calls: int, attempted: int) -> int:
    """Rejections implied by the RHS count: rhs = calls + 6 attempted + rejected."""
    return rhs_calls - stepper_calls - RHS_PER_STEP * attempted
