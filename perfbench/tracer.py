"""Tracing of crio from outside its sources: wraps public functions at run time.

Nothing under src/ is changed.  `Tracer.install()` replaces each traced
function at every module binding that holds it (``from .qcore import
apply_1q`` gives ``crio.protocol.apply_1q`` and ``crio.gm.apply_1q`` their
own bindings), plus three methods on ``Stator``; ``restore()`` puts every
original back.

A span is recorded per call: (id, parent id, name, start ns, end ns, item,
attrs).  Some calls open no span and are only counted in ``collapsed``:
a call of a function whose span name equals the innermost open span's
(``crio_channel_state`` calling ``build_graph_state`` is one graph-state
preparation), a call of a function that is traced only because cli calls
it, made inside a span of its own layer (``control_power_report`` calling
``success_rate``), and every call of a count-only function
(``gm.overlap``, whose calls give the sweep count).  Spans stay in memory
until the caller writes them.
"""
from __future__ import annotations

import ast
import contextlib
import inspect
import json
import sys
import time
from collections import Counter
from types import ModuleType

_now = time.perf_counter_ns

# Functions traced by name; the value is the span name.  Several functions
# may share a span name when they form one layer metric.
SPAN_NAMES = {
    ("crio.qcore", "apply_1q"): "qcore.apply_1q",
    ("crio.qcore", "apply_controlled_op"): "qcore.apply_controlled_op",
    ("crio.qcore", "apply_2q_cz"): "qcore.apply_2q_cz",
    ("crio.qcore", "measure"): "qcore.measure",
    ("crio.qcore", "measurement_probabilities"): "qcore.measurement_probabilities",
    ("crio.qcore", "fidelity_up_to_phase"): "qcore.fidelity",
    ("crio.qcore", "reduced_density"): "qcore.fidelity",
    ("crio.graphstate", "build_graph_state"): "graphstate.prep",
    ("crio.graphstate", "crio_channel_state"): "graphstate.prep",
    ("crio.protocol", "run_crio"): "protocol.run",
    ("crio.protocol", "control_denial_report"): "protocol.run",
    ("crio.protocol", "run_checkpoints"): "protocol.run_checkpoints",
    ("crio.protocol", "symbolic_checkpoints"): "protocol.symbolic_checkpoints",
    ("crio.stator", "stator_from_state"): "stator.stator_from_state",
    ("crio.gm", "gm_optimize"): "gm.optimize",
    ("crio.povm", "outcome_probability"): "povm.outcome_probability",
    ("crio.povm", "control_power_report"): "povm.control_power_report",
    ("crio.cli", "main"): "cli.main",
}
COUNT_ONLY = {("crio.gm", "overlap"): "gm.overlap"}
STATOR_METHODS = {
    "as_matrix": "stator.as_matrix",
    "apply_control_unitary": "stator.transform",
    "project_control": "stator.transform",
}


def _state_bytes(args, kwargs) -> int:
    state = args[0] if args else kwargs["state"]
    return state.amplitudes.nbytes


def _kernel_attrs(args, kwargs, result):
    # bytes computed from vector sizes (input + output amplitudes), not measured traffic
    return {"bytes": _state_bytes(args, kwargs) + result.amplitudes.nbytes}


def _measure_attrs(args, kwargs, result):
    forced = args[3] if len(args) > 3 else kwargs.get("forced_outcome")
    return {"bytes": _state_bytes(args, kwargs) + result[1].amplitudes.nbytes,
            "forced": forced is not None}


def _probabilities_attrs(args, kwargs, result):
    return {"bytes": _state_bytes(args, kwargs)}


def _prep_attrs(args, kwargs, result):
    return {"amplitudes": int(result.amplitudes.size)}


def _run_attrs(args, kwargs, result):
    if hasattr(result, "guess_branches"):  # control-denial report
        return {"branches": sum(len(b) for b in result.guess_branches.values())}
    return {"branches": len(result.branches)}


def _gm_attrs(args, kwargs, result):
    return {"restarts": int(result.restarts_used)}


ATTRS = {
    "qcore.apply_1q": _kernel_attrs,
    "qcore.apply_controlled_op": _kernel_attrs,
    "qcore.apply_2q_cz": _kernel_attrs,
    "qcore.measure": _measure_attrs,
    "qcore.measurement_probabilities": _probabilities_attrs,
    "graphstate.prep": _prep_attrs,
    "protocol.run": _run_attrs,
    "gm.optimize": _gm_attrs,
}


def cli_library_calls(cli_module: ModuleType) -> list:
    """(module name, function name) for each `alias.fn(...)` call cli makes
    on a crio module alias (``proto.run_crio``, ``gm_mod.gm_optimize``...)."""
    aliases = {name: mod.__name__ for name, mod in vars(cli_module).items()
               if isinstance(mod, ModuleType) and mod.__name__.startswith("crio.")}
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(cli_module))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases):
            mod_name = aliases[node.func.value.id]
            fn = getattr(sys.modules[mod_name], node.func.attr, None)
            if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                found.add((mod_name, node.func.attr))
    return sorted(found)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.collapsed: Counter = Counter()
        self.item = -1
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []  # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, named: bool, count_only: bool = False):
        layer = name.split(".", 1)[0]
        attrs_fn = ATTRS.get(name)
        stack, spans, collapsed = self._stack, self.spans, self.collapsed

        def traced(*args, **kwargs):
            if count_only or (stack and (stack[-1][2] == name or (not named and stack[-1][1] == layer))):
                collapsed[name] += 1
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            stack.append((span_id, layer, name))
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            spans.append((span_id, stack[-1][0] if stack else None, name, t0, t1, self.item, attrs))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "crio" or n.startswith("crio.")) and m is not None]
        targets = {key: (name, True, False) for key, name in SPAN_NAMES.items()}
        targets.update({key: (name, True, True) for key, name in COUNT_ONLY.items()})
        for key in cli_library_calls(sys.modules["crio.cli"]):
            targets.setdefault(key, (f"{key[0].split('.')[-1]}.{key[1]}", False, False))
        for (mod_name, fn_name), (span_name, named, count_only) in targets.items():
            original = getattr(sys.modules[mod_name], fn_name, None)
            if original is None:  # gone from this version of crio: its metrics read 0
                continue
            wrapper = self._wrap(original, span_name, named, count_only)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        stator_cls = sys.modules["crio.stator"].Stator
        for method, span_name in STATOR_METHODS.items():
            original = stator_cls.__dict__.get(method)
            if original is None:
                continue
            self._patches.append((stator_cls, method, original))
            setattr(stator_cls, method, self._wrap(original, span_name, True))
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an item root)."""
        span_id, parent = self._next_id, self._stack[-1][0] if self._stack else None
        self._next_id += 1
        self._stack.append((span_id, "bench", name))
        t0 = _now()
        try:
            yield
        finally:
            t1 = _now()
            self._stack.pop()
            self.spans.append((span_id, parent, name, t0, t1, self.item, None))

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "item", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")) + "\n")


def layer_metrics(spans: list, collapsed: Counter) -> dict:
    """Per-layer counts and self times of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children.  Counts under ``protocol.*`` only include kernel calls made
    inside a ``protocol.run`` span.
    """
    by_id = {s[0]: s for s in spans}
    child_ns = Counter()
    for s in spans:
        if s[1] is not None:
            child_ns[s[1]] += s[4] - s[3]
    calls, self_ns, sums = Counter(), Counter(), Counter()
    in_run_cache: dict = {}

    def in_run(span_id):
        path = []
        while span_id is not None and span_id not in in_run_cache:
            path.append(span_id)
            s = by_id[span_id]
            if s[2] == "protocol.run":
                in_run_cache[span_id] = True
                break
            span_id = s[1]
        result = in_run_cache.get(span_id, False) if span_id is not None else False
        for p in path:
            in_run_cache.setdefault(p, result)
        return result

    probability_evals = forced = 0
    for s in spans:
        name, attrs = s[2], s[6]
        calls[name] += 1
        self_ns[name] += (s[4] - s[3]) - child_ns[s[0]]
        if attrs:
            for key, value in attrs.items():
                sums[f"{name}.{key}"] += value
        if name == "qcore.measurement_probabilities" and in_run(s[1]):
            probability_evals += 1
        elif name == "qcore.measure" and attrs["forced"] and in_run(s[1]):
            forced += 1

    out = {}
    out["graphstate.prep.calls"] = calls["graphstate.prep"]
    out["graphstate.prep.self_s"] = self_ns["graphstate.prep"] / 1e9
    out["graphstate.prep.amplitudes"] = sums["graphstate.prep.amplitudes"]
    for fn in ("apply_1q", "apply_controlled_op", "apply_2q_cz", "measure", "measurement_probabilities"):
        name = f"qcore.{fn}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
        out[f"{name}.bytes_computed"] = sums[f"{name}.bytes"]
    out["qcore.fidelity.calls"] = calls["qcore.fidelity"]
    out["qcore.fidelity.self_s"] = self_ns["qcore.fidelity"] / 1e9
    out["protocol.run.self_s"] = self_ns["protocol.run"] / 1e9
    out["protocol.branches"] = sums["protocol.run.branches"]
    out["protocol.branches_pruned"] = 2 * probability_evals - forced
    out["protocol.branch_yield"] = forced / (2 * probability_evals) if probability_evals else 0.0
    for name in ("stator.as_matrix", "stator.transform"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    restarts = sums["gm.optimize.restarts"]
    sweeps = collapsed["gm.overlap"] - restarts
    out["gm.optimize.self_s"] = self_ns["gm.optimize"] / 1e9
    out["gm.restarts"] = restarts
    out["gm.sweeps"] = sweeps
    out["gm.sweeps_per_restart"] = sweeps / restarts if restarts else 0.0
    for name in ("povm.outcome_probability", "povm.control_power_report"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    out["cli.self_s"] = self_ns["cli.main"] / 1e9
    return out
