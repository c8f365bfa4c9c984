"""Outside-in tracing of polyrank's layers.

Each public function of a layer is wrapped once, and that one wrapper is
installed at every place the package binds the function: its defining module,
every `from .x import y` binding in the other modules, the package namespace,
and the HomPoly arithmetic methods. polyrank's source is not modified.

Spans (layer, function, start, end, parent, instance) stay in memory and are
written out when the run ends. A layer's self time is a span's duration minus
the time its child spans cover. A call into a layer from inside the same layer
(recursion in the serializer, say) opens no new span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import polyrank as pr
from polyrank import cli, concentration, lowrank, poly, serialize, sphere

_PACKAGE_MODULES = ("polyrank", "polyrank.poly", "polyrank.frames", "polyrank.generators",
                    "polyrank.sphere", "polyrank.lowrank", "polyrank.concentration",
                    "polyrank.serialize", "polyrank.cli")

ROOT = "bench.instance"


def _layers() -> dict:
    """Layer name -> the public functions that belong to it."""
    serialize_fns = [f for name, f in vars(serialize).items()
                     if callable(f) and not name.startswith("_") and name != "format_float"
                     and getattr(f, "__module__", None) == serialize.__name__]
    return {
        "sphere.operator_norm": [sphere.operator_norm],
        "sphere.subspace_norm": [sphere.subspace_norm],
        "sphere.other": [sphere.best_rank1, sphere.operator_norm_oracle,
                         sphere.norm_ratio_probe],
        "poly.pointwise": [poly.evaluate, poly.gradient, poly.hessian],
        "poly.substitute": [poly.apply_orthogonal, poly.project_subspace],
        "poly.dense_tensor": [poly.dense_tensor],
        "poly.arith": [pr.HomPoly.__add__, pr.HomPoly.__sub__, pr.HomPoly.__mul__,
                       pr.HomPoly.__neg__, poly.pow_linear, poly.bombieri_norm],
        "lowrank": [lowrank.greedy_approximate, lowrank.reconstruct],
        "concentration.concentrate": [concentration.concentrate],
        "concentration.verify_chain": [concentration.verify_chain],
        "serialize": serialize_fns,
        "cli.command": [cli.main],
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _cfg(args, kwargs, pos: int):
    cfg = args[pos] if len(args) > pos else kwargs.get("cfg")
    return cfg or pr.OptimizerConfig()


def _basin_frac(start_values) -> float:
    """Share of starts whose value is within 1e-6 relative of the best start."""
    best = max(start_values)
    return sum(v >= best - 1e-6 * abs(best) for v in start_values) / len(start_values)


def _on_operator_norm(rec, args, kwargs, sm):
    p, cfg = args[0], _cfg(args, kwargs, 1)
    rec.append({
        "iters_batch_max": sm.iterations_used,
        "at_cap": sm.iterations_used == cfg.max_iters,
        "converged": sm.converged,
        "basin_frac": _basin_frac(sm.start_values),
        # computed, not measured: both signs x all starts x iterations x the
        # d index gathers of every term
        "gather_elems": 2 * (2 * p.n + cfg.restarts) * sm.iterations_used * len(p.terms) * p.d,
    })


def _on_subspace_norm(rec, args, kwargs, fm):
    k = args[1] if len(args) > 1 else kwargs["k"]
    rec.append({"k1": k == 1, "converged": fm.converged,
                "basin_frac": _basin_frac(fm.start_values) if fm.start_values else None})


def _on_substitute(rec, args, kwargs, q):
    rec.append({"terms_out": len(q.terms)})


def _on_dense_tensor(rec, args, kwargs, T):
    rec.append({"cells": T.size})


def _on_greedy(rec, args, kwargs, a):
    eps = args[1] if len(args) > 1 else kwargs["eps"]
    rec.append({"steps": len(a.residual_opnorm_est), "terms": len(a.terms),
                "bound_slack": pr.step_bound(eps) - len(a.terms)})


def _on_concentrate(rec, args, kwargs, rep):
    rec.append({"k": rep.k, "dim_v": rep.frame_v.k})


def _on_serialize(rec, args, kwargs, out):
    if isinstance(out, str):
        rec.append({"bytes_out": len(out)})


_HOOKS = {
    sphere.operator_norm: _on_operator_norm,
    sphere.subspace_norm: _on_subspace_norm,
    poly.apply_orthogonal: _on_substitute,
    poly.project_subspace: _on_substitute,
    poly.dense_tensor: _on_dense_tensor,
    lowrank.greedy_approximate: _on_greedy,
    concentration.concentrate: _on_concentrate,
}


class Tracer:
    """Span recorder; `installed()` swaps the wrappers in and back out."""

    def __init__(self):
        self.spans = []          # [layer, function, start, end, parent, instance]
        self._child = []         # time covered by each span's children
        self._stack = []
        self.instance = -1
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.records = defaultdict(list)

    def open(self, layer: str, function: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, function, time.perf_counter(), 0.0, parent, self.instance])
        self._child.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        end = time.perf_counter()
        span = self.spans[i]
        span[3] = end
        self._stack.pop()
        dur = end - span[2]
        layer = span[0]
        self.self_s[layer] += dur - self._child[i]
        self.inclusive_s[layer] += dur
        self.calls[layer] += 1
        if self._stack:
            self._child[self._stack[-1]] += dur

    def wrap(self, layer: str, fn):
        hook = _on_serialize if layer == "serialize" else _HOOKS.get(fn)
        records = self.records[layer]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            i = self.open(layer, fn.__name__)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hook is not None:
                hook(records, args, kwargs, out)
            return out

        return traced

    def installed(self):
        return _Installed(self)

    def metrics(self, instances: int, base: float) -> dict:
        """Per-layer metrics as name -> (value, unit). Self times and counts
        are means per traced instance, so they do not depend on how many
        passes the run held; `bench.unattributed_frac` is a share of `base`
        seconds."""
        per = lambda x: x / instances
        self_s = lambda layer: (per(self.self_s.get(layer, 0.0)), "s")
        calls = lambda layer: (per(self.calls.get(layer, 0)), "count")
        rec = self.records
        on, sub = rec["sphere.operator_norm"], rec["sphere.subspace_norm"]
        greedy, conc = rec["lowrank"], rec["concentration.concentrate"]
        c_total = self.inclusive_s.get("concentration.concentrate", 0.0)
        v_total = self.inclusive_s.get("concentration.verify_chain", 0.0)
        sub_basins = [r["basin_frac"] for r in sub if r["basin_frac"] is not None]
        return {
            "sphere.operator_norm.calls": calls("sphere.operator_norm"),
            "sphere.operator_norm.self_s": self_s("sphere.operator_norm"),
            "sphere.operator_norm.iters_batch_max_mean": (_mean(r["iters_batch_max"] for r in on), "count"),
            "sphere.operator_norm.at_cap_frac": (_mean(r["at_cap"] for r in on), "ratio"),
            "sphere.operator_norm.converged_frac": (_mean(r["converged"] for r in on), "ratio"),
            "sphere.operator_norm.basin_frac": (_mean(r["basin_frac"] for r in on), "ratio"),
            "sphere.operator_norm.gather_elems": (per(sum(r["gather_elems"] for r in on)), "count"),
            "sphere.subspace_norm.calls": calls("sphere.subspace_norm"),
            "sphere.subspace_norm.self_s": self_s("sphere.subspace_norm"),
            "sphere.subspace_norm.k1_calls": (per(sum(r["k1"] for r in sub)), "count"),
            "sphere.subspace_norm.converged_frac": (_mean(r["converged"] for r in sub), "ratio"),
            "sphere.subspace_norm.basin_frac": (_mean(sub_basins), "ratio"),
            "sphere.other.self_s": self_s("sphere.other"),
            "poly.substitute.calls": calls("poly.substitute"),
            "poly.substitute.self_s": self_s("poly.substitute"),
            "poly.substitute.terms_out": (per(sum(r["terms_out"] for r in rec["poly.substitute"])), "count"),
            "poly.dense_tensor.calls": calls("poly.dense_tensor"),
            "poly.dense_tensor.self_s": self_s("poly.dense_tensor"),
            # cells allocated; the bytes are 8x this
            "poly.dense_tensor.cells": (per(sum(r["cells"] for r in rec["poly.dense_tensor"])), "count"),
            "poly.pointwise.calls": calls("poly.pointwise"),
            "poly.pointwise.self_s": self_s("poly.pointwise"),
            "poly.arith.calls": calls("poly.arith"),
            "poly.arith.self_s": self_s("poly.arith"),
            "lowrank.calls": calls("lowrank"),
            "lowrank.self_s": self_s("lowrank"),
            "lowrank.steps_mean": (_mean(r["steps"] for r in greedy), "count"),
            "lowrank.terms_mean": (_mean(r["terms"] for r in greedy), "count"),
            "lowrank.bound_slack_min": (min((r["bound_slack"] for r in greedy), default=0), "count"),
            "concentration.concentrate.self_s": self_s("concentration.concentrate"),
            "concentration.verify_chain.self_s": self_s("concentration.verify_chain"),
            "concentration.verify_share": (v_total / (c_total + v_total) if v_total else 0.0, "ratio"),
            "concentration.k_mean": (_mean(r["k"] for r in conc), "count"),
            "concentration.dim_v_mean": (_mean(r["dim_v"] for r in conc), "count"),
            "serialize.self_s": self_s("serialize"),
            "serialize.bytes_out": (per(sum(r["bytes_out"] for r in rec["serialize"])), "count"),
            "cli.command.self_s": self_s("cli.command"),
            "bench.unattributed_frac": (self.self_s.get(ROOT, 0.0) / base, "ratio"),
        }

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for layer, function, start, end, parent, instance in self.spans:
                fh.write(json.dumps([layer, function, start, end, parent, instance]) + "\n")


class _Installed:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo = []

    def __enter__(self):
        wrappers = {}
        for layer, fns in _layers().items():
            for fn in fns:
                wrappers[id(fn)] = self.tracer.wrap(layer, fn)
        owners = [sys.modules[m] for m in _PACKAGE_MODULES] + [pr.HomPoly]
        for owner in owners:
            for name, val in list(vars(owner).items()):
                if id(val) in wrappers:
                    self.undo.append((owner, name, val))
                    setattr(owner, name, wrappers[id(val)])
        return self.tracer

    def __exit__(self, *exc):
        for owner, name, val in reversed(self.undo):
            setattr(owner, name, val)
        self.undo.clear()
        return False
