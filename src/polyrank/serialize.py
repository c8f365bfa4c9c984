"""Canonical JSON encoding and decoding for every artifact the CLI emits.

Floats are written with 17 significant digits, which round-trips binary64
exactly, and dict keys keep their (deterministic) insertion order, so equal
inputs always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .concentration import ChainValues, ConcentrationReport
from .frames import Frame
from .lowrank import LowRankApprox
from .poly import HomPoly
from .sphere import FrameMax, Rank1Term, SphereMax


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("refusing to serialize a non-finite value")
    return f"{x:.17g}"


def dumps_canonical(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(key))}: {dumps_canonical(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{dumps_canonical(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def _vector(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=float)]


def _matrix_rows(m) -> list:
    return [_vector(row) for row in np.asarray(m, dtype=float)]


# ---------------------------------------------------------------------------
# polynomials: {"n":…, "d":…, "terms":[{"alpha":[…], "c":…}…]}, terms sorted
# by exponent so the format is bit-exact

def poly_to_dict(p: HomPoly) -> dict:
    return {
        "n": p.n,
        "d": p.d,
        "terms": [
            {"alpha": list(alpha), "c": p.terms[alpha]} for alpha in sorted(p.terms)
        ],
    }


def _is_int(x) -> bool:
    """A JSON integer; bool is an int subclass, so true/false are refused."""
    return isinstance(x, int) and not isinstance(x, bool)


def poly_from_dict(obj) -> HomPoly:
    if not isinstance(obj, dict):
        raise ValueError("polynomial JSON must be an object")
    for key in ("n", "d", "terms"):
        if key not in obj:
            raise ValueError(f"polynomial JSON is missing '{key}'")
    n, d = obj["n"], obj["d"]
    if not _is_int(n) or not _is_int(d):
        raise ValueError("'n' and 'd' must be integers")
    if not isinstance(obj["terms"], list):
        raise ValueError("'terms' must be a list")
    terms: dict = {}
    for i, t in enumerate(obj["terms"]):
        if not isinstance(t, dict) or "alpha" not in t or "c" not in t:
            raise ValueError(f"term {i}: expected an object with 'alpha' and 'c'")
        alpha = t["alpha"]
        if (not isinstance(alpha, list) or len(alpha) != n
                or not all(_is_int(a) and a >= 0 for a in alpha)):
            raise ValueError(f"term {i}: 'alpha' must be {n} non-negative integers")
        if sum(alpha) != d:
            raise ValueError(f"term {i}: exponent weight {sum(alpha)} != degree {d}")
        key = tuple(alpha)
        if key in terms:
            raise ValueError(f"term {i}: duplicate exponent {key}")
        c = t["c"]
        if not isinstance(c, (int, float)) or isinstance(c, bool):
            raise ValueError(f"term {i}: coefficient must be a finite nonzero number")
        try:
            c = float(c)
        except OverflowError:
            c = math.inf
        if not math.isfinite(c) or c == 0.0:
            raise ValueError(f"term {i}: coefficient must be a finite nonzero number")
        terms[key] = c
    return HomPoly(n, d, terms)


def poly_dumps(p: HomPoly) -> str:
    return dumps_canonical(poly_to_dict(p))


def poly_loads(text: str) -> HomPoly:
    return poly_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# optimizer results

def _spread(values) -> dict:
    if not values:
        return {"min": 0.0, "median": 0.0, "max": 0.0}
    v = sorted(float(x) for x in values)
    mid = len(v) // 2
    median = v[mid] if len(v) % 2 else 0.5 * (v[mid - 1] + v[mid])
    return {"min": v[0], "median": median, "max": v[-1]}


def sphere_max_to_dict(sm: SphereMax) -> dict:
    return {
        "value": sm.value,
        "argmax": _vector(sm.argmax),
        "converged": sm.converged,
        "iterations_used": sm.iterations_used,
        "restart_spread": _spread(sm.start_values),
        "start_values": [float(v) for v in sm.start_values],
    }


def frame_max_to_dict(fm: FrameMax) -> dict:
    return {
        "value": fm.value,
        "frame": frame_to_dict(fm.frame),
        "converged": fm.converged,
        "restart_spread": _spread(fm.start_values),
        "start_values": [float(v) for v in fm.start_values],
    }


def frame_to_dict(f: Frame) -> dict:
    return {"n": f.n, "k": f.k, "basis": _matrix_rows(f.basis)}


def frame_from_dict(obj) -> Frame:
    return Frame(n=int(obj["n"]), k=int(obj["k"]),
                 basis=np.asarray(obj["basis"], dtype=float))


# ---------------------------------------------------------------------------
# greedy approximants

def approx_to_dict(a: LowRankApprox) -> dict:
    return {
        "eps": a.eps,
        "input_norm": a.input_norm,
        "terms": [{"lambda": t.lam, "u": _vector(t.u)} for t in a.terms],
        "residual_bombieri": [float(x) for x in a.residual_bombieri],
        "residual_opnorm_est": [float(x) for x in a.residual_opnorm_est],
        "n": a.n,
        "d": a.d,
    }


def approx_from_dict(obj) -> LowRankApprox:
    terms = tuple(
        Rank1Term(lam=float(t["lambda"]), u=np.asarray(t["u"], dtype=float))
        for t in obj["terms"]
    )
    return LowRankApprox(
        terms=terms,
        residual_bombieri=tuple(float(x) for x in obj["residual_bombieri"]),
        residual_opnorm_est=tuple(float(x) for x in obj["residual_opnorm_est"]),
        eps=float(obj["eps"]),
        input_norm=float(obj["input_norm"]),
        n=int(obj["n"]),
        d=int(obj["d"]),
    )


# ---------------------------------------------------------------------------
# concentration reports

def chain_to_dict(cv: ChainValues) -> dict:
    return {
        "lhs": cv.lhs,
        "mid1": cv.mid1,
        "mid2": cv.mid2,
        "mid3": cv.mid3,
        "mid4": cv.mid4,
        "rhs_bound": cv.rhs_bound,
        "dims": {"head": cv.dims[0], "dim_v": cv.dims[1], "budget": cv.dims[2]},
    }


def chain_from_dict(obj) -> ChainValues:
    dims = obj["dims"]
    return ChainValues(
        lhs=float(obj["lhs"]),
        mid1=float(obj["mid1"]),
        mid2=float(obj["mid2"]),
        mid3=float(obj["mid3"]),
        mid4=float(obj["mid4"]),
        rhs_bound=float(obj["rhs_bound"]),
        dims=(int(dims["head"]), int(dims["dim_v"]), int(dims["budget"])),
    )


def report_to_dict(r: ConcentrationReport) -> dict:
    heads = sorted(r.per_alpha)
    return {
        "k": r.k,
        "rotation": _matrix_rows(r.rotation),
        "defect": r.defect,
        "per_alpha": [{"alpha": list(h), "value": r.per_alpha[h]} for h in heads],
        "defect_inf": r.defect_inf,
        "chain": chain_to_dict(r.chain),
        "z_alpha": [{"alpha": list(h), "z": _vector(r.z_alpha[h])} for h in heads],
        "frame_v": frame_to_dict(r.frame_v),
        "rhs_frame": frame_to_dict(r.rhs_frame),
        "approx": approx_to_dict(r.approx),
        "eps": r.eps,
        "eps_inner": r.eps_inner,
        "input_norm": r.input_norm,
        "ratios": dict(r.ratios),
    }


def report_from_dict(obj) -> ConcentrationReport:
    per_alpha = {tuple(e["alpha"]): float(e["value"]) for e in obj["per_alpha"]}
    z_alpha = {tuple(e["alpha"]): np.asarray(e["z"], dtype=float)
               for e in obj["z_alpha"]}
    return ConcentrationReport(
        k=int(obj["k"]),
        rotation=np.asarray(obj["rotation"], dtype=float),
        defect=float(obj["defect"]),
        per_alpha=per_alpha,
        defect_inf=float(obj["defect_inf"]),
        chain=chain_from_dict(obj["chain"]),
        z_alpha=z_alpha,
        frame_v=frame_from_dict(obj["frame_v"]),
        rhs_frame=frame_from_dict(obj["rhs_frame"]),
        approx=approx_from_dict(obj["approx"]),
        eps=float(obj["eps"]),
        eps_inner=float(obj["eps_inner"]),
        input_norm=float(obj["input_norm"]),
        ratios={str(k): float(v) for k, v in obj["ratios"].items()},
    )
