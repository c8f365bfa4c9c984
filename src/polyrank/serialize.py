"""Canonical JSON encoding and decoding for every artifact the CLI emits.

Floats are written with 17 significant digits, which round-trips binary64
exactly, and dict keys keep their (deterministic) insertion order, so equal
inputs always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import sys

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
        # a list of plain ints or of plain floats is formatted in one pass
        kinds = set(map(type, obj))
        fmt = {int: str, float: format_float}.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(fmt or (lambda val: dumps_canonical(val, indent + 1)), obj)
        return "[\n" + inner + f",\n{inner}".join(items) + "\n" + pad + "]"
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


def _int_of(x, name: str) -> int:
    if not _is_int(x):
        raise ValueError(f"'{name}' must be an integer")
    return x


def _is_real(x) -> bool:
    """A finite JSON number: not a bool, NaN, an infinity or an int beyond floats."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _real_of(x, name: str) -> float:
    if not _is_real(x):
        raise ValueError(f"'{name}' must be a finite number")
    return float(x)


def _reals_of(x, name: str, depth: int = 1) -> np.ndarray:
    """A JSON list of finite numbers (depth 1) or of such lists (depth 2)."""
    if not isinstance(x, list):
        raise ValueError(f"'{name}' must be a list")
    return np.array([_real_of(v, name) if depth == 1 else _reals_of(v, name) for v in x],
                    dtype=float)


def poly_from_dict(obj) -> HomPoly:
    if not isinstance(obj, dict):
        raise ValueError("polynomial JSON must be an object")
    for key in ("n", "d", "terms"):
        if key not in obj:
            raise ValueError(f"polynomial JSON is missing '{key}'")
    n, d = _int_of(obj["n"], "n"), _int_of(obj["d"], "d")
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
        if not _is_real(t["c"]) or t["c"] == 0:
            raise ValueError(f"term {i}: coefficient must be a finite nonzero number")
        terms[key] = float(t["c"])
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
    return Frame(n=_int_of(obj["n"], "n"), k=_int_of(obj["k"], "k"),
                 basis=_reals_of(obj["basis"], "basis", 2))


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
    def reals(key):
        return tuple(_reals_of(obj[key], key).tolist())

    terms = tuple(Rank1Term(lam=_real_of(t["lambda"], "lambda"), u=_reals_of(t["u"], "u"))
                  for t in obj["terms"])
    return LowRankApprox(
        terms=terms,
        residual_bombieri=reals("residual_bombieri"),
        residual_opnorm_est=reals("residual_opnorm_est"),
        eps=_real_of(obj["eps"], "eps"),
        input_norm=_real_of(obj["input_norm"], "input_norm"),
        n=_int_of(obj["n"], "n"),
        d=_int_of(obj["d"], "d"),
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
        "rhs_upper": cv.rhs_upper,
        "dims": {"head": cv.dims[0], "dim_v": cv.dims[1], "budget": cv.dims[2]},
    }


def chain_from_dict(obj) -> ChainValues:
    dims = tuple(_int_of(obj["dims"][key], key) for key in ("head", "dim_v", "budget"))
    return ChainValues(**{key: _real_of(obj[key], key) for key in
                          ("lhs", "mid1", "mid2", "mid3", "mid4", "rhs_bound",
                           "rhs_upper")}, dims=dims)


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
    """The report concentrate wrote; a field of the wrong JSON type (a string, a
    bool, a fraction for an integer, a non-finite number) raises ValueError."""
    def alpha(e):
        return tuple(_int_of(a, "alpha") for a in e["alpha"])

    per_alpha = {alpha(e): _real_of(e["value"], "value") for e in obj["per_alpha"]}
    z_alpha = {alpha(e): _reals_of(e["z"], "z") for e in obj["z_alpha"]}
    return ConcentrationReport(
        k=_int_of(obj["k"], "k"),
        rotation=_reals_of(obj["rotation"], "rotation", 2),
        defect=_real_of(obj["defect"], "defect"),
        per_alpha=per_alpha,
        defect_inf=_real_of(obj["defect_inf"], "defect_inf"),
        chain=chain_from_dict(obj["chain"]),
        z_alpha=z_alpha,
        frame_v=frame_from_dict(obj["frame_v"]),
        rhs_frame=frame_from_dict(obj["rhs_frame"]),
        approx=approx_from_dict(obj["approx"]),
        eps=_real_of(obj["eps"], "eps"),
        eps_inner=_real_of(obj["eps_inner"], "eps_inner"),
        input_norm=_real_of(obj["input_norm"], "input_norm"),
        ratios={str(k): _real_of(v, k) for k, v in obj["ratios"].items()},
    )
