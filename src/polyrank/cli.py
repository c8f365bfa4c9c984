"""Command-line front end: norms, sphere maxima, greedy approximation, the
concentration pipeline and its chain checker, instance generators, and sweeps.

Exit codes: 0 on success, 1 on a parse or precondition error, 2 when a
chain-check link fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import concentration, generators, lowrank, serialize, sphere
from .poly import bombieri_norm, max_coeff_norm, num_exponents, quadratic_matrix

_BENCH_TERM_LIMIT = 10_000_000


class CliError(Exception):
    pass


def _load_poly(source: str):
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith("{"):
        text = source
    else:
        path = Path(source)
        if not path.exists():
            raise CliError(f"input file not found: {source}")
        text = path.read_text()
    try:
        return serialize.poly_loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliError("malformed JSON: nested too deeply") from exc
    except ValueError as exc:
        raise CliError(f"bad polynomial: {exc}") from exc


def _config(args) -> sphere.OptimizerConfig:
    try:
        return sphere.OptimizerConfig(
            restarts=args.restarts,
            max_iters=args.max_iters,
            tol=args.tol,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.format == "json":
        out = serialize.dumps_canonical(payload) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)


def _sig12(x: float) -> str:
    return f"{float(x):.12g}"


def cmd_norm(args) -> int:
    p = _load_poly(args.input)
    payload = {"bombieri": bombieri_norm(p), "max_coeff": max_coeff_norm(p)}
    if math.isinf(payload["bombieri"]):
        raise CliError("Bombieri norm exceeds the largest double")
    lines = [f"bombieri {_sig12(payload['bombieri'])}",
             f"max_coeff {_sig12(payload['max_coeff'])}"]
    _emit(args, payload, lines)
    return 0


def _refuse_square(p, command: str) -> None:
    """Refuse before any n x n array (eigh, Newton polish, start points) is built."""
    if p.n * p.n > _BENCH_TERM_LIMIT:
        raise CliError(f"{command} at n={p.n} would need n x n arrays of {p.n * p.n} "
                       f"entries; refusing above {_BENCH_TERM_LIMIT}")


def _engine(p, k: int | None = None) -> str:
    """Name of the engine sphere.operator_norm (k None) or sphere.subspace_norm
    runs on p, following their dispatch: a closed form for linear forms and,
    in subspace_norm, for the zero form and k = n; eigh for quadratics; for
    d >= 3 the power-iteration ascent, which subspace_norm also runs at k = 1,
    or HOOI."""
    if p.d == 1 or (k is not None and (p.is_zero or k == p.n)):
        return "closed-form"
    if p.d == 2:
        return "eigh"
    return "power" if k in (None, 1) else "hooi"


def cmd_opnorm(args) -> int:
    p = _load_poly(args.input)
    if args.oracle or p.d != 1:
        # only the closed form for linear forms stays within O(n)
        _refuse_square(p, "opnorm")
    if args.oracle:
        try:
            value = sphere.operator_norm_oracle(p)
        except ValueError as exc:
            raise CliError(f"oracle unavailable: {exc}") from exc
        payload = {"value": value, "method": "oracle"}
        lines = [f"opnorm {_sig12(value)} (oracle)"]
    else:
        try:
            sm = sphere.operator_norm(p, _config(args))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        payload = serialize.sphere_max_to_dict(sm)
        payload["method"] = _engine(p)
        lines = [f"opnorm {_sig12(sm.value)}",
                 f"converged {str(sm.converged).lower()} iterations {sm.iterations_used}"]
    _emit(args, payload, lines)
    return 0


def cmd_subnorm(args) -> int:
    p = _load_poly(args.input)
    if args.k is None:
        raise CliError("subnorm requires --k")
    # also bounds the n x k answer frame, printed in full, as k <= n
    _refuse_square(p, "subnorm")
    if args.oracle:
        if p.d != 2:
            raise CliError("oracle unavailable: subspace-norm oracle needs degree 2")
        if not 1 <= args.k <= p.n:
            raise CliError(f"k must be in 1..{p.n}")
        lams = np.linalg.eigvalsh(quadratic_matrix(p))
        value = float(math.sqrt(np.sum(np.sort(lams ** 2)[::-1][: args.k])))
        payload = {"value": value, "k": args.k, "method": "oracle"}
        lines = [f"subnorm {_sig12(value)} (oracle)"]
    else:
        try:
            fm = sphere.subspace_norm(p, args.k, _config(args))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        payload = serialize.frame_max_to_dict(fm)
        payload["k"] = args.k
        payload["method"] = _engine(p, args.k)
        lines = [f"subnorm {_sig12(fm.value)}",
                 f"converged {str(fm.converged).lower()}"]
    _emit(args, payload, lines)
    return 0


def cmd_approx(args) -> int:
    p = _load_poly(args.input)
    if args.eps is None:
        raise CliError("approx requires --eps")
    try:
        approx = lowrank.greedy_approximate(p, args.eps, _config(args))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    bound = lowrank.step_bound(args.eps)
    payload = serialize.approx_to_dict(approx)
    payload["bound_floor_inv_eps_sq"] = bound
    payload["bound_satisfied"] = len(approx.terms) <= bound
    payload["final_residual_within_eps"] = (
        approx.residual_opnorm_est[-1] <= args.eps * approx.input_norm + 1e-12
    )
    lines = [
        f"terms {len(approx.terms)} (bound {bound})",
        f"input_norm {_sig12(approx.input_norm)}",
        f"final_residual_est {_sig12(approx.residual_opnorm_est[-1])}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_concentrate(args) -> int:
    p = _load_poly(args.input)
    if args.eps is None:
        raise CliError("concentrate requires --eps")
    try:
        report = concentration.concentrate(p, args.eps, _config(args),
                                           eps_inner=args.eps_inner)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = serialize.report_to_dict(report)
    cv = report.chain
    lines = [
        f"k {report.k} dim_v {cv.dims[1]} budget {cv.dims[2]}",
        f"defect {_sig12(report.defect)}",
        f"defect_inf {_sig12(report.defect_inf)}",
        f"chain lhs {_sig12(cv.lhs)} mid1 {_sig12(cv.mid1)} mid2 {_sig12(cv.mid2)}"
        f" mid3 {_sig12(cv.mid3)} mid4 {_sig12(cv.mid4)} rhs {_sig12(cv.rhs_bound)}",
    ] + [f"ratio {name} {_sig12(value)}" for name, value in report.ratios.items()]
    _emit(args, payload, lines)
    return 0


def cmd_chain_check(args) -> int:
    p = _load_poly(args.input)
    if not args.report:
        raise CliError("chain-check requires --report")
    path = Path(args.report)
    if not path.exists():
        raise CliError(f"report file not found: {args.report}")
    try:
        report = serialize.report_from_dict(json.loads(path.read_text()))
    except (json.JSONDecodeError, KeyError, ValueError, TypeError, AttributeError,
            RecursionError) as exc:
        raise CliError(f"bad report: {exc}") from exc
    try:
        check = concentration.verify_chain(p, report, _config(args))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "passed": check.passed,
        "tol": check.tol,
        "links": [
            {"name": l.name, "lhs": l.lhs, "rhs": l.rhs,
             "margin": l.margin, "passed": l.passed}
            for l in check.links
        ],
        "checks": dict(check.checks),
        "values": serialize.chain_to_dict(check.values),
    }
    lines = []
    for l in check.links:
        verdict = "PASS" if l.passed else "FAIL"
        lines.append(f"{verdict} {l.name} margin {_sig12(l.margin)}")
    for name, ok in check.checks.items():
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
    lines.append(f"overall {'PASS' if check.passed else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if check.passed else 2


def _parse_model(args):
    model = args.model
    rank = args.rank
    if model.endswith(")") and "(" in model:
        base, arg = model[:-1].split("(", 1)
        model = base
        try:
            rank = int(arg)
        except ValueError as exc:
            raise CliError(f"bad model parameter: {arg}") from exc
    return model, rank


def cmd_gen(args) -> int:
    model, rank = _parse_model(args)
    if model in ("bombieri-gaussian", "planted-lowrank"):
        size = num_exponents(args.n, args.d)
        if size > _BENCH_TERM_LIMIT:
            raise CliError(f"model {model} at n={args.n}, d={args.d} would need {size} "
                           f"dense terms; refusing above {_BENCH_TERM_LIMIT}")
    if model == "hard-family" and args.n * args.n > _BENCH_TERM_LIMIT:
        raise CliError(f"model hard-family at n={args.n} would need {args.n * args.n} "
                       f"exponent entries; refusing above {_BENCH_TERM_LIMIT}")
    rng = np.random.default_rng(args.seed)
    if model == "hard-family":
        p = lowrank.hard_family(args.n)
    elif model == "bombieri-gaussian":
        p = generators.bombieri_gaussian(args.n, args.d, rng)
    elif model == "sparse":
        nterms = args.nterms if args.nterms else max(2, 2 * args.n)
        p = generators.sparse_gaussian(args.n, args.d, nterms, rng)
    elif model == "planted-lowrank":
        p = generators.planted_lowrank(args.n, args.d, rank, rng, noise=args.noise)
    else:
        raise CliError(
            f"unknown model '{model}' "
            "(choose bombieri-gaussian, sparse, hard-family, planted-lowrank)"
        )
    payload = serialize.poly_to_dict(p)
    lines = [serialize.poly_dumps(p)]
    _emit(args, payload, lines)
    return 0


def _parse_list(text: str, typ):
    try:
        return [typ(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise CliError(f"bad list '{text}'") from exc


def cmd_bench(args) -> int:
    eps_list = _parse_list(args.eps_list, float)
    d_list = _parse_list(args.d_list, int)
    n_list = _parse_list(args.n_list, int)
    if not eps_list or not d_list or not n_list:
        raise CliError("bench needs non-empty --eps-list, --d-list, --n-list")
    for d in d_list:
        for n in n_list:
            if num_exponents(n, d) > _BENCH_TERM_LIMIT:
                raise CliError(
                    f"cell (d={d}, n={n}) would need {num_exponents(n, d)} dense "
                    f"terms; refusing above {_BENCH_TERM_LIMIT}"
                )
    cfg = _config(args)
    rows = []
    for eps in eps_list:
        bound = lowrank.step_bound(eps)
        for d in d_list:
            for n in n_list:
                # every distinct eps draws its own forms: seed with its exact bits
                eps_bits = int(np.float64(eps).view(np.uint64))
                rng = np.random.default_rng((args.seed, d, n, eps_bits))
                counts = []
                ratios = []
                violations = 0
                for _ in range(args.samples):
                    p = generators.bombieri_gaussian(n, d, rng)
                    approx = lowrank.greedy_approximate(p, eps, cfg)
                    counts.append(len(approx.terms))
                    ratios.append(approx.residual_opnorm_est[-1] / approx.input_norm)
                    if len(approx.terms) > bound:
                        violations += 1
                rows.append({
                    "eps": eps, "d": d, "n": n, "samples": args.samples,
                    "bound": bound,
                    "mean_terms": sum(counts) / len(counts),
                    "max_terms": max(counts),
                    "violations": violations,
                    "mean_residual_ratio": sum(ratios) / len(ratios),
                })
    payload = {"mode": "greedy", "cells": rows}
    header = f"{'eps':>6} {'d':>3} {'n':>3} {'bound':>6} {'mean':>8} {'max':>5} {'viol':>5} {'resid':>9}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['eps']:>6.3g} {r['d']:>3} {r['n']:>3} {r['bound']:>6} "
            f"{r['mean_terms']:>8.3f} {r['max_terms']:>5} {r['violations']:>5} "
            f"{r['mean_residual_ratio']:>9.3g}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_ratio_probe(args) -> int:
    if args.k is None:
        raise CliError("ratio-probe requires --k")
    try:
        ratio = sphere.norm_ratio_probe(args.d, args.k, args.n, args.samples,
                                        seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = {"d": args.d, "k": args.k, "n": args.n,
               "samples": args.samples, "max_ratio": ratio}
    lines = [f"max_ratio {_sig12(ratio)}"]
    _emit(args, payload, lines)
    return 0


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--restarts", type=int, default=32)
    sp.add_argument("--max-iters", dest="max_iters", type=int, default=500)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyrank",
        description="Low-rank approximation and variable concentration of homogeneous polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("norm", help="Bombieri and max-coefficient norms")
    sp.add_argument("input", help="polynomial JSON: path, inline, or - for stdin")
    _add_common(sp)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("opnorm", help="maximum of |p| on the unit sphere")
    sp.add_argument("input")
    sp.add_argument("--oracle", action="store_true",
                    help="force the exact oracle; fails on out-of-range instances")
    _add_common(sp)
    sp.set_defaults(func=cmd_opnorm)

    sp = sub.add_parser("subnorm", help="largest projected norm over k-dim subspaces")
    sp.add_argument("input")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--oracle", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=cmd_subnorm)

    sp = sub.add_parser("approx", help="greedy rank-one deflation")
    sp.add_argument("input")
    sp.add_argument("--eps", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_approx)

    sp = sub.add_parser("concentrate", help="rotate so the defect at a small head is controlled")
    sp.add_argument("input")
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--eps-inner", dest="eps_inner", type=float, default=None,
                    help="override the default eps/d! greedy tolerance")
    _add_common(sp)
    sp.set_defaults(func=cmd_concentrate)

    sp = sub.add_parser("chain-check", help="re-verify every link of a report's chain")
    sp.add_argument("input")
    sp.add_argument("--report", default=None, help="report JSON file from concentrate")
    _add_common(sp)
    sp.set_defaults(func=cmd_chain_check)

    sp = sub.add_parser("gen", help="generate a random instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--model", default="bombieri-gaussian")
    sp.add_argument("--rank", type=int, default=1)
    sp.add_argument("--noise", type=float, default=0.0)
    sp.add_argument("--nterms", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("bench", help="sweep greedy term counts against the bound")
    sp.add_argument("--eps-list", dest="eps_list", default="0.3,0.5,0.8")
    sp.add_argument("--d-list", dest="d_list", default="2,3")
    sp.add_argument("--n-list", dest="n_list", default="4,6")
    sp.add_argument("--samples", type=int, default=5)
    _add_common(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("ratio-probe", help="empirical subspace/sphere norm ratio")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=20)
    _add_common(sp)
    sp.set_defaults(func=cmd_ratio_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
