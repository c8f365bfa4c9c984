"""The four benchmark workloads: seeded inputs, the call each instance makes,
and the checks run on each result outside the timed region.

Instance `index` of a workload draws its input from
`np.random.default_rng((seed, WORKLOAD_IDS[name], index))`, so adding a
workload, or changing another workload's size, never shifts these inputs.

A pass is the fixed, ordered list of instances a seed defines, made of rounds:
a round holds one instance of each cell, in the order of `cells`, so every
round weighs the cells alike. A run ends on a whole round, and repeats the
pass if it outlasts it; repeats must reproduce the first result exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import polyrank as pr
import polyrank.cli

WORKLOAD_IDS = {"greedy": 0, "chain": 1, "wide": 2, "cli": 3}

# Oracle tolerances of acceptance criterion 2 (tests/test_acceptance.py).
OP_ORACLE_TOL = 1e-6
SUB_ORACLE_TOL = 1e-5


class CheckFailed(Exception):
    pass


def instance_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, WORKLOAD_IDS[workload], index))


def warmup_rng(workload: str) -> np.random.Generator:
    """The draw of the warm-up instance: the same on every seed and run."""
    return instance_rng(0, workload, 0)


def _rel_gap(est: float, true: float) -> float:
    return abs(est - true) / true if true > 0 else abs(est)


def _top_k_norm(p, k: int) -> float:
    lams = np.linalg.eigvalsh(pr.quadratic_matrix(p))
    return float(math.sqrt(np.sum(np.sort(lams ** 2)[::-1][:k])))


@dataclass(frozen=True, eq=False)
class Instance:
    index: int
    label: str
    p: pr.HomPoly
    eps: float


def check_greedy(p, a, eps: float) -> None:
    """Step bound, final residual, and each step's value at its unit argmax."""
    bound = pr.step_bound(eps)
    if len(a.terms) > bound:
        raise CheckFailed(f"{len(a.terms)} terms exceed the step bound {bound}")
    if a.residual_opnorm_est[-1] > eps * a.input_norm * (1 + 1e-12):
        raise CheckFailed("final residual estimate exceeds eps * ||p||")
    res = p
    for t, est in zip(a.terms, a.residual_opnorm_est):
        if abs(np.linalg.norm(t.u) - 1.0) > 1e-12:
            raise CheckFailed("greedy argmax is not a unit vector")
        if abs(abs(pr.evaluate(res, t.u)) - est) > 1e-12 * max(1.0, est):
            raise CheckFailed("reported step value is not |residual(argmax)|")
        res = res - t.lam * pr.pow_linear(t.u, p.d)


class Greedy:
    """greedy_approximate at the CLI-default OptimizerConfig."""

    name = "greedy"
    cells = ([("bombieri", n, d, 0.25) for n in (6, 8, 10) for d in (3, 4)]
             + [("planted", n, 3, 0.1) for n in (10, 12, 16)])
    cfg = pr.OptimizerConfig(restarts=32, max_iters=500, tol=1e-10)
    round_size = len(cells)

    def _instance(self, index: int, cell: tuple, rng) -> Instance:
        kind, n, d, eps = cell
        if kind == "bombieri":
            p = pr.bombieri_gaussian(n, d, rng)
        else:
            p = pr.planted_lowrank(n, d, 4, rng, noise=0.1)
        return Instance(index, f"{kind} n={n} d={d} eps={eps}", p, eps)

    def make(self, seed: int, workdir: Path) -> list:
        return [self._instance(i, cell, instance_rng(seed, self.name, i))
                for i, cell in enumerate(self.cells)]

    def warmup(self, instances: list) -> Instance:
        """A fixed input on the smallest cell of the pass."""
        cell = min(self.cells, key=lambda c: c[1] ** c[2])
        return self._instance(-1, cell, warmup_rng(self.name))

    def call(self, inst: Instance):
        return pr.greedy_approximate(inst.p, inst.eps, self.cfg)

    call_in_process = call

    def signature(self, a):
        return (a.residual_opnorm_est, a.residual_bombieri, len(a.terms))

    def check(self, inst: Instance, a) -> list:
        check_greedy(inst.p, a, inst.eps)
        return []

    def opnorm(self, inst: Instance, a):
        """(value reported for the input form, its Bombieri norm, the form)."""
        return a.residual_opnorm_est[0], a.input_norm, inst.p


class Chain:
    """concentrate followed by verify_chain at the criterion-6 config."""

    cfg = pr.OptimizerConfig(restarts=6, max_iters=150, tol=1e-9)
    eps = 0.9

    def __init__(self, name: str, cells: list, per_cell: int, eps_inner: float):
        self.name = name
        self.cells = cells
        self.per_cell = per_cell
        self.eps_inner = eps_inner
        self.round_size = len(cells)

    def _instance(self, index: int, cell: tuple, rng) -> Instance:
        kind, n, d = cell
        if kind == "bombieri":
            p = pr.bombieri_gaussian(n, d, rng)
        else:
            p = pr.sparse_gaussian(n, d, 3 * n, rng)
        return Instance(index, f"{kind} n={n} d={d}", p, self.eps)

    def make(self, seed: int, workdir: Path) -> list:
        return [self._instance(i, self.cells[i % len(self.cells)],
                               instance_rng(seed, self.name, i))
                for i in range(len(self.cells) * self.per_cell)]

    def warmup(self, instances: list) -> Instance:
        """A fixed input on the smallest cell of the pass."""
        cell = min(self.cells, key=lambda c: c[1] ** c[2])
        return self._instance(-1, cell, warmup_rng(self.name))

    def call(self, inst: Instance):
        rep = pr.concentrate(inst.p, self.eps, self.cfg, eps_inner=self.eps_inner)
        return rep, pr.verify_chain(inst.p, rep, self.cfg)

    call_in_process = call

    def signature(self, out):
        rep, chk = out
        cv, vv = rep.chain, chk.values
        return (rep.k, rep.defect, cv.lhs, cv.mid4, cv.rhs_bound, cv.dims,
                vv.rhs_bound, chk.passed)

    def check(self, inst: Instance, out) -> list:
        rep, chk = out
        p = inst.p
        check_greedy(p, rep.approx, rep.eps_inner)
        if not chk.passed:
            bad = [l.name for l in chk.links if not l.passed]
            bad += [k for k, ok in chk.checks.items() if not ok]
            raise CheckFailed("verify_chain failed: " + ", ".join(bad))
        if p.d != 2:
            return []
        op_gap = _rel_gap(rep.approx.residual_opnorm_est[0],
                          pr.operator_norm_oracle(p))
        gaps = [op_gap]
        # the error form whose subspace norm closes the chain, rebuilt the way
        # concentrate builds it
        p_rot = pr.apply_orthogonal(p, rep.rotation)
        q_rot = pr.zero_poly(p.n, p.d)
        for t in rep.approx.terms:
            q_rot = q_rot + t.lam * pr.pow_linear(rep.rotation.T @ t.u, p.d)
        diff = p_rot - q_rot
        if not diff.is_zero:
            sub_true = _top_k_norm(diff, rep.frame_v.k)
            fact = math.factorial(p.d)
            for rhs in (rep.chain.rhs_bound, chk.values.rhs_bound):
                gaps.append(_rel_gap(math.sqrt(rhs / fact), sub_true))
        if op_gap > OP_ORACLE_TOL or max(gaps[1:], default=0.0) > SUB_ORACLE_TOL:
            raise CheckFailed(f"degree-2 oracle gap {max(gaps):.3g} out of tolerance")
        return gaps

    def opnorm(self, inst: Instance, out):
        a = out[0].approx
        return a.residual_opnorm_est[0], a.input_norm, inst.p


@dataclass(frozen=True, eq=False)
class Command:
    index: int
    label: str
    argv: tuple


class Cli:
    """The criterion-8 command matrix, one fresh process per command."""

    name = "cli"
    n, d = 5, 2

    def __init__(self, src: Path):
        self.src = src

    def make(self, seed: int, workdir: Path) -> list:
        self.workdir = workdir
        self.poly_path = workdir / "p.json"
        report = str(workdir / "rep.json")
        poly = str(self.poly_path)
        cli_seed = int(instance_rng(seed, self.name, 0).integers(2 ** 31))
        fixed = ("--seed", str(cli_seed), "--restarts", "6", "--format", "json")
        matrix = [
            ("gen", "--n", str(self.n), "--d", str(self.d), "--model", "bombieri-gaussian"),
            ("norm", poly),
            ("opnorm", poly),
            ("subnorm", poly, "--k", "2"),
            ("approx", poly, "--eps", "0.5"),
            ("concentrate", poly, "--eps", "0.8", "--eps-inner", "0.45", "--out", report),
            ("chain-check", poly, "--report", report),
            ("bench", "--eps-list", "0.5", "--d-list", "2", "--n-list", "4", "--samples", "2"),
            ("ratio-probe", "--d", "2", "--k", "2", "--n", "4", "--samples", "3"),
        ]
        self.round_size = len(matrix)  # later commands read what `gen` wrote
        return [Command(i, argv[0], argv + fixed) for i, argv in enumerate(matrix)]

    def warmup(self, instances: list) -> Command:
        """The pass's `gen` command: its cost does not depend on the seed."""
        return instances[0]

    def _finish(self, cmd: Command, code: int, stdout: bytes, stderr: bytes):
        if code != 0:
            raise CheckFailed(f"{cmd.label} exited {code}: {stderr.decode()[-300:]}")
        if cmd.label == "gen":
            self.poly_path.write_bytes(stdout)
        if cmd.label == "concentrate":
            stdout += b"\0" + (self.workdir / "rep.json").read_bytes()
        return stdout

    def call(self, cmd: Command):
        env = dict(os.environ, PYTHONPATH=str(self.src))
        proc = subprocess.run([sys.executable, "-m", "polyrank.cli", *cmd.argv],
                              capture_output=True, env=env, timeout=60)
        return self._finish(cmd, proc.returncode, proc.stdout, proc.stderr)

    def call_in_process(self, cmd: Command):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = polyrank.cli.main(list(cmd.argv))
        return self._finish(cmd, code, out.getvalue().encode(), err.getvalue().encode())

    def signature(self, stdout: bytes):
        return stdout

    def _poly(self):
        return pr.serialize.poly_loads(self.poly_path.read_text())

    def check(self, cmd: Command, stdout: bytes) -> list:
        if cmd.label == "opnorm":
            value = json.loads(stdout)["value"]
            gap = _rel_gap(value, pr.operator_norm_oracle(self._poly()))
            if gap > OP_ORACLE_TOL:
                raise CheckFailed(f"opnorm oracle gap {gap:.3g} out of tolerance")
            return [gap]
        if cmd.label == "subnorm":
            gap = _rel_gap(json.loads(stdout)["value"], _top_k_norm(self._poly(), 2))
            if gap > SUB_ORACLE_TOL:
                raise CheckFailed(f"subnorm oracle gap {gap:.3g} out of tolerance")
            return [gap]
        if cmd.label == "approx":
            out = json.loads(stdout)
            if not (out["bound_satisfied"] and out["final_residual_within_eps"]):
                raise CheckFailed("approx broke the step bound or the final residual bound")
        if cmd.label == "chain-check" and json.loads(stdout)["passed"] is not True:
            raise CheckFailed("chain-check reported a failed link")
        return []

    def opnorm(self, cmd: Command, stdout: bytes):
        if cmd.label != "opnorm":
            return None
        p = self._poly()
        return json.loads(stdout)["value"], pr.bombieri_norm(p), p


def build(name: str, src: Path):
    if name == "greedy":
        return Greedy()
    if name == "chain":
        # an instance's cost varies up to 10x with its input (with the number
        # of greedy terms), so the pass is longer than a run: every instance a
        # run times is a distinct input
        return Chain("chain", [("bombieri", n, d) for d in (2, 3) for n in range(4, 9)], 16, 0.45)
    if name == "wide":
        # eps_inner = eps: the greedy stage stops at once on these forms (their
        # sphere max stayed below 0.73 ||p||_B on 480 draws), so every instance
        # takes the k = 0 path. At 0.45, 3% of draws gave one or two greedy terms
        # and cost 6-15 s instead of 1-4 s, and a run's throughput turned on
        # whether its seed drew one.
        return Chain("wide", [("sparse", n, d) for n, d in ((30, 3), (20, 4), (40, 3), (30, 4))],
                     8, 0.9)
    if name == "cli":
        return Cli(src)
    raise ValueError(f"unknown workload {name!r}")

