"""Outside-in benchmark for polyrank.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from the repository root; `--workload all` runs the four workloads in
turn, each in its own process. The package is imported from `src/` of the
checkout, so nothing needs installing. Workloads (see workloads.py):

  greedy  greedy_approximate at the CLI-default OptimizerConfig; almost all of
          its time is operator_norm, and subspace_norm never runs. It is
          not in BENCHMARK.json: its nine instances per pass take 0.5 to 6 s
          each, so a run holds one or two passes, and its throughput spread
          0.19-0.29 (IQR / median) over five to nine seeds. Run it by name
          for traces of the sphere maximizer.
  chain   concentrate + verify_chain on dense Bombieri-Gaussian forms, d = 2
          and 3, n = 4..8; subspace_norm is the largest layer, and the d = 2
          half has exact eigenvalue oracles
  wide    the chain pipeline on sparse forms (3n terms) with n**d from 2.7e4
          to 8.1e5, so substitution and dense tensors weigh in. It is not
          in BENCHMARK.json: over ten seeds its instances_per_s spread
          0.19 (IQR / median) scaled by the kernel below and 0.13
          unscaled, against 0.06 scaled for chain. The kernel does not
          track how its large dense tensors slow down under other
          tenants' load, and a 30-s run holds only 16 inputs. Run it by
          name for traces of substitution and dense tensors.
  cli     the acceptance-criterion-8 command matrix, one fresh
          `python -m polyrank.cli` process per command: cold start, argparse
          and canonical JSON

Load is a closed loop with one client: one process runs the instances of a
pass in order, each after the previous one completes, until --seconds have
passed, repeating the pass if the run outlasts it. A run always ends on a
whole round (one instance of each cell of the pass, see workloads.py), so
every run weighs the cells of its workload alike. BLAS libraries are held to
one thread.

The host may be shared: on 2 cores of a shared cloud host, other tenants
slowed every instance by up to 50% for stretches of 5 s to several minutes,
longer than a run. So the untraced run also times a fixed kernel of the
benchmark's own (a reference.py sphere search on a fixed form, which does not
change with polyrank) about every CALIBRATE_EVERY_S seconds, between
instances and outside their times, and scales throughput by how much slower
than KERNEL_REF_S the kernel ran.

--trace 0 prints the end-to-end metrics:
  setup_s            median of five set-ups (this process, then two fresh
                     processes before the timed loop and two after it):
                     imports, instance generation, and one warm-up instance
                     whose input is the same on every seed
  instances_per_s    instances completed without failure / the sum of the
                     instance times, times (median kernel time / KERNEL_REF_S):
                     throughput at the host speed at which the kernel takes
                     KERNEL_REF_S. The unscaled rate and the kernel times are
                     printed as `info` lines.
  opnorm_value_rel   mean over the instances the run reached of the sphere
                     max polyrank reports for each input form, divided by
                     the benchmark's reference value for that form
                     (reference.py)
The median instance time, the highest percentile with ten samples beyond it
and the sample count are printed as `info` lines. The median is not an
end-to-end metric: on passes that mix instance sizes it jumps between sizes
from one seed to the next (IQR / median 0.24 over five seeds on `wide`).
--trace 1 runs the pass in this process untraced for --seconds, then the same
instances again with every layer wrapped (tracer.py), and prints per-layer
self times, counts and optimizer quality counters, with the tracing
overhead. Self times and counts are means per traced instance; the shares of
the traced wall time are printed as info. For cli the traced run calls
polyrank.cli.main in this process, and the cost of a fresh process is measured
apart (cli.interpreter_s, cli.import_s).

Every result is checked outside the timed region (workloads.py); a failed
check or a raise counts in `failed`. The last line of stdout is the JSON
result; the full record, with the environment, goes to
.perfbench/result-<workload>-seed<seed>-trace<t>.json and the spans of a
traced run to .perfbench/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("greedy", "chain", "wide", "cli")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 2   # fresh-process set-ups before the timed loop, and again after it
PROCESS_PROBES = 3
CALIBRATE_EVERY_S = 1.0
KERNEL_REF_S = 0.05  # about the kernel's time on an uncontended core of a 2-core cloud host


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate the pass, run the workload's fixed warm-up instance;
    time all of it."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.build(workload, SRC)
    instances = wl.make(seed, workdir)
    wl.call(wl.warmup(instances))
    return wl, instances, time.perf_counter() - t0


class Kernel:
    """A fixed search of the benchmark's own (reference.py, on a fixed dense
    cubic in 6 variables), timed between instances to track how fast the host
    runs this process. A change to polyrank does not change it."""

    def __init__(self):
        import numpy as np
        import reference
        rng = np.random.default_rng(20121113)
        terms = {tuple(idx.count(i) for i in range(6)): float(rng.standard_normal())
                 for idx in itertools.combinations_with_replacement(range(6), 3)}
        self._search = functools.partial(reference.sphere_max, 6, 3, terms, 0)
        self._search()  # warm-up, untimed
        self.times = []

    def run(self) -> None:
        t0 = time.perf_counter()
        self._search()
        self.times.append(time.perf_counter() - t0)


class Loop:
    """Instances of a pass run back to back, in order, with their outcomes."""

    def __init__(self, wl, instances, call, seconds=None, count=None, tracer=None,
                 kernel=None):
        """Run whole rounds until `count` instances are done, or until
        `seconds` have passed. With a `kernel`, time it between instances
        about every CALIBRATE_EVERY_S seconds."""
        import tracer as tracing
        self.times, self.index, self.errors, self.first = [], [], {}, {}
        n = len(instances)
        start = last_kernel = time.perf_counter()
        i = 0
        while True:
            inst = instances[i % n]
            if tracer is not None:
                tracer.instance = i
                root = tracer.open(tracing.ROOT, inst.label)
            t0 = time.perf_counter()
            try:
                out, err = call(inst), None
            except Exception as exc:  # a failed instance is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(root)
            self.times.append(t1 - t0)
            self.index.append(inst.index)
            if err is None and i < n:
                self.first[inst.index] = out
            elif err is None and inst.index in self.first:
                if wl.signature(out) != wl.signature(self.first[inst.index]):
                    err = "repeat differs from the first result"
            if err is not None:
                self.errors[i] = err
            i += 1
            done = i >= count if count is not None else t1 - start >= seconds
            if done and i % wl.round_size == 0:
                break
            if kernel is not None and time.perf_counter() - last_kernel >= CALIBRATE_EVERY_S:
                kernel.run()
                last_kernel = time.perf_counter()
        if kernel is not None:
            kernel.run()
        self.wall = time.perf_counter() - start

    def check(self, wl, instances):
        """Check each instance's first result; return (reason per failed
        execution, oracle gaps)."""
        import workloads
        bad, gaps = {}, []
        for inst in instances:
            if inst.index not in self.first:
                continue
            try:
                gaps += wl.check(inst, self.first[inst.index])
            except Exception as exc:  # a check that raises is a failure
                kind = "" if isinstance(exc, workloads.CheckFailed) else f"{type(exc).__name__}: "
                bad[inst.index] = kind + str(exc)
        reasons = dict(self.errors)
        for i, idx in enumerate(self.index):
            if idx in bad:
                reasons.setdefault(i, bad[idx])
            elif idx not in self.first:
                reasons.setdefault(i, "the first run of this instance failed")
        return reasons, gaps


def quality(wl, instances, loop, refs: dict):
    """(opnorm_value_rel, mean value / Bombieri norm) over the first result
    of each instance the run reached.

    `refs` caches the reference value of each instance across calls."""
    import reference
    rel, over_b = [], []
    for inst in instances:
        out = loop.first.get(inst.index)
        q = None if out is None else wl.opnorm(inst, out)
        if q is None:
            continue
        value, bnorm, p = q
        if inst.index not in refs:
            refs[inst.index] = reference.sphere_max(p.n, p.d, dict(p.terms), seed=inst.index)
        rel.append(value / refs[inst.index])
        over_b.append(value / bnorm)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return mean(rel), mean(over_b)


def _python(args: list, timeout: float = 60) -> str:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"python {args[:2]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc.stdout


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh process."""
    out = _python([str(Path(__file__).resolve()), "--setup-probe",
                   "--workload", workload, "--seed", str(seed)])
    return float(out.split()[-1])


def process_costs() -> tuple:
    """(interpreter start, fresh `import polyrank.cli`): medians over fresh processes."""
    interp, imp = [], []
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import polyrank.cli; print(time.perf_counter() - t)" % str(SRC))
    for _ in range(PROCESS_PROBES):
        t0 = time.perf_counter()
        _python(["-c", "pass"])
        interp.append(time.perf_counter() - t0)
        imp.append(float(_python(["-c", code]).split()[-1]))
    return statistics.median(interp), statistics.median(imp)


def percentile_tail(times: list):
    """Highest whole percentile with at least ten samples beyond it, as
    (percentile, seconds); None when that would be the median or below."""
    n = len(times)
    pct = math.floor(100 * (1 - 10 / n))
    if pct <= 50:
        return None
    return pct, statistics.quantiles(times, n=100)[pct - 1]


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "polyrank").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": commit, "src_sha256": digest.hexdigest(),
        "load": "closed loop, one client, one process",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "polyrank" / "__init__.py").is_file():
        print(f"error: no polyrank package under {SRC}; run from a polyrank checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    tag = "probe" if args.setup_probe else "run"
    workdir = WORK / f"{args.workload}-seed{args.seed}-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, instances, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        return measure(args, wl, instances, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, instances, setup_s: float) -> int:
    if args.trace == 0:
        metrics, extras, reasons, attempted, notes = untraced(args, wl, instances, setup_s)
    else:
        metrics, extras, reasons, attempted, notes = traced(args, wl, instances)
    failed = len(reasons)
    for i, why in sorted(reasons.items())[:5]:
        print(f"failure: execution {i}: {why}", file=sys.stderr)
    for note in notes:
        print(f"failure: {note}", file=sys.stderr)
    correct = failed == 0 and not notes
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    extras["failed_frac"] = failed / attempted
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for name, value in extras.items():
        print(f"info {name} {json.dumps(value)}")
    record = {"env": env, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "info": extras, "failures": {str(k): v for k, v in reasons.items()}}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def untraced(args, wl, instances, setup_s: float):
    """The end-to-end metrics: the workload as a user runs it."""
    setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    kernel = Kernel()
    loop = Loop(wl, instances, wl.call, seconds=args.seconds, kernel=kernel)
    setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    reasons, _ = loop.check(wl, instances)
    value_rel, _ = quality(wl, instances, loop, {})
    attempted, completed = len(loop.times), len(loop.times) - len(reasons)
    rate = completed / sum(loop.times)
    slowdown = statistics.median(kernel.times) / KERNEL_REF_S
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "instances_per_s": (rate * slowdown, "1/s"),
        "opnorm_value_rel": (value_rel, "ratio"),
    }
    extras = {
        "unscaled_instances_per_s": rate,
        "kernel_s": kernel.times,
        "instance_p50_s": statistics.median(loop.times),
        "instance_samples": attempted,
        "setup_samples_s": setups,
    }
    tail = percentile_tail(loop.times)
    if tail:
        extras[f"instance_p{tail[0]}_s"] = tail[1]
    return metrics, extras, reasons, attempted, []


def traced(args, wl, instances):
    """Per-layer metrics: the pass untraced, then the same instances traced,
    both in this process."""
    import tracer as tracing
    wl.call_in_process(instances[0])
    plain = Loop(wl, instances, wl.call_in_process, seconds=args.seconds)
    tr = tracing.Tracer()
    with tr.installed():
        loop = Loop(wl, instances, wl.call_in_process, count=len(plain.times), tracer=tr)
    tr.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    reasons, gaps = loop.check(wl, instances)
    plain_reasons, _ = plain.check(wl, instances)
    refs: dict = {}
    value_rel, over_b = quality(wl, instances, loop, refs)
    plain_rel, _ = quality(wl, instances, plain, refs)
    notes = []
    if plain_rel != value_rel or len(plain_reasons) != len(reasons):
        notes.append("traced run did not reproduce the untraced opnorm_value_rel / failures")
    interp, imp = process_costs()
    # a cli command in the untraced run is a fresh process: count its start
    procs = len(loop.times) if args.workload == "cli" else 0
    base = tr.inclusive_s[tracing.ROOT] + procs * (interp + imp)
    metrics = tr.metrics(len(loop.times), base)
    metrics.update({
        "cli.interpreter_s": (interp, "s"),
        "cli.import_s": (imp, "s"),
        "sphere.operator_norm.value_over_bombieri": (over_b, "ratio"),
        "sphere.oracle_gap_max": (max(gaps, default=0.0), "ratio"),
        "trace.instances": (len(loop.times), "count"),
        "trace.wall_s": (loop.wall, "s"),
        "trace.overhead_s": (loop.wall - plain.wall, "s"),
    })
    self_s = dict(tr.self_s, **{"cli.interpreter": procs * interp, "cli.import": procs * imp})
    self_s = dict(sorted(self_s.items(), key=lambda kv: -kv[1]))
    extras = {
        "untraced_wall_s": plain.wall,
        "opnorm_value_rel": value_rel,
        "self_s": self_s,
        # shares of the traced wall sum to 1: a faster layer raises the others
        "self_share": {layer: t / base for layer, t in self_s.items()},
        "largest_layer": next(iter(self_s)),
        "attributed_frac": 1.0 - tr.self_s[tracing.ROOT] / base,
    }
    return metrics, extras, reasons, len(loop.times), notes


def run_all(args) -> int:
    """Run every workload in turn, each in its own process, and print all of
    their lines; the last line joins their results."""
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{w} {line}")
        results[w] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
