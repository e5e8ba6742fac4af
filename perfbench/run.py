"""krrsolve benchmark: seeded KRR workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload full-cloud --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

One invocation writes the workload's dataset for ``--seed`` as libsvm and
runs the configuration once through ``harness.run_experiment``, untimed, as
the user path to check against.  ``--trace 0`` then runs the staged pipeline
in a fresh process: set-up three times, one warm-up solve, then solve and
predict repeatedly for ``--seconds``; it reports the end-to-end metrics as
medians.  ``--trace 1`` runs a traced process, an untraced one and a second
traced one, then the coverage sweep, and reports the per-layer metrics.
Each metric is printed with its unit, then one JSON line.  The exit code is
1 if any correctness check failed and 2 if the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
DEADLINE_S = 170.0  # every invocation must end within 180 s
# counts a traced repetition must repeat exactly at the same seed
DETERMINISTIC = ("kernels.entries", "kernels.block_calls", "kernels.matvec_calls",
                 "pcg.operator_calls", "precond.apply_calls", "pcg.iterations",
                 "lowrank.rank")
END_TO_END_FROM_REPS = ("setup_s", "solve_s", "predict_s", "peak_rss_mb",
                        "iterations", "test_error")


def load_spec() -> dict:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class Invocation:
    """One workload at one seed: its work directory and its child processes."""

    def __init__(self, workload, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-s{seed}-", dir=WORK))
        self.data = self.dir / "data.libsvm"
        self.jobs = 0

    def run(self, mode: str, **job) -> dict:
        """Run one job in a fresh interpreter; a crash becomes a failure."""
        self.jobs += 1
        job.update(mode=mode, workload=self.workload.name, seed=self.seed,
                   data=str(self.data), result=str(self.dir / f"result-{self.jobs}.json"))
        job_path = self.dir / f"job-{self.jobs}.json"
        job_path.write_text(json.dumps(job))
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                                  stdout=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"crashed": True, "failures": [f"{mode} job timed out"]}
        if proc.returncode != 0:
            return {"crashed": True,
                    "failures": [f"{mode} job exited with code {proc.returncode}"]}
        return json.loads(Path(job["result"]).read_text())


def _median(reps, key):
    """Median over every sample of ``key`` the repetitions recorded."""
    values = []
    for r in reps:
        sample = r.get(key, [])
        values += sample if isinstance(sample, list) else [sample]
    return float(statistics.median(values)) if values else 0.0


def measure(inv: Invocation, seconds: float, trace: bool):
    """The untimed cross-check, then repetitions for ``seconds``.

    Returns the repetitions, every failure message, and the sweep result.
    """
    check = inv.run("check", out_dir=str(inv.dir / "run_experiment"),
                    reference=str(inv.dir / "in_memory.npy"))
    if check.get("crashed"):
        return [], check["failures"], {}
    reference = str(inv.dir / "in_memory.npy") if inv.workload.stream else None
    reps, failures = [], []
    # A traced run brackets one untraced process, whose solve time is the
    # baseline for the tracing overhead, with two traced ones, whose counts
    # must agree; the untraced one gets half the time, the sweep the rest.
    for traced in ([True, False, True] if trace else [False]):
        rep = inv.run("rep", trace=traced, expected=check, reference=reference,
                      inner_seconds=seconds / 2 if trace else seconds,
                      spans=str(inv.dir / f"spans-{len(reps)}.json"))
        reps.append(rep)
        failures += rep["failures"]
        if rep.get("crashed"):
            break
    sweep = inv.run("sweep") if trace and not failures else {}
    return reps, failures + sweep.get("failures", []), sweep


def run_workload(workload, seed: int, seconds: float, trace: bool, spec: dict) -> bool:
    from workloads import make_dataset, write_libsvm

    inv = Invocation(workload, seed, time.perf_counter())
    try:
        write_libsvm(str(inv.data), *make_dataset(workload, seed))
        reps, failures, sweep = measure(inv, seconds, trace)
    finally:
        inv.data.unlink(missing_ok=True)
        shutil.rmtree(inv.dir / "run_experiment", ignore_errors=True)

    # every solve is an attempt; a failed check fails each solve of its
    # process, and a failed cross-check or sweep fails the run
    attempted = max(1, sum(r.get("solves", 1) for r in reps))
    failed = max(sum(r.get("solves", 1) for r in reps if r["failures"]),
                 int(bool(failures)))
    if trace:
        listed = spec["per_layer"]
        metrics, notes = _layer_metrics(reps, sweep)
    else:
        listed = spec["end_to_end"]
        metrics = {k: _median([r for r in reps if not r["failures"]] or reps, k)
                   for k in END_TO_END_FROM_REPS}
        metrics["solved_frac"] = 1.0 - failed / attempted
        notes = [f"  true_rel_residual {_median(reps, 'true_rel_residual'):.3e} "
                 f"(checked <= 10 eps = {10 * workload.epsilon:.0e})"]
    threads = bootstrap.blas_threads()

    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"blas_threads {threads}  solves {attempted}  failed {failed}")
    width = max(len(m["name"]) for m in listed)
    for m in listed:
        metrics.setdefault(m["name"], 0.0)  # a run that failed early lacks some
        print(f"  {m['name']:<{width}}  {metrics[m['name']]:.6g} {m['unit']}")
    for line in notes + [f"  FAILED: {f}" for f in failures]:
        print(line)
    print(f"  work directory: {inv.dir}")
    ok = not failures
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }), flush=True)
    return ok


def _layer_metrics(reps, sweep):
    traced = [r for r in reps if r.get("trace") and "layers" in r]
    untraced = [r for r in reps if not r.get("trace") and "solve_s" in r]
    layers = [r["layers"] for r in traced]
    notes = []
    metrics = {key: float(statistics.median(layer[key] for layer in layers))
               for key in (layers[0] if layers else {})}
    mismatches = [k for k in DETERMINISTIC
                  if len({layer.get(k) for layer in layers}) > 1]
    for k in mismatches:
        notes.append(f"  NONDETERMINISTIC: {k} = {[layer.get(k) for layer in layers]}")
    metrics["determinism.mismatches"] = float(len(mismatches))
    metrics["trace.overhead_s"] = _median(traced, "solve_s") - _median(untraced, "solve_s")
    metrics.update({k: float(v) for k, v in sweep.items() if k.startswith("sweep.")})
    metrics["pcg.true_rel_residual"] = _median(traced, "true_rel_residual")
    metrics["env.blas_threads"] = float(bootstrap.blas_threads())
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap.import_package()
        spec = load_spec()
    except (bootstrap.MissingPackage, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    ok = True
    for name in names:
        ok &= run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace), spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
