"""tunnelgraph benchmark: one closed-loop client, one op at a time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 55 --trace 0

Workloads are ``quickstart`` and ``recovery`` (workloads.py, README.md).
Op ``i`` of a run uses scenario seed ``1000 * seed + i``; ops start until
the next one would end after ``--seconds``.

``--trace 0`` times untraced ops and reports the end-to-end metrics.
``--trace 1`` runs every scenario seed twice, untraced and then traced,
and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
environment, every op, and every metric with its unit and sample count.
Results and spans are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads, so that an op uses one core whatever the
# machine has; a second BLAS thread gave the ops no speed-up.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import dataclasses
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 7
# warm-up scenario: every code path of an op, in a fraction of a second
TINY_CONFIG = "trajectory.straight_length = 10\n"

# per-layer metrics reported in the JSON line (--trace 1); the printed
# table and the result file hold every metric the trace yields
PER_LAYER = (
    "op_s",
    "trace.overhead_s",
    "pipeline.self_s",
    "pipeline.optimize_track_s",
    "simulate.self_s",
    "simulate.ground_truth_s",
    "simulate.corrupt_s",
    "simulate.corrupt_frames",
    "simulate.detect_s",
    "simulate.sightings",
    "simulate.detect_yield",
    "sync.self_s",
    "sync.align_s",
    "sync.inserted_nodes",
    "graph.build_s",
    "graph.nodes",
    "graph.odo_edges",
    "graph.obs_edges",
    "optimizer.optimize_s",
    "optimizer.dvso.optimize_s",
    "optimizer.dvso.iterations",
    "optimizer.dvso.s_per_iter",
    "optimizer.dvso.final_cost",
    "optimizer.wheel.iterations",
    "optimizer.wheel.final_cost",
    "metrics.corrections_s",
    "geometry.compose_s",
    "geometry.log_s",
    "geometry.jr_inv_s",
    "geometry.batch",
    "geometry.compose_bytes",
    "geometry.log_bytes",
    "geometry.jr_inv_bytes",
    "fileio.bytes_written",
    "fileio.bytes_read",
)


def import_program():
    """Import tunnelgraph from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "tunnelgraph", "__init__.py")):
        sys.exit(f"perfbench: no tunnelgraph sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tunnelgraph

    found = os.path.dirname(os.path.dirname(os.path.abspath(tunnelgraph.__file__)))
    if found != SRC:
        sys.exit(f"perfbench: tunnelgraph imported from {found}, not {SRC}")
    return tunnelgraph


def measure_setup(repeats=SETUP_REPEATS):
    """Fresh-interpreter times to import tunnelgraph.cli (numpy, scipy too)."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "start = time.perf_counter()\n"
        "import tunnelgraph.cli\n"
        "print(repr(time.perf_counter() - start))\n"
    )
    times = []
    # the first import may compile bytecode; it is not counted
    for k in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if k:
            times.append(float(proc.stdout.split()[-1]))
    return times


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "commit": commit or "unknown",
    }


def high_percentile(values):
    """Highest usual percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = int(-(-p * n // 100))  # nearest rank, 1-based
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


class Bench:
    """Runs one workload's ops as a closed loop and keeps a record of each."""

    def __init__(self, workload_cls, seed, seconds, trace, extra_config=""):
        import spans
        import tunnelgraph

        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = os.path.join(OUT, f"work-{os.getpid()}")
        self.workload_cls = workload_cls
        self.workload = workload_cls(self.workdir, extra_config)
        self.tracer = spans.Tracer(tunnelgraph)
        self.ops = []
        self.graphs = {}  # solved graphs of the last traced op
        self.kernels = {}  # geometry kernel probes on those graphs

    def _op(self, seed, traced):
        record = {"op": len(self.ops), "seed": seed, "traced": traced, "reasons": {}}
        self.ops.append(record)
        span = self.tracer.span if traced else contextlib.nullcontext
        scope = self.tracer.op(record["op"]) if traced else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                handle = self.workload.run(seed, span)
            record["wall_s"] = time.perf_counter() - start
            checked = self.workload.check(handle, keep_graphs=traced)
        except Exception:  # a failed op is counted; the run goes on
            record.setdefault("wall_s", time.perf_counter() - start)
            record["problems"] = [traceback.format_exc(limit=4)]
            return
        record.update(
            problems=checked.problems,
            ate_m=checked.ate_m,
            recovery_err=checked.recovery_err,
            reasons=checked.reasons,
        )
        if checked.graphs:
            self.graphs = checked.graphs

    def run(self):
        """Warm up on a tiny scenario, then run ops until time is up."""
        import workloads

        try:
            warm = self.workload_cls(os.path.join(self.workdir, "warm"), TINY_CONFIG)
            try:
                warm.check(warm.run(0, contextlib.nullcontext))
            except Exception:  # the timed ops will fail and be counted
                traceback.print_exc()
            ops_per_seed = 2 if self.trace else 1
            began = time.perf_counter()
            for i in range(1000):  # below 1000, so runs never share a scenario seed
                if self.ops:
                    expected = ops_per_seed * statistics.median(r["wall_s"] for r in self.ops)
                    if time.perf_counter() - began + expected > self.seconds:
                        break
                seed = 1000 * self.seed + i
                self._op(seed, traced=False)
                if self.trace:
                    self._op(seed, traced=True)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        if self.graphs:
            self.kernels = workloads.probe_kernels(self.graphs.values())

    @property
    def failed(self):
        return sum(bool(r["problems"]) for r in self.ops)


class Metric:
    """Samples of one metric and the statistic that summarizes them."""

    def __init__(self, unit, samples, stat="median"):
        self.unit = unit
        self.samples = list(samples)
        self.stat = stat

    @property
    def value(self):
        if not self.samples:
            return None
        return getattr(statistics, self.stat)(self.samples)

    def line(self, name):
        p, v = high_percentile(self.samples)
        tail = f", p{p:g} {v:.6g}" if p is not None else ""
        value = "n/a" if self.value is None else f"{self.value:.6g}"
        return f"{name} {value} {self.unit} ({self.stat}, n={len(self.samples)}{tail})"


def end_to_end(bench, setup_samples):
    ok = [r for r in bench.ops if not r["problems"]]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # ATE and the recovery error vary with the scenario seed; the mean of a
    # run's ops is steadier from run to run than their median
    return {
        "run_s": Metric("s", [r["wall_s"] for r in bench.ops]),
        "setup_s": Metric("s", setup_samples),
        "peak_rss_mb": Metric("MB", [peak_mb]),
        "ate_m": Metric("m", [r["ate_m"] for r in ok], "mean"),
        "recovery_err": Metric("ratio", [r["recovery_err"] for r in ok], "mean"),
    }


def per_layer(bench):
    """Medians over the traced ops; kernel probes are one sample each."""
    import spans

    untraced = {r["seed"]: r for r in bench.ops if not r["traced"]}
    per_op = []
    for r in bench.ops:
        if not r["traced"]:
            continue
        m = spans.op_metrics([s for s in bench.tracer.spans if s.op == r["op"]])
        gated = m.get("simulate.gated", 0)
        m["simulate.detect_yield"] = m.get("simulate.sightings", 0) / gated if gated else 0.0
        m["trace.overhead_s"] = r["wall_s"] - untraced[r["seed"]]["wall_s"]
        per_op.append(m)
    names = sorted({k for m in per_op for k in m})
    table = {name: Metric(unit_of(name), [m.get(name, 0.0) for m in per_op]) for name in names}
    for name, value in bench.kernels.items():
        table[name] = Metric(unit_of(name), [value])
    return table


def unit_of(name):
    if name.endswith("_bytes") or name.startswith("fileio.bytes"):
        return "B"
    if name.endswith("_s") or name.endswith("s_per_iter"):
        return "s"
    if name.endswith("detect_yield"):
        return "ratio"
    if name.endswith("final_cost"):
        return "cost"
    return "count"


def main(argv=None, extra_config="", out=None):
    import workloads

    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    env = environment(args.seed)
    setup_samples = [] if args.trace else measure_setup()
    bench = Bench(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace, extra_config
    )
    bench.run()

    print("environment " + json.dumps(env, sort_keys=True), file=out)
    for r in bench.ops:
        status = "FAILED: " + " | ".join(r["problems"]) if r["problems"] else "ok"
        print(
            f"op {r['op']} seed {r['seed']} traced {int(r['traced'])} "
            f"wall {r['wall_s']:.4f} s stop {r['reasons']} {status}",
            file=out,
        )
    attempted, failed = len(bench.ops), bench.failed
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} ops)", file=out)

    table = per_layer(bench) if args.trace else end_to_end(bench, setup_samples)
    for name, metric in table.items():
        print(metric.line(name), file=out)
    # a per-layer count of a layer the workload never calls reads 0
    metrics = {
        name: {
            "value": table[name].value if name in table else 0,
            "unit": table[name].unit if name in table else unit_of(name),
        }
        for name in (PER_LAYER if args.trace else table)
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        record = {
            **result,
            "environment": env,
            "ops": bench.ops,
            "table": {name: vars(metric) for name, metric in table.items()},
        }
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        with open(os.path.join(OUT, f"spans-{tag}.jsonl"), "w", encoding="utf-8") as fh:
            for s in bench.tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
    print(json.dumps(result), file=out)
    return 0


if __name__ == "__main__":
    import_program()
    sys.exit(main())
