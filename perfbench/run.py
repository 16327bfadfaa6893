"""Run one benchmark workload against the floerrank sources of this checkout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: botany_table, witness_suite, root_render, rank_large (see
README.md).  A run sets up the workload several times, then repeats whole
rounds of its operations for --seconds, each round from a cold start (every
memo cache of floerrank cleared), and checks every output.  The last line
of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced rounds, then runs one memory round, and reports the per-layer
metrics and the tracing overhead.  Exit status 2 when the checkout has no
floerrank sources or an argument is bad.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # one thread, before numpy is imported

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def metric_units(section):
    """Name -> unit of the metrics BENCHMARK.json lists under section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_latencies(op_times):
    """Each operation's median time over the rounds (op_times: one list per round).

    Rounds repeat the same operations, so what varies between an operation's
    rounds is the machine, which here slows down for a second or so at a
    time: a per-operation median shrugs off a slowdown that hits most rounds
    somewhere, where the median of the round totals would not.
    """
    return [statistics.median(times) for times in zip(*op_times)]


def load_floerrank():
    """Import floerrank from this checkout's src/ and return its layer modules."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("floerrank")
    if Path(package.__file__).resolve().parent != SRC / "floerrank":
        raise ImportError(f"floerrank resolved to {package.__file__}, not {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"floerrank.{name}")
                              for name in LAYERS})


def memo_caches():
    """Every memo cache (an lru_cache) bound in a floerrank module."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "floerrank" or name.startswith("floerrank."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def measure_setup(workload, cases):
    """Median over SETUP_REPEATS of: a fresh interpreter importing floerrank,
    plus building the program's inputs for the cases in this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        subprocess.run([sys.executable, "-c", "import floerrank"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        inputs = workload.prepare(cases)
        times.append(perf_counter() - started)
    return statistics.median(times), inputs


class Runner:
    """Rounds of one workload: cold caches, timed operations, checked outputs.

    Each round's outputs are checked as soon as the round ends, outside the
    timing, and only the error strings are kept: what the process holds
    between rounds does not grow with the number of rounds, so a faster
    program does not read as a bigger one in peak_rss_mb.
    """

    def __init__(self, workload, cases, inputs, caches):
        self.workload, self.cases, self.inputs, self.caches = workload, cases, inputs, caches
        self.op_times, self.errors = [], []
        self.attempted = self.failed = 0
        self.first_failure = None

    def round(self):
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        ops = self.workload.ops(self.inputs)
        outputs, times = [], []
        for op in ops:
            t0 = perf_counter()
            try:
                out = op()
            except Exception as exc:   # a failing operation is counted, not fatal
                out = None
                self.failed += 1
                self.first_failure = self.first_failure or f"{type(exc).__name__}: {exc}"
            times.append(perf_counter() - t0)
            outputs.append(out)
        self.op_times.append(times)
        self.attempted += len(ops)
        self.errors.extend(self.workload.check(self.cases, outputs))
        return outputs


def run_untraced(runner, seconds, setup_s):
    deadline = perf_counter() + seconds
    while True:
        runner.round()
        if perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = op_latencies(runner.op_times)
    return {"setup_s": setup_s,
            "run_s": sum(latencies),
            "op_p50_ms": percentile(latencies, 0.5) * 1e3,
            "op_p90_ms": percentile(latencies, 0.9) * 1e3,
            "peak_rss_mb": peak_rss_mb}


def run_traced(runner, seconds, names):
    tracer = Tracer()
    untraced, traced, layer_times, counts = [], [], [], Counter()
    deadline = perf_counter() + seconds
    while True:
        runner.round()
        untraced.append(runner.op_times[-1])
        tracer.reset()
        tracer.install()
        try:
            outputs = runner.round()
        finally:
            tracer.uninstall()
        traced.append(runner.op_times[-1])
        times = tracer.self_times()
        layer_times.append(times)
        counts = Counter(tracer.counts)
        counts.update(runner.workload.extra_counts(outputs))
        counts["trace.spans"] = len(tracer.starts)
        counts["botany.rank_evals"] = int(times.pop("botany.rank_evals", 0))
        if perf_counter() >= deadline:
            break
    tracer.reset()
    tracer.memory = True
    tracer.install()
    try:
        runner.round()
    finally:
        tracer.uninstall()

    metrics = {name: 0 for name in names}
    for name in {key for times in layer_times for key in times}:
        if name in metrics:
            metrics[name] = statistics.median(times.get(name, 0.0) for times in layer_times)
    for name, value in counts.items():
        if name in metrics:
            metrics[name] = value
    if counts["seifert.delta_entries"]:
        metrics["seifert.ns_per_entry"] = (metrics["seifert.self_s"] * 1e9
                                           / counts["seifert.delta_entries"])
    if counts["botany.rank_evals"]:
        metrics["botany.hit_ratio"] = counts["botany.row_tuples"] / counts["botany.rank_evals"]
    metrics["seifert.peak_alloc_mb"] = tracer.peak_alloc / 2**20
    metrics["trace.traced_run_s"] = sum(op_latencies(traced))
    metrics["trace.untraced_run_s"] = sum(op_latencies(untraced))
    metrics["trace.overhead_s"] = metrics["trace.traced_run_s"] - metrics["trace.untraced_run_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "floerrank" / "__init__.py").is_file():
        print(f"perfbench: no floerrank sources under {SRC}", file=sys.stderr)
        return 2
    fr = load_floerrank()
    workload = WORKLOADS[args.workload](fr)
    cases = workload.build(args.seed)
    setup_s, inputs = measure_setup(workload, cases)
    runner = Runner(workload, cases, inputs, memo_caches())
    if args.trace:
        units = metric_units("per_layer")
        metrics = run_traced(runner, args.seconds, units)
    else:
        units = metric_units("end_to_end")
        metrics = run_untraced(runner, args.seconds, setup_s)

    errors = runner.errors
    for line in errors[:10]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    if runner.first_failure:
        print(f"perfbench: {runner.failed} operations failed, first: {runner.first_failure}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
