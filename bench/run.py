"""The qwps benchmark.

    python3 bench/run.py --workload {cli,algebra,spectral} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src``.  Each
workload is a closed loop with a single client: the next task starts when
the previous one has returned.  A pass runs every task of the workload once,
in an order drawn from ``--seed``; whole passes run until ``--seconds`` is
nearest.  Every result is checked (bench/workloads.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, then wraps qwps's layer entry points (bench/spans.py) and
prints per-layer metrics per traced pass, plus the traced over untraced
throughput.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; an environment line
and one line per metric come before it.  End-to-end times are scaled by
the host's measured speed (HostSpeed); the raw values are printed beside
them.  BLAS libraries are held to one thread in this process and every
child.
"""

from __future__ import annotations

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy is first imported, here or in a child

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from spans import ENTRY_POINTS, SETUP_TASK, Tracer, load_dump, span_totals  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
DIGITS_CAP = 16.0
# spans whose call counts are reported; cg.cg_block's and cli.main's time is
# reported through cg.build and the cli.* metrics instead of as self time
COUNTED_SPANS = ("qcore.irrep_word", "qcore.coproduct_action", "cg.cg_block", "coord.multiply",
                 "operators.operator_norm", "teardrop.ambient_word")
UNTIMED_SPANS = ("cg.cg_block", "cli.main")


class HostSpeed:
    """Timings of a fixed calibration kernel, taken through a run.

    On the shared 2-core virtual machine this benchmark was written on, speed
    drifts by up to 1.45x in phases of about a minute (a fixed loop timed for
    three minutes has 15-second means from 0.81 to 1.18 of its median), so
    one run mostly sits in one phase.  End-to-end times are therefore scaled
    to a host on which the kernel takes ``reference_s``: raw time x
    reference_s / (median kernel time over the run).  Two kernels, because
    the two kinds of work drift apart: ``compute`` (Python, dict/complex and
    LAPACK work in this process) for the in-process workloads' tasks, and
    ``interpreter`` (a fresh ``python -c "import numpy"``) for set-up probes
    and cli commands.  Over four minutes, 20-second means of cli commands
    correlated 0.84 with the interpreter kernel and 0.39 with the compute
    kernel.  The raw values go to the result file; traced runs report raw
    times.
    """

    def __init__(self, kernel, reference_s: float, interval_s: float):
        self._kernel = kernel
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._last = -math.inf

    @classmethod
    def compute(cls) -> "HostSpeed":
        import numpy as np

        a = np.random.default_rng(0).standard_normal((64, 64))
        matrix = a + a.T

        def kernel() -> float:
            t0 = perf_counter()
            acc = 0
            for i in range(40000):
                acc += (i * i) % 7
            table: dict[int, complex] = {}
            for i in range(10000):
                table[i % 97] = table.get(i % 97, 0) + 1j * i
            for _ in range(20):
                np.linalg.eigvalsh(matrix)
            return perf_counter() - t0

        return cls(kernel, 0.010, 0.5)

    @classmethod
    def interpreter(cls, env: dict) -> "HostSpeed":
        cmd = [sys.executable, "-c", "import numpy"]
        return cls(lambda: workloads.run_child(cmd, env).wall_s, 0.2, 2.0)

    def sample(self, force: bool = False) -> None:
        """Time the kernel if ``interval_s`` has passed since the last time."""
        if force or perf_counter() - self._last >= self.interval_s:
            self.samples.append(self._kernel())
            self._last = perf_counter()

    def factor(self) -> float:
        """Multiply a raw time by this to get reference-host time."""
        return self.reference_s / statistics.median(self.samples)

    def record(self) -> dict:
        return {"reference_s": self.reference_s, "factor": self.factor(),
                "samples": len(self.samples)}


@dataclass
class Record:
    name: str
    seconds: float
    ok: bool
    err: float | None
    rss_kb: int | None


def digits(err: float) -> float:
    """Correct decimal digits of a result with relative error ``err``:
    log10(1 + 1/err), which is -log10(err) for small errors and stays
    positive for errors of 1 and above; capped at 16, and 0 for NaN."""
    if math.isnan(err):
        return 0.0
    if err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, math.log10(1.0 + 1.0 / err))


def run_probe(workload: str, env: dict) -> dict:
    """Time one fresh interpreter from its start until the workload could
    time its first task (bench/probe.py)."""
    child = workloads.run_child([sys.executable, str(BENCH_DIR / "probe.py"), workload], env)
    if child.code != 0 or not child.out:
        raise RuntimeError(f"set-up probe for {workload} exited {child.code}:\n{child.err}")
    return {"setup_s": child.first_line_s, "process_s": child.wall_s,
            "import_s": json.loads(child.out)["import_s"]}


def run_passes(tasks, rng, seconds, on_pass_start=None, tracer=None, after_task=None,
               speed=None):
    """Whole passes over ``tasks`` until ``seconds`` is nearest; returns the
    records and the pass count.  ``speed`` samples the host between tasks."""
    records: list[Record] = []
    reported: set[str] = set()
    start = perf_counter()
    passes = 0
    while True:
        order = list(tasks)
        rng.shuffle(order)
        if on_pass_start:
            on_pass_start()
        for task in order:
            if speed is not None:
                speed.sample()
            if tracer is not None:
                tracer.current_task = len(records)
            error = None
            t0 = perf_counter()
            try:
                result = task.run()
            except Exception:  # a failing task is counted, the loop goes on
                error = traceback.format_exc()
            dt = perf_counter() - t0
            ok, err = False, None
            if error is None:
                try:
                    ok, err = task.check(result)
                except Exception:
                    error = traceback.format_exc()
            if error and task.name not in reported:
                reported.add(task.name)
                print(f"task {task.name} raised:\n{error}", file=sys.stderr)
            records.append(Record(task.name, dt, ok, err,
                                  getattr(result, "rss_kb", None) if error is None else None))
            if after_task:
                after_task(task)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds:
            return records, passes


def rate(records) -> float:
    return len(records) / sum(r.seconds for r in records)


def end_to_end(records, probes, workload, setup_factor=1.0, task_factor=1.0) -> dict:
    """The end-to-end metrics, with the set-up and task times multiplied by
    the HostSpeed factors."""
    times = [task_factor * r.seconds for r in records]
    errs = [digits(r.err) for r in records if r.err is not None]
    if workload == "cli":
        peak_kb = max(r.rss_kb for r in records if r.rss_kb is not None)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_factor * statistics.median(p["setup_s"] for p in probes), "s"),
        "tasks_per_s": (rate(records) / task_factor, "1/s"),
        "task_p50_ms": (1e3 * statistics.median(times), "ms"),
        # inclusive: the same tasks sit at the 90th percentile whatever the pass count
        "task_p90_ms": (1e3 * statistics.quantiles(times, n=10, method="inclusive")[8], "ms"),
        "pass_ratio": (sum(r.ok for r in records) / len(records), "ratio"),
        "worst_digits": (min(errs), "digits"),
        "median_digits": (statistics.median(errs), "digits"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


class LayerTotals:
    """Span calls, self time and counters summed over this process and the
    traced cli children."""

    def __init__(self):
        self.calls: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.orth_err = 0.0
        self.main_s: list[float] = []
        self.import_s: list[float] = []

    def add(self, names, arrs, counts, orth_err):
        calls, self_s = span_totals(names, arrs)
        for name in names:
            self.calls[name] = self.calls.get(name, 0) + calls[name]
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s[name]
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0.0) + value
        self.orth_err = max(self.orth_err, orth_err)
        if "cli.main" in names:
            is_main = arrs["name"] == names.index("cli.main")
            self.main_s += list(arrs["end"][is_main] - arrs["start"][is_main])


def per_layer(totals: LayerTotals, passes, traced, untraced, probes, workload) -> dict:
    m = {}
    for span in COUNTED_SPANS:
        m[f"{span}.calls"] = (totals.calls.get(span, 0) / passes, "count")
    for span in dict.fromkeys(name for _, _, name in ENTRY_POINTS):
        if span not in UNTIMED_SPANS:
            m[f"{span}.self_s"] = (totals.self_s.get(span, 0.0) / passes, "s")
    counts = totals.counts
    per_pass = lambda key: counts.get(key, 0.0) / passes  # noqa: E731
    cg_calls = totals.calls.get("cg.cg_block", 0)
    builds = counts.get("cg.cg_block.builds", 0.0)
    pairs = counts.get("coord.multiply.pairs", 0.0)
    m["cg.cg_block.builds"] = (builds / passes, "count")
    m["cg.cg_block.hit_ratio"] = (1.0 - builds / cg_calls if cg_calls else 0.0, "ratio")
    m["cg.build.max_orth_err"] = (totals.orth_err, "abs")
    m["coord.multiply.pairs"] = (per_pass("coord.multiply.pairs"), "count")
    m["coord.multiply.terms_out"] = (per_pass("coord.multiply.terms_out"), "count")
    m["coord.multiply.yield"] = (counts.get("coord.multiply.terms_out", 0.0) / pairs
                                 if pairs else 0.0, "ratio")
    m["dirac.gns_matrix.nnz"] = (per_pass("dirac.gns_matrix.nnz"), "count")
    m["operators.operator_norm.input_dim_sum"] = (
        per_pass("operators.operator_norm.input_dim_sum"), "count")
    m["operators.operator_norm.input_nnz"] = (per_pass("operators.operator_norm.input_nnz"),
                                              "count")
    norm_errs = [r.err for r in traced if r.name.startswith("norm:") and r.err is not None]
    m["operators.operator_norm.rel_err_max"] = (max(norm_errs, default=0.0), "ratio")
    m["teardrop.ambient_word.nnz"] = (per_pass("teardrop.ambient_word.nnz"), "count")
    median = lambda xs: float(statistics.median(xs)) if xs else 0.0  # noqa: E731
    if workload == "cli":
        process_s = median([r.seconds for r in untraced])
        import_s = median(totals.import_s)
    else:
        process_s = median([p["process_s"] for p in probes])
        import_s = median([p["import_s"] for p in probes])
    m["cli.process_s"] = (process_s, "s")
    m["cli.import_s"] = (import_s, "s")
    m["cli.main_s"] = (median(totals.main_s), "s")
    m["cli.import_share"] = (import_s / process_s, "ratio")
    m["trace.task_s"] = (sum(r.seconds for r in traced) / passes, "s")
    m["trace.overhead_ratio"] = (rate(traced) / rate(untraced), "ratio")
    return m


def traced_run(args, tasks, state, rng, pass_start, probes):
    """Half the time untraced, then the set-up again and whole passes with
    every layer entry point wrapped; returns (records, passes, per-layer
    metrics).  Per-layer values are per traced pass, the traced set-up
    included."""
    untraced, untraced_passes = run_passes(tasks, rng, args.seconds / 2, pass_start)
    totals = LayerTotals()
    after_task = None
    traced_tasks = tasks
    if args.workload == "cli":
        child_dir = OUT_DIR / "spans-cli-children"
        shutil.rmtree(child_dir, ignore_errors=True)
        child_dir.mkdir(parents=True)
        names = {t.name for t in tasks}
        traced_tasks = [t for t in workloads.build_tasks("cli", state, traced_spans_dir=child_dir)
                        if t.name in names]

        def after_task(task):
            for dump in child_dir.glob("*.npz"):
                meta, arrs = load_dump(dump)
                totals.add(meta["names"], arrs, meta["counts"], meta["max_orth_err"])
                totals.import_s.append(meta["import_s"])
                dump.unlink()

    tracer = Tracer()
    tracer.install()
    tracer.current_task = SETUP_TASK
    workloads.setup(args.workload)
    orth = []

    def traced_pass_start():
        orth.append(tracer.orth_err_max())
        if pass_start:
            pass_start()

    traced, traced_passes = run_passes(traced_tasks, rng, args.seconds / 2,
                                       traced_pass_start, tracer, after_task)
    tracer.uninstall()
    orth.append(tracer.orth_err_max())
    totals.add(tracer.names, tracer.arrays(), tracer.counts, max(orth))
    tracer.dump(OUT_DIR / f"spans-{args.workload}.npz")
    if tracer.missing:
        print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    metrics = per_layer(totals, traced_passes, traced, untraced, probes, args.workload)
    return untraced + traced, untraced_passes + traced_passes, metrics


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{k: os.environ[k] for k in BLAS_ENV},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few tasks per workload and one set-up probe (bench/selftest.py)")
    p.add_argument("--perturb", action="store_true",
                   help="corrupt one reference or expected exit code (bench/selftest.py)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qwps" / "__init__.py").is_file():
        print(f"error: no qwps package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = workloads.child_env()
    n_probes = 1 if args.smoke else SETUP_PROBES
    interpreter = HostSpeed.interpreter(env)
    probes = []
    for _ in range(n_probes):
        interpreter.sample(force=True)
        probes.append(run_probe(args.workload, env))
    interpreter.sample(force=True)
    speed = HostSpeed.compute() if args.workload in workloads.IN_PROCESS else interpreter
    state = workloads.setup(args.workload)
    state["perturb"] = args.perturb
    tasks = workloads.build_tasks(args.workload, state)
    if args.smoke:
        tasks = [t for t in tasks if t.name in workloads.SMOKE_TASKS[args.workload]]
    pass_start = workloads.algebra_pass_start if args.workload == "algebra" else None
    rng = random.Random(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    raw = {}
    try:
        if args.trace:
            records, passes, metrics = traced_run(args, tasks, state, rng, pass_start, probes)
        else:
            records, passes = run_passes(tasks, rng, args.seconds, pass_start, speed=speed)
            raw = end_to_end(records, probes, args.workload)
            metrics = end_to_end(records, probes, args.workload,
                                 interpreter.factor(), speed.factor())
    finally:
        shutil.rmtree(workloads.SCRATCH, ignore_errors=True)

    failed = [r.name for r in records if not r.ok]
    unexpected = sorted(set(failed) - workloads.KNOWN_FAILURES)
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env_record = environment()
    host = {"interpreter": interpreter.record()}
    if raw and speed is not interpreter:
        host["compute"] = speed.record()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": passes, "samples": len(records),
              "env": env_record, "host_speed": host, "failed_tasks": sorted(set(failed)),
              **result, "raw_metrics": {k: v for k, (v, _) in raw.items()}}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(env_record))
    print("host speed " + json.dumps(host))
    print(f"{args.workload}: {len(records)} tasks in {passes} passes, {len(failed)} failed"
          f" ({', '.join(sorted(set(failed))) or 'none'})"
          + (f"; unexpected: {', '.join(unexpected)}" if unexpected else ""))
    for name, (value, unit) in metrics.items():
        scaled = name in raw and raw[name][0] != value
        print(f"{name} {value!r} {unit}" + (f" (raw {raw[name][0]!r})" if scaled else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
