"""Self-test of the benchmark, in smoke mode (a few tasks per workload).

    python3 bench/selftest.py

Checks that
* every metric bench/run.py prints is declared in BENCHMARK.json, and that
  each mode prints all the metrics declared for it;
* a corrupted reference, threshold or expected exit code (``--perturb``)
  costs exactly one task per pass in ``pass_ratio`` and flips ``correct``;
* in a directory holding only BENCHMARK.json and the benchmark, the command
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import SMOKE_TASKS, WORKLOADS  # noqa: E402


def run(*extra, cwd=ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(*extra) -> dict:
    code, lines = run("--smoke", *extra)
    assert code == 0, f"{extra}: exit {code}"
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["attempted"] >= 1
    for name, metric in res["metrics"].items():
        assert math.isfinite(metric["value"]), (name, metric)
    return res


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = result("--workload", workload, "--trace", str(trace))
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            assert printed == declared[trace], (
                workload, trace, set(printed) ^ set(declared[trace]))
            assert res["correct"], (workload, trace)
        base = result("--workload", workload, "--trace", "0")
        bad = result("--workload", workload, "--trace", "0", "--perturb")
        drop = (base["metrics"]["pass_ratio"]["value"]
                - bad["metrics"]["pass_ratio"]["value"])
        assert abs(drop - 1 / len(SMOKE_TASKS[workload])) < 1e-12, (workload, drop)
        assert not bad["correct"], workload
        print(f"{workload}: metric names match BENCHMARK.json; perturbation counted")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run("--workload", "algebra", cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print("bare directory: exits", code, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
