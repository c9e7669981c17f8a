"""Task lists of the three workloads and the checks applied to each result.

Every task is a pair of callables: ``run`` does the work the benchmark times
and ``check`` turns its result into (passed, error).  The error is a relative
error against a reference or a residual the program reported; it feeds the
digit metrics and is None for tasks with an exact yes/no outcome.

* ``algebra`` — the acceptance suite's pure-algebra path, in process.
* ``spectral`` — commutator norms and the teardrop operator models, in process.
* ``cli`` — ``python -m qwps.cli`` commands, each in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = ("cli", "algebra", "spectral")
IN_PROCESS = ("algebra", "spectral")  # the others time fresh interpreters

ALGEBRA_QS = (0.3, 0.5, 0.8)
TOL = 1e-9
NORM_REL_TOL = 1e-6  # acceptance criterion 10's slack
SPECTRAL_CAPS = (4, 6, 8, 10, 12, 16)
SUMMABILITY_PAIRS = ((1, 1), (1, 2), (2, 3))

# Failures present in the program when this benchmark was written (ROADMAP
# items 3 and 4).  They count in ``failed`` like any other failure; a failure
# outside this list also makes the run report ``correct: false``.
KNOWN_FAILURES = frozenset(
    {
        "wp:q=0.3:1,5",
        "wp:q=0.3:2,5",
        "wp:q=0.3:3,5",
        "wp:q=0.3:5,3",
        "wp:q=0.3:1,6",
        "wp:q=0.3:1,7",
        "wp:q=0.5:1,6",
        "wp:q=0.5:1,7",
        "probe:summability-nlist-2,2",
        "probe:spectrum-jmax-minus-1",
    }
)


# The task whose reference, threshold or expected exit code ``--perturb``
# corrupts, so that the self-test can see one extra failure per pass.
PERTURBED = {"algebra": "coord.relations:q=0.5", "spectral": "norm:alpha:4",
             "cli": "probe:q-1.5"}


# The few tasks ``--smoke`` keeps (bench/selftest.py).
SMOKE_TASKS = {
    "algebra": {"coord.relations:q=0.5", "coord.haar:q=0.8", "wp:q=0.5:1,2", "wp:q=0.5:1,7",
                "chirality:q=0.5:1,1", "dims:2,3", "summability:1,1:odd"},
    "spectral": {"norm:alpha:4", "norm:beta:6", "teardrop.relations:2",
                 "teardrop.ambient:2,1,a", "teardrop.blocks:2,1,0"},
    "cli": {"spectrum-even", "verify-haar", "ktheory", "probe:q-1.5",
            "probe:spectrum-jmax-minus-1"},
}


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, float | None]]


def coprime_pairs(max_sum: int) -> list[tuple[int, int]]:
    return [(k, s - k) for s in range(2, max_sum + 1) for k in range(1, s)
            if math.gcd(k, s - k) == 1]


def below(threshold: float):
    """Check for a residual report (a dict with "max") or a bare residual."""
    def check(result):
        value = result["max"] if isinstance(result, dict) else result
        value = float(value)
        return bool(value < threshold), value
    return check


# ---------------------------------------------------------------------------
# set-up shared by every workload


def warm_up() -> None:
    """Call every layer once at minimal size, so that lazy imports and
    first-use costs land in set-up rather than in the first timed task.  The
    CG cache is emptied first, so that the block build path runs too.  A
    traced run repeats the set-up under tracing, so every layer has a span
    there."""
    import numpy as np
    import scipy.sparse as sp

    from qwps import cg, cli, coaction, coord, dirac, operators, qcore, teardrop
    from qwps.coaction import WeightPair
    from qwps.qcore import QContext, hi

    ctx = QContext(0.5, TOL)
    qcore.irrep_word(hi(0.5), ("e", "f"), ctx)
    cg.clear_cache()
    cg.cg_block(hi(0.5), hi(1), ctx)
    alpha, beta, _, _ = coord.gens(ctx)
    coord.left_act("e", coord.right_act("f", coord.multiply(alpha, beta, ctx), ctx), ctx)
    coaction.wp_gens(WeightPair(1, 1), ctx)
    coaction.dim_V_down_oracle(WeightPair(1, 2), hi(2))
    dirac.summability_partial_sum(WeightPair(1, 1), 1, "odd")
    dirac.commutator_norm("alpha", hi(1), ctx)
    operators.operator_norm(sp.identity(801, format="csr"))  # above the dense cut-over
    operators.operator_norm(np.eye(2))
    coaction.verify_wp_relations(WeightPair(1, 1), ctx)
    dirac.q_dirac_check(hi(0), ctx)
    dirac.chirality_checks(WeightPair(1, 1), hi(1), ctx)
    teardrop.wp_rep_via_ambient(1, 0, 1, "a", 2, ctx)
    teardrop.wp_relation_residuals(1, 2, ctx)
    teardrop.block_structure_evidence(1, 0, 1, 8, ctx)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["ktheory", "--l", "2", "--n", "1", "--j", "1"])


def setup(workload: str) -> dict:
    """Imports, warm-up and the workload's own preparation."""
    import qwps.cli  # noqa: F401  (the package's whole public surface)

    warm_up()
    if workload == "spectral":
        from qwps import cg
        from qwps.qcore import HalfInt, QContext, hi

        ctx = QContext(0.5, TOL)
        # the spin-1/2 CG blocks every GNS multiplication matrix up to the top cap reads
        for tl in range(0, 2 * max(SPECTRAL_CAPS) + 1):
            cg.cg_block(hi(0.5), HalfInt(tl), ctx)
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
        return {"references": {k: v["value"] for k, v in refs["norms"].items()}}
    if workload == "cli":
        return {"expected": cli_expectations()}
    return {}


# ---------------------------------------------------------------------------
# algebra


def algebra_tasks(state: dict) -> list[Task]:
    from qwps import coaction, coord, dirac
    from qwps.coaction import WeightPair
    from qwps.qcore import QContext, hi

    tasks = []
    for q in ALGEBRA_QS:
        ctx = QContext(q, TOL)
        tag = f"q={q}"
        tasks += [
            Task(f"coord.relations:{tag}", lambda c=ctx: coord.relation_residuals(c), below(TOL)),
            Task(f"coord.action_tables:{tag}", lambda c=ctx: coord.action_table_residuals(c),
                 below(TOL)),
            Task(f"coord.equivariance:{tag}", lambda c=ctx: coord.equivariance_residuals(c),
                 below(TOL)),
            Task(f"coord.haar:{tag}", lambda c=ctx: coord.haar_orthogonality_residual(c, 2),
                 below(TOL)),
            Task(f"coord.star_pairing:{tag}", lambda c=ctx: coord.star_pairing_residual(c),
                 below(TOL)),
            Task(f"qdirac:{tag}", lambda c=ctx: dirac.q_dirac_check(hi(2), c), below(100 * TOL)),
        ]
        for k, l in coprime_pairs(8):
            tasks.append(Task(f"wp:{tag}:{k},{l}",
                              lambda c=ctx, wp=WeightPair(k, l): coaction.verify_wp_relations(wp, c),
                              below(10 * TOL)))
        for k, l in SUMMABILITY_PAIRS:
            wp = WeightPair(k, l)
            tasks.append(Task(f"chirality:{tag}:{k},{l}",
                              lambda c=ctx, wp=wp: dirac.chirality_checks(wp, hi(5), c),
                              below(1e-3 * TOL)))
            tasks.append(Task(f"fredholm:{tag}:{k},{l}",
                              lambda c=ctx, wp=wp: dirac.fredholm_degeneracy(wp, hi(5), c),
                              below(1e-3 * TOL)))

    def dims(wp):
        closed = [(coaction.dim_V_down(wp, hi(t / 2)), coaction.dim_V(wp, hi(t / 2)))
                  for t in range(51)]
        oracle = [(coaction.dim_V_down_oracle(wp, hi(t / 2)), coaction.dim_V_oracle(wp, hi(t / 2)))
                  for t in range(51)]
        return closed, oracle

    for k, l in coprime_pairs(9):
        tasks.append(Task(f"dims:{k},{l}", lambda wp=WeightPair(k, l): dims(wp),
                          lambda r: (r[0] == r[1], None)))

    def summability(wp, triple):
        ns = (512, 1024, 2048)
        return ([dirac.summability_partial_sum(wp, n, triple) for n in ns],
                [dirac.summability_partial_sum(wp, n, triple, exponent=3) for n in ns])

    for k, l in SUMMABILITY_PAIRS:
        for triple in ("odd", "even"):
            tasks.append(Task(f"summability:{k},{l}:{triple}",
                              lambda wp=WeightPair(k, l), t=triple: summability(wp, t),
                              lambda r: (summability_ok(*r), None)))
    if state.get("perturb"):
        victim = next(t for t in tasks if t.name == PERTURBED["algebra"])
        victim.check = below(0.0)
    return tasks


def summability_ok(sq, cube) -> bool:
    """Acceptance criterion 9 on the partial sums at N = 512, 1024, 2048."""
    d1, d2 = sq[1] - sq[0], sq[2] - sq[1]
    e1, e2 = cube[1] - cube[0], cube[2] - cube[1]
    return abs(d1 / d2 - 1.0) < 0.05 and e2 < e1 and e2 < 0.01 * cube[0]


def algebra_pass_start() -> None:
    from qwps import cg

    cg.clear_cache()


# ---------------------------------------------------------------------------
# spectral


def spectral_tasks(state: dict) -> list[Task]:
    import numpy as np

    from qwps import dirac, teardrop
    from qwps.qcore import QContext, hi

    ctx = QContext(0.5, TOL)
    refs = dict(state["references"])
    if state.get("perturb"):
        refs[PERTURBED["spectral"].removeprefix("norm:")] *= 1 + 1e-3
    tasks = []
    for gen in ("alpha", "beta"):
        for cap in SPECTRAL_CAPS:
            ref = refs[f"{gen}:{cap}"]

            def check(value, ref=ref):
                err = abs(float(value) - ref) / ref
                return err < NORM_REL_TOL, err

            tasks.append(Task(f"norm:{gen}:{cap}",
                              lambda g=gen, c=cap: dirac.commutator_norm(g, hi(c), ctx), check))
    for l in (1, 2, 3, 4):
        tasks.append(Task(f"teardrop.relations:{l}",
                          lambda l=l: teardrop.wp_relation_residuals(l, 64, ctx), below(TOL)))

    def via_ambient(l, s, gen):
        mats = [teardrop.wp_rep_via_ambient(l, m, s, gen, 12, ctx).matrix for m in (-2, 0, 5)]
        return mats, teardrop.wp_rep(l, 0, s, gen, 12, ctx).matrix

    def ambient_check(result):
        mats, closed = result
        same = all(np.array_equal(mats[0], m) for m in mats[1:])
        err = float(np.abs(mats[0] - closed).max() / np.abs(closed).max())
        return same and err < TOL, err

    for l, s, gen in ((2, 1, "a"), (2, 2, "b"), (3, 1, "bstar")):
        tasks.append(Task(f"teardrop.ambient:{l},{s},{gen}",
                          lambda l=l, s=s, g=gen: via_ambient(l, s, g), ambient_check))

    def blocks_check(report):
        off = max(sample["off_pattern"] for sample in report["samples"])
        return bool(report["pass"]), off

    for l, j, n in ((2, 1, 0), (2, 1, 1), (3, 1, -1), (3, 2, 0)):
        tasks.append(Task(f"teardrop.blocks:{l},{j},{n}",
                          lambda l=l, j=j, n=n: teardrop.block_structure_evidence(l, n, j, 64, ctx),
                          blocks_check))
    return tasks


# ---------------------------------------------------------------------------
# cli


def cli_expectations() -> dict:
    """Facts the cli outputs are checked against, computed here with the
    enumeration oracles rather than read from stored output."""
    from qwps import coaction
    from qwps.coaction import WeightPair
    from qwps.qcore import HalfInt

    wp11, wp12, wp23 = WeightPair(1, 1), WeightPair(1, 2), WeightPair(2, 3)
    even = {}
    for tl in range(0, 7):
        mult = coaction.dim_V_oracle(wp11, HalfInt(tl))
        if mult:
            even[tl / 2 + 1] = even[-(tl / 2 + 1)] = mult
    odd = {}
    for tj in range(0, 21):
        mult = coaction.dim_V_down_oracle(wp12, HalfInt(tj + 2))
        if mult:
            odd[float(tj + 2)] = odd[-float(tj + 2)] = mult
    dims = {}
    for t in range(0, 51):
        dims[("V_down", t / 2)] = coaction.dim_V_down_oracle(wp23, HalfInt(t))
        dims[("V", t / 2)] = coaction.dim_V_oracle(wp23, HalfInt(t))
    return {
        "even": even,
        "odd": odd,
        "dims": dims,
        # acceptance criterion 13, class (l, n, j) = (2, 1, 1)
        "ktheory": "I_1 ⊕ (⊕_{s=1}^{1} P_1) ⊕ (⊕_{s=2}^{2} P_2)",
    }


@dataclass
class Child:
    """A finished child process."""

    code: int
    out: str
    err: str
    rss_kb: int
    first_line_s: float  # from start to its first line of stdout
    wall_s: float


def run_child(cmd: list[str], env: dict, timeout: float = 120.0) -> Child:
    """Run one process to completion, killing it after ``timeout`` seconds."""
    SCRATCH.mkdir(exist_ok=True)
    err_path = SCRATCH / f"stderr-{os.getpid()}"
    t0 = perf_counter()
    with open(err_path, "wb") as err_f:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err_f, env=env, cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        first_line_s = perf_counter() - t0
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = perf_counter() - t0
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, (first + rest).decode("utf-8", "replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"),
                 usage.ru_maxrss, first_line_s, wall_s)


@dataclass
class CliResult:
    code: int
    out: str  # the --out file, or stdout for the probes
    err: str
    dump: str
    rss_kb: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_commands() -> list[tuple[str, list[str], dict]]:
    """(name, argv, expectation) for one pass: the README commands, the other
    verify suites and three usage-error probes.  Outputs go to files under
    the scratch directory named by the expectation's "out" and "dump"."""
    def cmd(name, argv, kind, **spec):
        out = SCRATCH / f"{name}.out"
        return name, argv + ["--out", str(out)], {"kind": kind, "out": out, **spec}

    dump = SCRATCH / "gens.jsonl"
    cmds = [
        cmd("spectrum-even", ["spectrum", "--triple", "even", "--k", "1", "--l", "1",
                              "--lmax", "3"], "spectrum", which="even", format="csv"),
        cmd("spectrum-odd", ["spectrum", "--triple", "odd", "--k", "1", "--l", "2",
                             "--jmax", "10", "--format", "json"], "spectrum", which="odd",
            format="json"),
        cmd("dims", ["dims", "--k", "2", "--l", "3", "--jmax", "25"], "dims"),
        cmd("verify-su2q-relations", ["verify", "--suite", "su2q-relations"], "verify"),
        cmd("verify-wp-relations", ["verify", "--suite", "wp-relations", "--k", "1", "--l", "3",
                                    "--dump", str(dump)], "verify", dump=dump),
        cmd("summability", ["summability", "--k", "1", "--l", "1", "--triple", "odd",
                            "--nlist", "512,1024,2048"], "summability"),
        cmd("ktheory", ["ktheory", "--l", "2", "--n", "1", "--j", "1"], "ktheory"),
    ]
    for suite in ("haar", "equivariance", "qdirac", "chirality", "fredholm", "teardrop"):
        cmds.append(cmd(f"verify-{suite}", ["verify", "--suite", suite], "verify"))
    usage = {"kind": "usage", "code": 2}  # the README's exit code for a usage error
    cmds += [
        ("probe:q-1.5", ["spectrum", "--triple", "even", "--q", "1.5"], usage),
        ("probe:summability-nlist-2,2", ["summability", "--nlist", "2,2"], usage),
        ("probe:spectrum-jmax-minus-1", ["spectrum", "--triple", "odd", "--jmax", "-1"], usage),
    ]
    return cmds


def check_cli(result: CliResult, spec: dict, facts: dict) -> tuple[bool, float | None]:
    kind = spec["kind"]
    if kind == "usage":
        return result.code == spec["code"] and "Traceback" not in result.err, None
    if result.code != 0 or "Traceback" in result.err:
        return False, None
    text = result.out
    try:
        if kind == "spectrum":
            if spec["format"] == "csv":
                rows = [(float(r["eigenvalue"]), int(r["multiplicity"]))
                        for r in csv.DictReader(io.StringIO(text))]
            else:
                rows = [(float(r["eigenvalue"]), int(r["multiplicity"])) for r in json.loads(text)]
            expected = facts[spec["which"]]
            return len(rows) == len(expected) and dict(rows) == expected, None
        if kind == "dims":
            rows = list(csv.DictReader(io.StringIO(text)))
            got = {(r["family"], float(r["index"])): int(r["oracle"]) for r in rows}
            return all(r["match"] == "true" for r in rows) and got == facts["dims"], None
        if kind == "verify":
            report = json.loads(text)
            residual = float(report["max_residual"])
            ok = bool(report["pass"]) and residual < float(report["threshold"])
            if "dump" in spec:
                lines = [line for line in result.dump.splitlines() if line.strip()]
                heads = [line for line in lines if line.startswith("#")]
                records = [json.loads(line) for line in lines if not line.startswith("#")]
                ok = ok and heads == ["# a", "# b"] and len(records) > 0
            return ok, residual
        if kind == "summability":
            rows = list(csv.DictReader(io.StringIO(text)))
            sq = [float(r["sigma_N"]) for r in rows]
            cube = [float(r["sigma3_N"]) for r in rows]
            ns_ok = [int(r["N"]) for r in rows] == [512, 1024, 2048]
            return ns_ok and summability_ok(sq, cube), None
        if kind == "ktheory":
            return json.loads(text)["tokens"] == facts["ktheory"], None
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
        return False, None
    raise ValueError(f"unknown cli check {kind!r}")


def cli_tasks(state: dict, traced_spans_dir: Path | None = None) -> list[Task]:
    """One task per command.  With ``traced_spans_dir`` the command runs
    under bench/cli_child.py, which records spans inside the child."""
    facts = state["expected"]
    env = child_env()
    tasks = []
    for name, argv, spec in cli_commands():
        if state.get("perturb") and name == PERTURBED["cli"]:
            spec = {**spec, "code": 0}
        if traced_spans_dir is None:
            cmd = [sys.executable, "-m", "qwps.cli", *argv]
        else:
            slug = name.replace(":", "-").replace(",", "_")
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"),
                   str(traced_spans_dir / f"{slug}.npz"), *argv]

        def run(cmd=cmd, spec=spec):
            files = [spec[key] for key in ("out", "dump") if key in spec]
            for path in files:
                path.unlink(missing_ok=True)
            child = run_child(cmd, env)
            read = lambda p: p.read_text(encoding="utf-8") if p.exists() else ""  # noqa: E731
            return CliResult(child.code, read(spec["out"]) if "out" in spec else child.out,
                             child.err, read(spec["dump"]) if "dump" in spec else "",
                             child.rss_kb)

        tasks.append(Task(name, run, lambda r, spec=spec: check_cli(r, spec, facts)))
    return tasks


def build_tasks(workload: str, state: dict, **kwargs) -> list[Task]:
    if workload == "algebra":
        return algebra_tasks(state)
    if workload == "spectral":
        return spectral_tasks(state)
    if workload == "cli":
        return cli_tasks(state, **kwargs)
    raise ValueError(f"unknown workload {workload!r}")

