"""Golden command line corpus: stdout, stderr, exit code and --out/--dump bytes.

Each case runs ``qwps.cli.main`` in process and is compared byte for byte with
the files under ``tests/golden``.  The cases are the benchmark's command line
workload (the README commands, the other verify suites and three usage
probes), ``--help``, every verify suite at q = 0.3 and 0.8, every usage error
of ``tests/test_cli.py`` and the wp relations at q where a residual reads NaN.

Regenerate the corpus, after a change that is meant to alter output, with

    PYTHONPATH=src python tests/test_golden.py

which also records the Python and numpy versions it ran under.  A rewritten
corpus file is a changed check: say which file changed and why.
"""

import contextlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from qwps.cli import main
from test_cli import NAN_WP_CASES, SUITES, USAGE_ERRORS

GOLDEN = Path(__file__).resolve().parent / "golden"
# argparse wraps --help at the terminal width
COLUMNS = "80"


def _verify(suite, *extra):
    return ["verify", "--suite", suite, *extra]


# (name, argv); "{out}" and "{dump}" name files in a scratch directory
CASES = [
    ("spectrum-even", ["spectrum", "--triple", "even", "--k", "1", "--l", "1", "--lmax", "3",
                       "--out", "{out}"]),
    ("spectrum-odd", ["spectrum", "--triple", "odd", "--k", "1", "--l", "2", "--jmax", "10",
                      "--format", "json", "--out", "{out}"]),
    ("dims", ["dims", "--k", "2", "--l", "3", "--jmax", "25", "--out", "{out}"]),
    ("verify-su2q-relations", _verify("su2q-relations", "--out", "{out}")),
    ("verify-wp-relations", _verify("wp-relations", "--k", "1", "--l", "3", "--dump", "{dump}",
                                    "--out", "{out}")),
    ("summability", ["summability", "--k", "1", "--l", "1", "--triple", "odd", "--nlist",
                     "512,1024,2048", "--out", "{out}"]),
    ("ktheory", ["ktheory", "--l", "2", "--n", "1", "--j", "1", "--out", "{out}"]),
    *[(f"verify-{suite}", _verify(suite, "--out", "{out}"))
      for suite in ("haar", "equivariance", "qdirac", "chirality", "fredholm", "teardrop")],
    *[(f"verify-{suite}-dump", _verify(suite, "--dump", "{dump}", "--out", "{out}"))
      for suite in ("qdirac", "teardrop")],
    ("probe-q-1.5", ["spectrum", "--triple", "even", "--q", "1.5", "--out", "{out}"]),
    ("probe-summability-nlist-2-2", ["summability", "--nlist", "2,2", "--out", "{out}"]),
    ("probe-spectrum-jmax-minus-1", ["spectrum", "--triple", "odd", "--jmax", "-1",
                                     "--out", "{out}"]),
    ("help", ["--help"]),
    # haar reads neither cap, so caps that are not half-integers do not stop it
    ("verify-haar-lmax-2.3-jmax-1.3", _verify("haar", "--lmax", "2.3", "--jmax", "1.3")),
    *[(f"verify-{suite}-q{q}", _verify(suite, "--q", q))
      for suite in SUITES for q in ("0.3", "0.8")],
    *[("usage_" + "_".join(argv), argv) for argv in USAGE_ERRORS],
    *[(f"verify-wp-relations-{k},{l}-q{q}", _verify("wp-relations", "--q", q, "--k", k, "--l", l))
      for k, l, q in NAN_WP_CASES],
]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def run_case(argv) -> tuple[int, dict]:
    """Exit code and output bytes by kind: "stdout", "stderr" and each named file."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: os.path.join(tmp, key) for key in ("out", "dump")}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([arg.format(**paths) for arg in argv])
            except SystemExit as exc:
                code = exc.code
        outputs = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
        for key, path in paths.items():
            if os.path.exists(path):
                outputs[key] = Path(path).read_bytes()
    return code, {kind: data for kind, data in outputs.items() if data}


def test_golden_corpus(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    hint = (f"regenerate with `PYTHONPATH=src python tests/test_golden.py` if the change is "
            f"meant; recorded under {manifest['versions']}, running {versions()}")
    assert sorted(manifest["exit_codes"]) == sorted(name for name, _ in CASES), hint
    expected_files = set()
    for name, argv in CASES:
        code, outputs = run_case(argv)
        assert code == manifest["exit_codes"][name], f"{name}: exit code {code}; {hint}"
        for kind, data in outputs.items():
            path = GOLDEN / f"{name}.{kind}"
            expected_files.add(path.name)
            assert path.exists(), f"{name}: unexpected {kind}; {hint}"
            assert data == path.read_bytes(), f"{name}: {kind} differs; {hint}"
    recorded = {p.name for p in GOLDEN.iterdir() if p.name != "manifest.json"}
    assert recorded == expected_files, f"outputs missing: {recorded - expected_files}; {hint}"


def regenerate() -> None:
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.iterdir():
        path.unlink()
    exit_codes = {}
    for name, argv in CASES:
        exit_codes[name], outputs = run_case(argv)
        for kind, data in outputs.items():
            (GOLDEN / f"{name}.{kind}").write_bytes(data)
    manifest = {"versions": versions(), "exit_codes": exit_codes}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
