"""Command line interface: golden outputs, exit codes, config precedence."""

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qwps
from qwps import exact
from qwps.cli import RunConfig, _build_parser, _merge_config, _run_suite, main

README_COMMANDS = [
    "spectrum --triple even --k 1 --l 1 --lmax 3",
    "spectrum --triple odd --k 1 --l 2 --jmax 10 --format json",
    "dims --k 2 --l 3 --jmax 25",
    "verify --suite su2q-relations",
    "verify --suite wp-relations --k 1 --l 3 --dump gens.jsonl",
    "summability --k 1 --l 1 --triple odd --nlist 512,1024,2048",
    "ktheory --l 2 --n 1 --j 1",
]
SUITES = ["su2q-relations", "wp-relations", "haar", "equivariance", "qdirac", "chirality",
          "fredholm", "teardrop"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_even_unit_weights(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "--triple", "even", "--k", "1", "--l", "1", "--lmax", "3"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eigenvalue,multiplicity"
    rows = [tuple(line.split(",")) for line in lines[1:]]
    assert rows == [
        ("-4", "7"),
        ("-3", "5"),
        ("-2", "3"),
        ("-1", "1"),
        ("1", "1"),
        ("2", "3"),
        ("3", "5"),
        ("4", "7"),
    ]


def test_spectrum_odd_paired_rows(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "--triple", "odd", "--k", "1", "--l", "2", "--jmax", "4"]
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    mults = {float(ev): int(m) for ev, m in rows}
    for ev, mult in mults.items():
        assert mults[-ev] == mult


def test_non_coprime_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["spectrum", "--triple", "even", "--k", "2", "--l", "4"])
    assert code == 2
    assert "coprime" in err


def test_bad_q_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["dims", "--q", "1.5"])
    assert code == 2


# argv that must exit 2 with an error line; tests/test_golden.py pins their bytes
USAGE_ERRORS = [
    ["summability", "--nlist", "2,2"],
    ["summability", "--nlist", "1,2"],
    ["spectrum", "--triple", "odd", "--jmax", "inf"],
    ["spectrum", "--triple", "odd", "--jmax", "-1"],
    ["dims", "--jmax", "-3"],
    ["spectrum", "--triple", "even", "--lmax", "-1"],
    ["verify", "--suite", "su2q-relations", "--tol", "inf"],
    # finite caps whose double overflows to inf
    ["spectrum", "--triple", "odd", "--jmax", "1e308"],
    ["dims", "--jmax", "1e308"],
    ["spectrum", "--triple", "even", "--lmax", "9e307"],
    ["verify", "--suite", "qdirac", "--jmax", "1e308"],
    # finite caps above the cost guard
    ["spectrum", "--triple", "odd", "--jmax", "1e9"],
    ["dims", "--jmax", "1e9"],
    ["spectrum", "--triple", "even", "--lmax", "10000.5"],
    # a threshold tol >= 1 would pass vacuously
    ["verify", "--suite", "su2q-relations", "--tol", "1e300"],
    ["verify", "--suite", "haar", "--tol", "5"],
    # teardrop work l(l+3) max(N, 32)^3 above its guard, and q^(-2l) overflowing
    ["verify", "--suite", "teardrop", "--l", "512"],
    ["verify", "--suite", "teardrop", "--N", "1000000"],
    ["verify", "--suite", "teardrop", "--q", "0.01", "--l", "100"],
    ["verify", "--suite", "teardrop", "--q", "1e-200"],
    # ktheory lists l ranks; summability adds up to 2N + 1 shells one by one per
    # --nlist entry, all of them where k + l exceeds about N/10
    ["ktheory", "--l", "2000000000", "--n", "1", "--j", "1"],
    ["summability", "--nlist", "1000000000"],
    ["summability", "--nlist", "600000,700000"],
    # the even triple reads CG blocks of side (k + l + 1)(2 lam + 1); k + l above its guard
    ["verify", "--suite", "chirality", "--l", "1000000000"],
    ["verify", "--suite", "fredholm", "--l", "1000000000"],
    # wp relations with k + l above their guard, where rounding grows as q^(-l(l-1))
    ["verify", "--suite", "wp-relations", "--k", "4", "--l", "5"],
    # q-integers [n] and the q^{-D} eigenvalue bound q^{-(2 j_max + 3/2)}
    # overflowing a double at small q
    *[["verify", "--suite", suite, "--q", "1e-300"] for suite in SUITES if suite != "teardrop"],
    ["verify", "--suite", "chirality", "--q", "1e-30"],
    ["verify", "--suite", "fredholm", "--q", "1e-30"],
    # q^(-2l) in the wp relations, and the q^{-D} block's coefficients: at 1e-150
    # inf * 0 reads NaN, at 1e-160 (q - 1/q)^2 overflows
    *[["verify", "--suite", "wp-relations", "--q", q, "--k", k, "--l", l]
      for k, l, qs in [("1", "7", ("1e-28", "1e-30", "1e-33", "1e-36")),
                       ("1", "6", ("1e-33", "1e-36", "1e-40")),
                       *[(k, "5", ("1e-40", "1e-50")) for k in ("1", "2", "3")]]
      for q in qs],
    ["verify", "--suite", "qdirac", "--q", "1e-150", "--jmax", "0"],
    ["verify", "--suite", "qdirac", "--q", "1e-160", "--jmax", "0"],
    # q^(-2l) overflows before the q-integers of the products do
    ["verify", "--suite", "wp-relations", "--q", "1e-29", "--k", "1", "--l", "6"],
    # a suite reads only its own cap, and refuses one that is not a half-integer
    ["verify", "--suite", "chirality", "--lmax", "2.3"],
    # the teardrop suite checks the weight-(1, l) model, so it refuses another k
    ["verify", "--suite", "teardrop", "--k", "2", "--l", "3", "--N", "8"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_bad_caps_and_nlist_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


# (k, l, q) at which the right-hand sides of b b* overflow, and its residual reads NaN
NAN_WP_CASES = [("1", "6", "1e-12"), ("1", "7", "1e-12"), ("1", "5", "1e-20"),
                ("1", "6", "1e-20"), ("2", "5", "1e-20")]


@pytest.mark.parametrize("k,l,q", NAN_WP_CASES)
def test_nan_residual_fails_the_report(capsys, k, l, q):
    argv = ["verify", "--suite", "wp-relations", "--q", q, "--k", k, "--l", l]
    code, out, _ = run_cli(capsys, argv)
    report = json.loads(out)
    assert math.isnan(report["residuals"]["b_bstar"])
    assert math.isnan(report["max_residual"]) and report["pass"] is False
    assert code == 1


# edge values for every numeric flag
EDGE_VALUES = ["nan", "inf", "-1", "0", "0.3", "2.5", "1e308", "0.5", "1", "2", "3", "8",
               "1000000000", "1e-300", "1e-30"]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["spectrum", "dims", "summability", "ktheory", "verify"]))
    argv = [command]
    flags = ["--q", "--tol", "--k", "--l", "--jmax", "--lmax", "--N", "--n"]
    if command == "spectrum":
        argv += ["--triple", draw(st.sampled_from(["odd", "even"]))]
    elif command == "summability":
        argv += ["--triple", draw(st.sampled_from(["odd", "even"]))]
        increasing = st.lists(st.sampled_from(["2", "3", "5", "8"]), unique=True).map(sorted)
        nlist = draw(increasing | st.lists(st.sampled_from(EDGE_VALUES), max_size=3))
        argv += ["--nlist", ",".join(nlist)]
    elif command == "ktheory":
        flags.append("--j")
    elif command == "verify":
        argv += ["--suite", draw(st.sampled_from(SUITES))]
    for flag in draw(st.lists(st.sampled_from(flags), unique=True, max_size=3)):
        argv += [flag, draw(st.sampled_from(EDGE_VALUES))]
    return argv + draw(st.sampled_from([[], ["--format", "json"]]))


@settings(max_examples=150, deadline=None)
@example(["summability", "--triple", "odd", "--k", "1", "--l", "1000000000", "--nlist", "2"])
@example(["spectrum", "--triple", "odd", "--jmax", "1e308"])
@example(["spectrum", "--triple", "even", "--lmax", "1e308"])
@example(["dims", "--jmax", "1e308"])
@given(cli_argv())
def test_cli_exit_code_contract(argv):
    # every argv ends in exit code 0, 1 or 2, with no exception escaping main;
    # argparse rejects malformed values itself, by SystemExit(2)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: "))


def test_dims_match(capsys):
    code, out, _ = run_cli(capsys, ["dims", "--k", "2", "--l", "3", "--jmax", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,index,closed_form,oracle,match"
    assert all(line.endswith("true") for line in lines[1:])


def test_dims_half_integer_rows_only_for_odd_sum(capsys):
    _, out_even, _ = run_cli(capsys, ["dims", "--k", "1", "--l", "1", "--jmax", "3"])
    assert not any(".5," in line for line in out_even.splitlines())
    _, out_odd, _ = run_cli(capsys, ["dims", "--k", "1", "--l", "2", "--jmax", "3"])
    assert any(line.split(",")[1] == "1.5" for line in out_odd.splitlines()[1:])


@pytest.mark.parametrize(
    "suite",
    ["su2q-relations", "wp-relations", "haar", "equivariance", "qdirac", "chirality", "fredholm"],
)
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run_cli(capsys, ["verify", "--suite", suite, "--k", "1", "--l", "2"])
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_residual"] < report["threshold"]
    assert code == 0


def test_verify_teardrop_suite(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "teardrop", "--k", "1", "--l", "3", "--N", "32"]
    )
    report = json.loads(out)
    assert code == 0 and report["pass"] is True


@pytest.mark.parametrize("suite", ["haar", "equivariance", "su2q-relations", "qdirac"])
def test_suites_that_read_no_weights_accept_any_pair(capsys, suite):
    # the weight pair is built only by the suites that read it
    code, out, _ = run_cli(capsys, ["verify", "--suite", suite, "--k", "2", "--l", "4"])
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_teardrop_overflow_is_a_verification_failure(capsys):
    # the right-hand sides overflow at large l for this q; that is a failed
    # check with its report, not a usage error
    code, out, err = run_cli(capsys, ["verify", "--suite", "teardrop", "--q", "0.9", "--l", "300",
                                      "--N", "4"])
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "error:" not in err and "Traceback" not in err


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_verify_failure_exit_code(capsys):
    # an absurdly tight tolerance turns machine-precision residuals into failures
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "su2q-relations", "--tol", "1e-20"]
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


# suites whose residuals read k and l; the others run at one pair per q
PAIRED_SUITES = {"wp-relations", "chirality", "fredholm", "teardrop"}


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("suite", SUITES)
def test_residuals_do_not_depend_on_tol(suite, q):
    # tol sets the pass/fail threshold only; no product is pruned by it
    pairs = [(1, 3), (3, 4), (5, 3)] if suite in PAIRED_SUITES else [(1, 3)]
    if suite == "teardrop":  # the weight-(1, l) model reads l only and refuses k != 1
        pairs = [(1, l) for _, l in pairs]
    for k, l in pairs:
        residuals = [
            _run_suite(suite, RunConfig(q=q, tol=tol, k=k, l=l))["residuals"]
            for tol in (1e-9, 1e-3, 0.5)
        ]
        assert residuals[0] == residuals[1] == residuals[2], (k, l)


def test_verify_dump_golden_elements(tmp_path, capsys):
    from qwps.coaction import wp_gens
    from qwps.coord import to_jsonl
    from qwps.exact import QContext, WeightPair

    target = tmp_path / "elements.jsonl"
    code, _, _ = run_cli(
        capsys,
        ["verify", "--suite", "wp-relations", "--k", "1", "--l", "2", "--dump", str(target)],
    )
    assert code == 0
    a, b = wp_gens(WeightPair(1, 2), QContext(0.5, 1e-9))
    assert target.read_text() == f"# a\n{to_jsonl(a)}\n# b\n{to_jsonl(b)}\n"


@pytest.mark.parametrize("suite", ["chirality", "fredholm"])
def test_verify_dump_writes_the_even_triple_generators(tmp_path, capsys, suite):
    # both suites represent a and b of coaction.wp_gens, not the coordinate generators
    from qwps.coaction import wp_gens
    from qwps.coord import to_jsonl
    from qwps.exact import QContext, WeightPair

    target = tmp_path / "elements.jsonl"
    code, _, _ = run_cli(
        capsys, ["verify", "--suite", suite, "--k", "1", "--l", "2", "--dump", str(target)]
    )
    assert code == 0
    a, b = wp_gens(WeightPair(1, 2), QContext(0.5, 1e-9))
    assert target.read_text() == f"# a\n{to_jsonl(a)}\n# b\n{to_jsonl(b)}\n"


@pytest.mark.parametrize("suite", ["qdirac", "teardrop"])
def test_verify_dump_is_refused_where_no_element_is_built(tmp_path, capsys, suite):
    target = tmp_path / "elements.jsonl"
    code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--dump", str(target)])
    assert (code, out) == (2, "")
    assert err == f"error: --dump: the {suite} suite builds no algebra element\n"
    assert not target.exists()


@pytest.mark.parametrize("triple,rows", [
    ("odd", ["2,0.68055555555555558,0.98183412504943346,nan,0.29050925925925924",
             "3,0.71180555555555558,0.64791333839757514,0.077071983199263491,0.29441550925925924"]),
    ("even", ["2,2.7222222222222223,3.9273365001977338,nan,2.324074074074074",
              "3,2.8472222222222223,2.5916533535903006,0.30828793279705397,2.355324074074074"]),
])
def test_summability_cost_does_not_grow_with_k_plus_l(capsys, triple, rows):
    # the sum reads no more multiplicities than it has shells, so a weight pair
    # whose period 2(k + l) is 2e9 shells long sums N = 2, 3 at once
    argv = ["summability", "--k", "1", "--l", "1000000000", "--triple", triple, "--nlist", "2,3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out.splitlines() == ["N,sigma_N,sigma_over_logN,increment_ratio,sigma3_N", *rows]


def test_summability_table(capsys):
    code, out, _ = run_cli(
        capsys,
        ["summability", "--k", "1", "--l", "1", "--triple", "odd", "--nlist", "64,128,256"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,sigma_N,sigma_over_logN,increment_ratio,sigma3_N"
    sigmas = [float(line.split(",")[1]) for line in lines[1:]]
    assert sigmas == sorted(sigmas)
    assert float(lines[1].split(",")[1]) > 0


def test_ktheory_json(capsys):
    code, out, _ = run_cli(capsys, ["ktheory", "--l", "2", "--n", "1", "--j", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["ranks"] == [1, 2]
    assert data["tokens"].startswith("I_1")


def test_ktheory_bad_j_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["ktheory", "--l", "2", "--n", "0", "--j", "5"])
    assert code == 2


def test_deterministic_output(capsys):
    argv = ["spectrum", "--triple", "even", "--k", "1", "--l", "2", "--lmax", "6"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--triple", "even", "--k", "1", "--l", "1", "--lmax", "2", "--out", str(target)],
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("eigenvalue,multiplicity")


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# comment\nq=0.25\nk=1\nl=2\nlmax=2\nn=3\nformat=json\n")
    argv = ["spectrum", "--triple", "even", "--config", str(config)]
    # each value is cast to the type of its field's default
    cfg = _merge_config(_build_parser().parse_args(argv))
    values = {name: getattr(cfg, name) for name in ("q", "k", "l", "lmax", "n", "format")}
    assert values == {"q": 0.25, "k": 1, "l": 2, "lmax": 2.0, "n": 3, "format": "json"}
    assert [type(v) for v in values.values()] == [float, int, int, float, int, str]
    out_config = tmp_path / "out.cfg"  # out's default is None, its cast str
    out_config.write_text("out=report.json\n")
    cfg = _merge_config(_build_parser().parse_args(["dims", "--config", str(out_config)]))
    assert cfg.out == "report.json"
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    data = json.loads(out)  # json format came from the config file
    assert isinstance(data, list)
    # flags win over the config file
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--triple", "even", "--config", str(config), "--format", "csv"],
    )
    assert out.startswith("eigenvalue,multiplicity")


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("zz=1\n")
    code, _, err = run_cli(capsys, ["dims", "--config", str(config)])
    assert code == 2
    assert "unknown key" in err


@pytest.mark.parametrize(
    "command", [["spectrum", "--triple", "even"], ["dims"], ["verify", "--suite", "haar"]]
)
def test_config_file_rejects_unknown_format(tmp_path, capsys, command):
    # argparse restricts --format; a config file must not get round that
    config = tmp_path / "fmt.cfg"
    config.write_text("format=xml\n")
    code, out, err = run_cli(capsys, command + ["--config", str(config)])
    assert code == 2
    assert out == ""
    assert err == "error: format must be csv or json, got 'xml'\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qwps.cli", "ktheory", "--l", "3", "--n", "-1", "--j", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["reduced"] == "1"


def run_fresh(code, cwd, argv=None):
    """Run a script, or ``python -m`` with ``argv`` when ``code`` is None, in a
    fresh interpreter that imports this copy of qwps."""
    src = os.path.dirname(os.path.dirname(qwps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = ["-m", *argv] if code is None else ["-c", textwrap.dedent(code)]
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_package_import_does_not_load_numpy(tmp_path):
    # the package exports only __version__; the numeric modules load on demand
    proc = run_fresh(
        """
        import sys
        import qwps
        assert "numpy" not in sys.modules
        assert [name for name in vars(qwps) if not name.startswith("__")] == []
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_commands_do_not_load_scipy(tmp_path):
    argvs = README_COMMANDS + [f"verify --suite {suite}" for suite in SUITES]
    proc = run_fresh(
        f"""
        import contextlib, io, sys
        import qwps, qwps.cli
        assert "scipy" not in sys.modules, "import"
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                code = qwps.cli.main(argv.split())
            assert code == 0, (argv, code)
            assert "scipy" not in sys.modules, argv
        from qwps.exact import QContext
        from qwps.teardrop import block_structure_evidence, wp_rep_via_ambient
        ctx = QContext(0.5, 1e-9)
        wp_rep_via_ambient(2, 1, 1, "b", 8, ctx)
        assert block_structure_evidence(2, 1, 1, 16, ctx)["pass"]
        assert "scipy" not in sys.modules, "teardrop"
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_counting_commands_and_usage_errors_do_not_load_numpy(tmp_path):
    # only verify needs arrays; the rest counts with qwps.exact
    expected = [
        ("spectrum --triple odd", 0),
        ("spectrum --triple odd --format json", 0),
        ("spectrum --triple even", 0),
        ("spectrum --triple even --format json", 0),
        ("dims", 0),
        ("summability", 0),
        ("ktheory", 0),
        ("--help", 0),
        ("spectrum --triple even --q 1.5", 2),
        ("summability --nlist 2,2", 2),
        ("spectrum --triple odd --jmax -1", 2),
        ("ktheory --l 2000000000 --n 1 --j 1", 2),
    ]
    proc = run_fresh(
        f"""
        import contextlib, io, sys
        import qwps.cli
        assert "numpy" not in sys.modules, "import"
        for argv, want in {expected!r}:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = qwps.cli.main(argv.split())
                except SystemExit as exc:
                    code = exc.code
            assert code == want, (argv, code)
            assert "numpy" not in sys.modules, argv
        with contextlib.redirect_stdout(io.StringIO()):
            assert qwps.cli.main(["verify", "--suite", "su2q-relations"]) == 0
        assert "numpy" in sys.modules, "verify"
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_exact_import_loads_neither_numpy_nor_scipy(tmp_path):
    proc = run_fresh(
        """
        import sys
        import qwps.exact
        assert "numpy" not in sys.modules and "scipy" not in sys.modules
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


# the names the benchmark reads from the numeric modules, defined in qwps.exact
OLD_HOMES = {
    "qcore": ["HalfInt", "QContext", "hi"],
    "coaction": ["WeightPair", "dim_V_down", "dim_V", "dim_V_down_oracle", "dim_V_up_oracle",
                 "dim_V_oracle"],
    "dirac": ["summability_partial_sum"],
    "teardrop": [],
    "cli": [],
}


@pytest.mark.parametrize("module", sorted(OLD_HOMES))
def test_exact_names_have_one_definition(module):
    mod = importlib.import_module(f"qwps.{module}")
    for name in OLD_HOMES[module]:
        assert getattr(mod, name) is getattr(exact, name), name
    # no other module keeps a second copy of anything the exact layer defines
    moved = [*exact.__all__, "_p_window", "_TRIPLES", "_spectrum", "KTHEORY_GUARD"]
    for name in moved:
        if hasattr(mod, name):
            assert getattr(mod, name) is getattr(exact, name), name


def test_sparse_operator_norm_loads_scipy_on_demand(tmp_path):
    proc = run_fresh(
        """
        import sys
        import qwps
        assert "scipy" not in sys.modules
        import numpy as np
        import scipy.sparse as sp
        from qwps.operators import operator_norm
        dense = np.arange(1.0, 37.0).reshape(6, 6) * (np.arange(36).reshape(6, 6) % 4 == 0)
        got, want = operator_norm(sp.csr_matrix(dense)), np.linalg.norm(dense, 2)
        assert abs(got - want) <= 1e-14 * want, (got, want)
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_commutator_norm_loads_no_scipy(tmp_path):
    # the interior Gram matrix is built from the multiplication triplets
    proc = run_fresh(
        """
        import sys
        from qwps import dirac
        from qwps.exact import QContext, hi
        assert dirac.commutator_norm("alpha", hi(4), QContext(0.5, 1e-9)) > 0
        assert "scipy" not in sys.modules
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    ["verify --suite wp-relations --k 1 --l 2 --tol 0.5", "verify --suite chirality --tol 0.3"],
)
def test_loose_tol_verify_has_no_traceback(tmp_path, argv):
    # a loose --tol once set the Clebsch-Gordan kernel threshold and raised a traceback
    proc = run_fresh(
        f"""
        import sys
        import qwps.cli
        sys.exit(qwps.cli.main({argv.split()!r}))
        """,
        tmp_path,
    )
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        "spectrum --triple even --q 1.5",
        "summability --nlist 2,2",
        "spectrum --triple odd --jmax -1",
        "verify --suite su2q-relations --tol 1e300",
    ],
)
def test_usage_errors_exit_2_in_fresh_interpreter(tmp_path, argv):
    # the benchmark's usage probes, run as `python -m qwps.cli` in a new process
    proc = run_fresh(None, tmp_path, ["qwps.cli", *argv.split()])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_verify_teardrop_overflow_prints_nothing_on_stderr(tmp_path):
    # the report says max_residual Infinity; numpy's overflow warning would only
    # repeat it on stderr, with the library's path
    proc = run_fresh(None, tmp_path, ["qwps.cli", "verify", "--suite", "teardrop", "--q", "0.9",
                                      "--l", "300", "--N", "4"])
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["max_residual"] == math.inf


def test_qdirac_small_q_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "qdirac", "--q", "0.1"])
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["threshold"] == 1e-9
    assert report["max_residual"] < report["threshold"]
