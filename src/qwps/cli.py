"""Command line front end: spectra, dimension tables, verification reports,
summability diagnostics and K-theory projection encodings.

Subcommands: spectrum, dims, verify, summability, ktheory.  Configuration
precedence is flags > config file (flat key=value lines) > defaults; every
command is deterministic given its configuration.  Exit codes: 0 success,
1 verification failure, 2 usage error.

Only :mod:`qwps.exact` is imported up front, so the counting commands and
usage errors run without numpy; verify imports the numeric modules.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

from . import exact
from .exact import QContext, WeightPair, hi

__all__ = ["RunConfig", "main"]

# each verify suite's threshold in units of tol, and the names of the elements it is
# built from, which --dump serializes: a and b of coaction.wp_gens, or the coordinate
# generators of coord.gens; a suite with None builds no algebra element and refuses --dump
_WP_GENS, _SU2Q_GENS = ("a", "b"), ("alpha", "beta", "alpha_star", "beta_star")
_SUITES = {
    "su2q-relations": (1, _SU2Q_GENS),
    "wp-relations": (10, _WP_GENS),
    "haar": (1, _SU2Q_GENS),
    "equivariance": (1, _SU2Q_GENS),
    "qdirac": (1, None),
    "chirality": (1e-3, _WP_GENS),
    "fredholm": (1e-3, _WP_GENS),
    "teardrop": (1, None),
}
_FORMATS = ("csv", "json")
# jmax/lmax above this exit 2: at cap 1e4 dims took 17-19 s (its oracle grows with
# the square of the cap) and spectrum 0.4 s; at 1e5 dims would take about 30 min
CAP_GUARD = 10_000
# summability adds min(2N + 1, 20(k+l)) shells one by one, twice for each --nlist
# entry N, and the rest in closed form per residue class mod 2(k+l); so the guard
# binds only pairs whose k + l exceeds about N/10: entries summing to 1e6 took
# 2.0-2.3 s and 32 MB at (1, 1e9), against 0.08-0.14 s and 16 MB at (1, 1)
NLIST_GUARD = 1_000_000


@dataclass
class RunConfig:
    q: float = 0.5
    tol: float = 1e-9
    k: int = 1
    l: int = 1
    jmax: float = 10.0
    lmax: float = 10.0
    N: int = 64
    n: int = 0
    format: str = "csv"
    out: str | None = None

    def context(self) -> QContext:
        return QContext(self.q, self.tol)

    def weight_pair(self) -> WeightPair:
        return WeightPair(self.k, self.l)


# each key's cast is the type of its default; out's default is None
_CONFIG_CASTS = {f.name: type(f.default) if f.default is not None else str
                 for f in fields(RunConfig)}


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_CASTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _CONFIG_CASTS[key](value)
    return values


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=float, default=None, help="deformation parameter in (0,1)")
    common.add_argument("--tol", type=float, default=None, help="numeric tolerance")
    common.add_argument("--k", type=int, default=None, help="first weight")
    common.add_argument("--l", type=int, default=None, help="second weight")
    common.add_argument("--jmax", type=float, default=None, help="spinor level cap")
    common.add_argument("--lmax", type=float, default=None, help="highest weight cap")
    common.add_argument("--N", type=int, default=None, help="sequence-space truncation")
    common.add_argument("--n", type=int, default=None, help="homogeneity index")
    common.add_argument("--format", choices=_FORMATS, default=None)
    common.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    common.add_argument("--config", type=str, default=None, help="flat key=value config file")

    parser = argparse.ArgumentParser(
        prog="qwps",
        description="quantum weighted projective spaces: spectra, dimensions, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spectrum", parents=[common], help="Dirac spectrum table")
    p.add_argument("--triple", choices=("odd", "even"), required=True)
    sub.add_parser("dims", parents=[common], help="dimension formulas vs enumeration")
    p = sub.add_parser("verify", parents=[common], help="verification suites")
    p.add_argument("--suite", choices=_SUITES, required=True)
    p.add_argument(
        "--dump",
        type=str,
        default=None,
        help="write the algebra elements the suite exercised as line-delimited records",
    )
    p = sub.add_parser("summability", parents=[common], help="partial trace sums")
    p.add_argument("--triple", choices=("odd", "even"), default="odd")
    p.add_argument("--nlist", type=str, default="512,1024,2048", help="comma separated N values")
    p = sub.add_parser("ktheory", parents=[common], help="projection class encodings")
    p.add_argument("--j", type=int, default=0)
    return parser


def _merge_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in _read_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(cfg, f.name, flag)
    return cfg


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(header, rows, cfg: RunConfig) -> None:
    """Write dict rows as csv, header line first, or as a json list."""
    if cfg.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", cfg)
        return

    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    lines = [",".join(header)]
    lines += [",".join(fmt(row[h]) for h in header) for row in rows]
    _emit("\n".join(lines) + "\n", cfg)


def _cmd_spectrum(args, cfg: RunConfig) -> int:
    wp = cfg.weight_pair()
    if args.triple == "odd":
        table = exact.odd_triple_spectrum(wp, hi(cfg.jmax))
    else:
        table = exact.even_triple_spectrum(wp, hi(cfg.lmax))
    rows = [{"eigenvalue": ev, "multiplicity": mult} for ev, mult in table.rows]
    _emit_table(("eigenvalue", "multiplicity"), rows, cfg)
    return 0


def _cmd_dims(args, cfg: RunConfig) -> int:
    rows = exact.dim_table(cfg.weight_pair(), hi(cfg.jmax))
    _emit_table(("family", "index", "closed_form", "oracle", "match"), rows, cfg)
    return 0 if all(row["match"] for row in rows) else 1


def _run_suite(suite: str, cfg: RunConfig) -> dict:
    from . import coaction, coord, dirac, teardrop
    # the pair is built by the suites that read it, so a non-coprime one stops no other suite
    ctx, wp = cfg.context(), cfg.weight_pair
    if suite == "teardrop" and cfg.k != 1:
        raise ValueError(f"the teardrop suite checks the weight-(1, l) model, got k = {cfg.k}")
    # each thunk returns the residuals and reads only the caps its suite uses
    thunks = {
        "su2q-relations": lambda: coord.relation_residuals(ctx),
        "wp-relations": lambda: coaction.verify_wp_relations(wp(), ctx),
        "haar": lambda: {"max": coord.haar_orthogonality_residual(ctx, 2)},
        "equivariance": lambda: coord.equivariance_residuals(ctx),
        "qdirac": lambda: {"max": dirac.q_dirac_check(min(hi(cfg.jmax), hi(2)), ctx)},
        "chirality": lambda: dirac.chirality_checks(wp(), min(hi(cfg.lmax), hi(5)), ctx),
        "fredholm": lambda: dirac.fredholm_degeneracy(wp(), min(hi(cfg.lmax), hi(5)), ctx),
        "teardrop": lambda: teardrop.wp_relation_residuals(cfg.l, cfg.N, ctx),
    }
    residuals, threshold = thunks[suite](), _SUITES[suite][0] * cfg.tol
    return {
        "suite": suite,
        "q": cfg.q,
        "k": cfg.k,
        "l": cfg.l,
        "residuals": residuals,
        "max_residual": residuals["max"],
        "threshold": threshold,
        "pass": bool(residuals["max"] < threshold),
    }


def _dump_elements(suite: str, cfg: RunConfig, path: str) -> None:
    """Golden-file hook: serialize the elements a suite is built from."""
    from . import coaction, coord
    ctx, names = cfg.context(), _SUITES[suite][1]
    gens = coaction.wp_gens(cfg.weight_pair(), ctx) if names is _WP_GENS else coord.gens(ctx)
    chunks = [f"# {name}\n{coord.to_jsonl(el)}" for name, el in zip(names, gens)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(chunks) + "\n")


def _cmd_verify(args, cfg: RunConfig) -> int:
    if args.dump and _SUITES[args.suite][1] is None:
        raise ValueError(f"--dump: the {args.suite} suite builds no algebra element")
    report = _run_suite(args.suite, cfg)
    if args.dump:
        _dump_elements(args.suite, cfg, args.dump)
    _emit(json.dumps(report, indent=2) + "\n", cfg)
    return 0 if report["pass"] else 1


def _cmd_summability(args, cfg: RunConfig) -> int:
    wp = cfg.weight_pair()
    n_values = [int(part) for part in args.nlist.split(",") if part.strip()]
    if not n_values:
        raise ValueError("empty N list")
    if n_values[0] < 2 or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError(f"N values must be >= 2 and strictly increasing, got {args.nlist}")
    total = sum(n_values)
    if total > NLIST_GUARD:
        raise ValueError(f"N values sum to {total}, which exceeds the cost guard {NLIST_GUARD}")
    rows = []
    prev = None
    for n_val in n_values:
        sigma = exact.summability_partial_sum(wp, n_val, args.triple)
        sigma3 = exact.summability_partial_sum(wp, n_val, args.triple, exponent=3)
        if prev is None:
            ratio = float("nan")
        else:
            ratio = (sigma - prev[1]) / math.log(n_val / prev[0])
        rows.append(
            {
                "N": n_val,
                "sigma_N": sigma,
                "sigma_over_logN": sigma / math.log(n_val),
                "increment_ratio": ratio,
                "sigma3_N": sigma3,
            }
        )
        prev = (n_val, sigma)
    _emit_table(("N", "sigma_N", "sigma_over_logN", "increment_ratio", "sigma3_N"), rows, cfg)
    return 0


def _cmd_ktheory(args, cfg: RunConfig) -> int:
    cls = exact.ktheory_class(cfg.l, cfg.n, args.j)
    _emit(json.dumps(cls.to_dict(), indent=2, ensure_ascii=False) + "\n", cfg)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        cfg.context()  # validates q and tol
        if cfg.format not in _FORMATS:
            raise ValueError(f"format must be csv or json, got {cfg.format!r}")
        for cap in ("jmax", "lmax"):
            value = getattr(cfg, cap)
            if not 0 <= value < math.inf:
                raise ValueError(f"{cap} must be finite and >= 0, got {value}")
            if value > CAP_GUARD:
                raise ValueError(f"{cap} = {value:g} exceeds the cost guard {CAP_GUARD}")
        handler = {
            "spectrum": _cmd_spectrum,
            "dims": _cmd_dims,
            "verify": _cmd_verify,
            "summability": _cmd_summability,
            "ktheory": _cmd_ktheory,
        }[args.command]
        return handler(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
