"""Command-line surface: generate, check, extend, fit, and metric evaluation.

Exit codes: 0 on success, 1 on a failed check or violated precondition, 2 on
usage errors; a violated precondition or usage error prints one ``error:`` line
on stderr.  Each JSON document starts with the header of its space, from
which ``extend`` and ``fit`` take theirs; a header that contradicts the
tensors makes a document malformed.  Reports are deterministic for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import __version__
from .jets import (
    RANDOM_JET_DIMS,
    JacobiFit,
    _jacobi_fit,
    einstein_check,
    einstein_extend,
    extension_solution_dim,
    random_two_jet,
    random_einstein_one_jet,
    two_jet_from_dict,
    two_jet_to_dict,
    validate_two_jet,
)
from .polymetric import (
    curvature_two_jet,
    poly_metric_from_dict,
    poly_metric_to_dict,
    random_poly_metric,
)
from .report import Report, json_text
from .spaces import Space, _header_tensors
from .suites import make_config, run_suites, run_suites_timed, suite_names

__all__ = ["main"]


def _parse_signature(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        sig = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise SystemExit2("signature must be a comma list of +1/-1") from None
    if not sig or any(s not in (1, -1) for s in sig):
        raise SystemExit2("signature entries must be +1 or -1")
    return sig


# a signature value such as -1,1,1,1 starts with a minus sign, so argparse
# would read it as an unknown option rather than as the value of --signature
_SIGNED_VALUE = re.compile(r"[+-]?\d")


def _attach_signature(argv: list[str]) -> list[str]:
    """Join "--signature VALUE" into "--signature=VALUE" when VALUE starts with a number."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--signature" and _SIGNED_VALUE.match(token):
            out[-1] = f"--signature={token}"
        else:
            out.append(token)
    return out


def _space_from_args(args, default_dim: int = 4) -> Space:
    sig = _parse_signature(args.signature)
    if sig is not None and args.dim is not None and args.dim != len(sig):
        raise SystemExit2("--dim contradicts the signature length")
    try:
        if sig is not None:
            return Space(len(sig), sig)
        return Space(args.dim if args.dim is not None else default_dim)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from exc


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _emit(doc: dict, path: str | None) -> None:
    text = json_text(doc)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc.strerror}") from exc


class DocumentError(Exception):
    """A document that cannot be read or written, or an input one that does not parse."""


def _load(path: str, parse):
    """Read the JSON document at path and return parse(document)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise DocumentError(f"{path} is not a JSON document: {exc}") from exc
    try:
        return parse(doc)
    except KeyError as exc:
        raise DocumentError(f"{path} lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{path} is malformed: {exc}") from exc


def _print_pairs(pairs: dict, as_json: bool) -> None:
    if as_json:
        _emit(pairs, None)
    else:
        for key, value in pairs.items():
            print(f"{key}: {value}")


def cmd_gen(args) -> int:
    sp = _space_from_args(args)
    if sp.dim not in RANDOM_JET_DIMS:
        raise SystemExit2(f"jets need a dimension in {RANDOM_JET_DIMS}, got {sp.dim}")
    if args.einstein:
        R, dR = random_einstein_one_jet(sp, args.seed)
        jet = einstein_extend(R, dR)
    else:
        jet = random_two_jet(sp, args.seed)
    ok, res = validate_two_jet(jet, tol=args.tol)
    _emit(two_jet_to_dict(jet), args.out)
    if args.out is not None:
        _print_pairs({"valid": ok, **res}, args.format == "json")
    return 0 if ok else 1


def cmd_check(args) -> int:
    try:
        cfg = make_config(
            dim=args.dim,
            signature=_parse_signature(args.signature),
            seed=args.seed,
            tol=args.tol,
            full=args.full,
            seeds=args.seeds,
        )
    except ValueError as exc:
        raise SystemExit2(str(exc)) from exc
    suites = args.suite if args.suite else ["all"]
    if args.timings is None:
        # perfbench's traced tour wraps cli.run_suites to capture these records
        records = run_suites(suites, cfg)
    else:
        records, timings = run_suites_timed(suites, cfg)
        _emit(timings, args.timings)
    report = Report(tuple(records), {"suites": suites, **cfg.echo()})
    if args.out is not None:
        _emit(report.to_dict(), args.out)
    sys.stdout.write(report.to_json() if args.format == "json" else report.render_text())
    return 0 if report.passed else 1


def cmd_extend(args) -> int:
    R, dR = _load(getattr(args, "in"), lambda doc: _header_tensors(doc, "R", "dR"))
    jet = einstein_extend(R, dR)
    _, report = einstein_check(jet)
    if args.out is not None:
        _emit(two_jet_to_dict(jet), args.out)
    pairs = {**report, "solution_dim": extension_solution_dim(R.space)}
    _print_pairs(pairs, args.format == "json")
    return 0


def cmd_fit(args) -> int:
    jet = _load(getattr(args, "in"), two_jet_from_dict)
    ok, res = validate_two_jet(jet)
    if not ok:
        raise ValueError(f"input is not a valid two-jet: {res}")
    # the fit of ``fit_jacobi_relation`` and its eigenvalue gap, from one fit
    c, residual, gap = _jacobi_fit(jet.d2R.data, jet.R.data, jet.space.eps)
    fit = JacobiFit(float(c), float(residual))
    pairs = {"c": fit.c, "residual": fit.residual}
    if einstein_check(jet)[0] and fit.clean:
        pairs["eigenvalue_residual"] = float(gap)
    _print_pairs(pairs, args.format == "json")
    return 0


def cmd_metric(args) -> int:
    in_path = getattr(args, "in")
    if in_path is None:
        gm = random_poly_metric(_space_from_args(args), args.seed)
        _emit(poly_metric_to_dict(gm), args.out)
        return 0
    gm = _load(in_path, poly_metric_from_dict)
    jet = curvature_two_jet(gm)
    ok, res = validate_two_jet(jet)
    if args.out is not None:
        _emit(two_jet_to_dict(jet), args.out)
    _print_pairs({"valid": ok, **res}, args.format == "json")
    return 0 if ok else 1


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise SystemExit2(f"--seed must be an integer, got {text!r}") from None
    if seed < 0:
        raise SystemExit2(f"--seed must be >= 0, got {seed}")
    return seed


def _tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise SystemExit2(f"--tol must be a number, got {text!r}") from None
    if not (math.isfinite(tol) and tol > 0.0):
        raise SystemExit2(f"--tol must be a finite positive number, got {text}")
    return tol


_COMMON = {
    "--dim": {"type": int, "default": None, "help": "dimension (default 4)"},
    "--signature": {"default": None, "help": "comma list of +1/-1"},
    "--seed": {"type": _seed, "default": 0, "help": "base random seed (>= 0)"},
    "--tol": {"type": _tol, "default": 1e-9, "help": "residual threshold (> 0)"},
    "--in": {"dest": "in", "default": None, "help": "input document path"},
    "--out": {"default": None, "help": "output document path"},
    "--format": {"choices": ("text", "json"), "default": "text"},
}


def _add_common(sub: argparse.ArgumentParser, *flags: str) -> None:
    """Declare the shared options that the subcommand reads, and no others."""
    for flag in flags:
        sub.add_argument(flag, **_COMMON[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvjet", description="curvature two-jet toolkit"
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    p_gen = commands.add_parser("gen", help="generate a random valid two-jet")
    _add_common(p_gen, "--dim", "--signature", "--seed", "--tol", "--out", "--format")
    p_gen.add_argument(
        "--einstein", action="store_true", help="generate an extended Einstein two-jet"
    )
    p_gen.set_defaults(func=cmd_gen)

    p_check = commands.add_parser("check", help="run identity check suites")
    _add_common(p_check, "--dim", "--signature", "--seed", "--tol", "--out", "--format")
    p_check.add_argument(
        "--suite",
        action="append",
        choices=suite_names(),
        help="suite to run (repeatable; default all)",
    )
    p_check.add_argument(
        "--full", action="store_true", help="nightly mode: dims up to 5, 100 seeds"
    )
    p_check.add_argument(
        "--seeds", type=int, default=None, help="seed count override (default 25)"
    )
    p_check.add_argument(
        "--timings",
        default=None,
        metavar="PATH",
        help="write the wall seconds of each suite on each space and peak memory to PATH as JSON",
    )
    p_check.set_defaults(func=cmd_check)

    p_extend = commands.add_parser("extend", help="extend an Einstein one-jet")
    _add_common(p_extend, "--in", "--out", "--format")
    p_extend.set_defaults(func=cmd_extend)

    p_fit = commands.add_parser("fit", help="fit the linear Jacobi relation")
    _add_common(p_fit, "--in", "--format")
    p_fit.set_defaults(func=cmd_fit)

    p_metric = commands.add_parser(
        "metric", help="random polynomial metric, or its curvature two-jet with --in"
    )
    _add_common(p_metric, "--dim", "--signature", "--seed", "--in", "--out", "--format")
    p_metric.set_defaults(func=cmd_metric)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_signature(argv))
    for name in ("extend", "fit"):
        if args.command == name and getattr(args, "in") is None:
            print(f"error: {name} requires --in", file=sys.stderr)
            return 2
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader left early: the null device takes the rest, so exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DocumentError, ValueError, RuntimeError) as exc:
        # the library's precondition errors; any other type is a bug and keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
