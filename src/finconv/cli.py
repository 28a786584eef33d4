"""Command-line front end: one verb per construction.

Exit codes: 0 success, 1 verification/validation failure (a semigroup
axiom fails, a path fails validation, a root is not certified), 2 input
error (bad file, bad flag, violated precondition). Primary output goes to
-o or standard output; diagnostics to standard error. Identical inputs,
flags, and seed produce byte-identical output. No command uses threads;
--threads is accepted for compatibility and changes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import fileio
from .divisibility import (
    FIT_R_MAX,
    SolverConfig,
    VERDICT_EXACT,
    check_concentration,
    exp_approx_error,
    extract_jump,
    fit_levy_khintchine,
    is_infinitely_divisible,
    lambda_for,
    nth_root,
)
from .errors import FinconvError, FreeVariableError
from .formulas import free_variables, parse_formula
from .levy import (
    compare_paths,
    export_path,
    levy_from_exponential,
    levy_from_root,
    make_timeline,
    validate_levy,
)
from .measures import conv_exp, conv_power, convolve, measure_of_event
from .structures import definable_set, verify_semigroup


def _write_file(text: str, path) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FinconvError(f"cannot write {path}: {exc.strerror}") from exc


def _write(text: str, args) -> None:
    if args.output:
        _write_file(text, args.output)
    else:
        sys.stdout.write(text)


def _emit_measure(mu, args) -> None:
    if args.output and args.output.lower().endswith(".csv"):
        _write(fileio.measure_to_csv(mu), args)
    else:
        _write(fileio.canonical_json(fileio.measure_to_dict(mu)), args)


def _load_certified(model_path):
    s = fileio.load_model(model_path)
    cert = verify_semigroup(s)
    if not cert.passed:
        failed = [a.name for a in cert.axioms if not a.holds]
        raise FinconvError(f"model fails semigroup axioms: {', '.join(failed)}")
    return s


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        seed=args.seed,
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol_residual=args.tol,
    )


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise FinconvError(f"bad integer list {text!r}") from exc
    if not values:
        raise FinconvError("empty integer list")
    return values


# --- command handlers -------------------------------------------------------

def cmd_verify(args) -> int:
    s = fileio.load_model(args.model)
    cert = verify_semigroup(s)
    _write(fileio.canonical_json(fileio.certificate_to_dict(cert)), args)
    return 0 if cert.passed else 1


def cmd_eval(args) -> int:
    # event probability never touches the semigroup; skip certification
    s = fileio.load_model(args.model)
    mu = fileio.load_measure(args.measure, s)
    f = parse_formula(args.formula, s)
    free = sorted(free_variables(f))
    if len(free) != 1:
        raise FreeVariableError(f"event formula must have exactly one free variable, has {free}")
    event = definable_set(s, f, free[0])
    p = measure_of_event(mu, event)
    _write(
        fileio.canonical_json(
            {"probability": p, "event": [int(i) for i in event.nonzero()[0]]}
        ),
        args,
    )
    return 0


def cmd_convolve(args) -> int:
    s = _load_certified(args.model)
    mu = fileio.load_measure(args.left, s)
    nu = fileio.load_measure(args.right, s)
    _emit_measure(convolve(mu, nu), args)
    return 0


def cmd_power(args) -> int:
    s = _load_certified(args.model)
    mu = fileio.load_measure(args.measure, s)
    _emit_measure(conv_power(mu, args.n), args)
    return 0


def cmd_exp(args) -> int:
    s = _load_certified(args.model)
    mu = fileio.load_measure(args.measure, s)
    _emit_measure(conv_exp(mu, args.r, args.tol), args)
    return 0


def cmd_root(args) -> int:
    s = _load_certified(args.model)
    target = fileio.load_measure(args.measure, s)
    cert = nth_root(target, args.n, _solver_config(args))
    _write(fileio.canonical_json(fileio.root_certificate_to_dict(cert)), args)
    return 0 if cert.verdict == VERDICT_EXACT else 1


def cmd_divisible(args) -> int:
    s = _load_certified(args.model)
    target = fileio.load_measure(args.measure, s)
    report = is_infinitely_divisible(target, args.n_max, _solver_config(args))
    _write(fileio.canonical_json(fileio.divisibility_report_to_dict(report)), args)
    return 0 if report.divisible else 1


def cmd_lambda(args) -> int:
    s = _load_certified(args.model)
    mu = fileio.load_measure(args.measure, s)
    _emit_measure(lambda_for(mu, args.r, args.K), args)
    return 0


def cmd_extract_jump(args) -> int:
    s = _load_certified(args.model)
    lam = fileio.load_measure(args.measure, s)
    _emit_measure(extract_jump(lam, args.r, args.K), args)
    return 0


def cmd_concentration(args) -> int:
    s = _load_certified(args.model)
    mu = fileio.load_measure(args.measure, s)
    lam = fileio.load_measure(args.approx_root, s)
    report = check_concentration(mu, lam, args.r, args.K, args.eps)
    _write(fileio.canonical_json(fileio.concentration_report_to_dict(report)), args)
    return 0 if report.passed else 1


def cmd_fit_lk(args) -> int:
    s = _load_certified(args.model)
    target = fileio.load_measure(args.measure, s)
    fit = fit_levy_khintchine(target, _solver_config(args), r_max=args.r_max)
    _write(fileio.canonical_json(fileio.fit_to_dict(fit)), args)
    return 0


def cmd_bernoulli(args) -> int:
    s = _load_certified(args.model)
    mu = fileio.load_measure(args.measure, s)
    ks = sorted(_parse_int_list(args.K_list))
    errors = [exp_approx_error(mu, args.r, k, args.tol) for k in ks]
    lines = ["K,tv_error"] + [
        f"{k},{format(err, '.17g')}" for k, err in zip(ks, errors)
    ]
    _write("\n".join(lines) + "\n", args)
    return 0


def _emit_path(path, args) -> None:
    csv_text = export_path(path)
    _write(csv_text, args)
    if args.manifest:
        if not args.output:
            raise FinconvError("--manifest needs -o so the manifest can point at the CSV")
        # relative to the manifest's directory, which fileio.load_path joins it
        # to before resolving: between resolved paths, ".." follows no symlink
        rel = os.path.relpath(Path(args.output).resolve(), Path(args.manifest).parent.resolve())
        _write_file(fileio.canonical_json(fileio.path_manifest(path, rel)), args.manifest)


def cmd_levy_root(args) -> int:
    s = _load_certified(args.model)
    nu = fileio.load_measure(args.measure, s)
    path = levy_from_root(nu, args.N)
    _emit_path(path, args)
    return 0


def cmd_levy_exp(args) -> int:
    s = _load_certified(args.model)
    nu = fileio.load_measure(args.measure, s)
    if args.samples is not None:
        timeline = make_timeline("samples", args.samples.split(","))
    elif args.rationals is not None:
        timeline = make_timeline("rationals", args.rationals.split(","))
    else:
        timeline = make_timeline("uniform_grid", args.N)
    path = levy_from_exponential(nu, args.r, timeline, args.tol)
    _emit_path(path, args)
    return 0


def cmd_levy_validate(args) -> int:
    s = _load_certified(args.model)
    path = fileio.load_path(args.path, s)
    report = validate_levy(path, args.tol)
    _write(fileio.canonical_json(fileio.validation_report_to_dict(report)), args)
    return 0 if report.passed else 1


def cmd_compare_paths(args) -> int:
    s = _load_certified(args.model)
    nu_a = fileio.load_measure(args.left, s)
    nu_b = fileio.load_measure(args.right, s)
    path_a = levy_from_root(nu_a, args.N)
    path_b = levy_from_root(nu_b, args.N)
    worst, at = compare_paths(path_a, path_b)
    _write(fileio.canonical_json({"max_tv": worst, "at_tick": at, "N": args.N}), args)
    return 0


# --- parser -----------------------------------------------------------------

def _add_solver_flags(p) -> None:
    d = SolverConfig()
    p.add_argument("--seed", type=int, default=d.seed, help="seed for restart draws")
    p.add_argument("--restarts", type=int, default=d.restarts, help="descent restarts")
    p.add_argument("--max-iters", type=int, default=d.max_iters, help="iteration cap per restart")
    p.add_argument("--tol", type=float, default=d.tol_residual, help="residual tolerance")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on standard error and exits 2."""

    def error(self, message):
        print(f"error: {self.prog}: {message}", file=sys.stderr)
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="finconv",
        description="Convolution algebra on finite structures: verify semigroups, convolve, "
        "exponentiate, take roots, and build paths on timelines.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1, help="accepted for compatibility; no command uses threads")
    common.add_argument("-o", "--output", default=None, help="write primary output here instead of standard output")

    sub = parser.add_subparsers(dest="command", required=True, metavar="command", parser_class=_Parser)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    def add(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], formatter_class=fmt, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("model", help="model JSON file")
        return p

    add("verify", cmd_verify, "check the semigroup axioms and print the certificate")

    p = add("eval", cmd_eval, "probability of a formula-defined event")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--formula", required=True, help="formula with one free variable")

    p = add("convolve", cmd_convolve, "convolution of two measures")
    p.add_argument("left", help="measure JSON file")
    p.add_argument("right", help="measure JSON file")

    p = add("power", cmd_power, "n-fold self-convolution")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--n", type=int, required=True, help="power")

    p = add("exp", cmd_exp, "convolution exponential at rate r")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--r", type=float, required=True, help="rate")
    p.add_argument("--tol", type=float, default=1e-9, help="total-variation tolerance")

    p = add("root", cmd_root, "search for an n-th convolution root")
    p.add_argument("measure", help="target measure JSON file")
    p.add_argument("--n", type=int, required=True, help="root order")
    _add_solver_flags(p)

    p = add("divisible", cmd_divisible, "root certificates for every n up to n-max")
    p.add_argument("measure", help="target measure JSON file")
    p.add_argument("--n-max", type=int, required=True, help="largest root order")
    _add_solver_flags(p)

    p = add("lambda", cmd_lambda, "the K-th approximate root of the exponential")
    p.add_argument("measure", help="jump measure JSON file")
    p.add_argument("--r", type=float, required=True, help="rate")
    p.add_argument("--K", type=int, required=True, help="number of factors")

    p = add("extract-jump", cmd_extract_jump, "recover the jump measure from an approximate root")
    p.add_argument("measure", help="approximate-root measure JSON file")
    p.add_argument("--r", type=float, required=True, help="rate")
    p.add_argument("--K", type=int, required=True, help="number of factors")

    p = add("concentration", cmd_concentration, "check the three concentration conditions")
    p.add_argument("measure", help="target measure JSON file")
    p.add_argument("approx_root", help="approximate-root measure JSON file")
    p.add_argument("--r", type=float, required=True, help="rate")
    p.add_argument("--K", type=int, required=True, help="number of factors")
    p.add_argument("--eps", type=float, default=1e-3, help="slack for the scalar ratio condition")

    p = add("fit-lk", cmd_fit_lk, "best exponential approximation of a target")
    p.add_argument("measure", help="target measure JSON file")
    p.add_argument("--r-max", type=float, default=FIT_R_MAX, help="largest rate searched")
    _add_solver_flags(p)

    p = add("bernoulli", cmd_bernoulli, "convergence table of the K-factor approximation")
    p.add_argument("measure", help="jump measure JSON file")
    p.add_argument("--r", type=float, required=True, help="rate")
    p.add_argument("--K-list", required=True, help="comma-separated K values")
    p.add_argument("--tol", type=float, default=1e-9, help="exponential tolerance")

    p = add("levy-root", cmd_levy_root, "path of root powers on a uniform grid")
    p.add_argument("measure", help="root measure JSON file")
    p.add_argument("--N", type=int, required=True, help="grid steps")
    p.add_argument("--manifest", default=None, help="also write a manifest JSON here")

    p = add("levy-exp", cmd_levy_exp, "path of exponentials over a timeline")
    p.add_argument("measure", help="jump measure JSON file")
    p.add_argument("--r", type=float, required=True, help="rate at the right endpoint")
    p.add_argument("--tol", type=float, default=1e-9, help="per-marginal tolerance")
    timeline = p.add_mutually_exclusive_group()
    timeline.add_argument("--N", type=int, default=16, help="uniform grid steps (unless --samples/--rationals)")
    timeline.add_argument("--samples", default=None, help="comma-separated real ticks in [0,1]")
    timeline.add_argument("--rationals", default=None, help="comma-separated rational ticks in [0,1]")
    p.add_argument("--manifest", default=None, help="also write a manifest JSON here")

    p = add("levy-validate", cmd_levy_validate, "re-check a stored path against the process laws")
    p.add_argument("path", help="path CSV or manifest JSON")
    p.add_argument("--tol", type=float, default=1e-9, help="validation tolerance")

    p = add("compare-paths", cmd_compare_paths, "max tick-wise distance between two root paths")
    p.add_argument("left", help="first root measure JSON file")
    p.add_argument("right", help="second root measure JSON file")
    p.add_argument("--N", type=int, required=True, help="grid steps")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        return args.handler(args)
    except FinconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
