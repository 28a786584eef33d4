"""Command-line front end: one verb per construction.

`main` is the one front door: it loads the model, certifies it unless the
verb is `verify` or `eval` (the convolution algebra exists only on a
certified monoid), loads the verb's measure files in their declared order
and hands them to the verb's handler. Input errors come in that order,
and the verb's own checks after them.

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


def _certify(s) -> None:
    cert = verify_semigroup(s)
    if not cert.passed:
        failed = [a.name for a in cert.axioms if not a.holds]
        raise FinconvError(f"model fails semigroup axioms: {', '.join(failed)}")


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

def cmd_verify(args, s) -> int:
    cert = verify_semigroup(s)
    _write(fileio.canonical_json(fileio.report_to_dict(cert)), args)
    return 0 if cert.passed else 1


def cmd_eval(args, s, mu) -> int:
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


def cmd_convolve(args, s, mu, nu) -> int:
    _emit_measure(convolve(mu, nu), args)
    return 0


def cmd_power(args, s, mu) -> int:
    _emit_measure(conv_power(mu, args.n), args)
    return 0


def cmd_exp(args, s, mu) -> int:
    _emit_measure(conv_exp(mu, args.r, args.tol), args)
    return 0


def cmd_root(args, s, target) -> int:
    cert = nth_root(target, args.n, _solver_config(args))
    _write(fileio.canonical_json(fileio.root_certificate_to_dict(cert)), args)
    return 0 if cert.verdict == VERDICT_EXACT else 1


def cmd_divisible(args, s, target) -> int:
    report = is_infinitely_divisible(target, args.n_max, _solver_config(args))
    _write(fileio.canonical_json(fileio.divisibility_report_to_dict(report)), args)
    return 0 if report.divisible else 1


def cmd_lambda(args, s, mu) -> int:
    _emit_measure(lambda_for(mu, args.r, args.K), args)
    return 0


def cmd_extract_jump(args, s, lam) -> int:
    _emit_measure(extract_jump(lam, args.r, args.K), args)
    return 0


def cmd_concentration(args, s, mu, lam) -> int:
    report = check_concentration(mu, lam, args.r, args.K, args.eps)
    _write(fileio.canonical_json(fileio.report_to_dict(report)), args)
    return 0 if report.passed else 1


def cmd_fit_lk(args, s, target) -> int:
    fit = fit_levy_khintchine(target, _solver_config(args), r_max=args.r_max)
    _write(fileio.canonical_json(fileio.fit_to_dict(fit)), args)
    return 0


def cmd_bernoulli(args, s, mu) -> int:
    ks = sorted(_parse_int_list(args.K_list))
    errors = [exp_approx_error(mu, args.r, k, args.tol) for k in ks]
    lines = ["K,tv_error"] + [
        f"{k},{format(err, '.17g')}" for k, err in zip(ks, errors)
    ]
    _write("\n".join(lines) + "\n", args)
    return 0


def _check_manifest(args) -> None:
    # before the path is built, so a refused command writes nothing
    if args.manifest and not args.output:
        raise FinconvError("--manifest needs -o so the manifest can point at the CSV")


def _emit_path(path, args) -> None:
    _write(export_path(path), args)
    if args.manifest:
        # relative to the manifest's directory, which fileio.load_path joins it
        # to before resolving: between resolved paths, ".." follows no symlink
        rel = os.path.relpath(Path(args.output).resolve(), Path(args.manifest).parent.resolve())
        _write_file(fileio.canonical_json(fileio.path_manifest(path, rel)), args.manifest)


def cmd_levy_root(args, s, nu) -> int:
    _check_manifest(args)
    _emit_path(levy_from_root(nu, args.N), args)
    return 0


def cmd_levy_exp(args, s, nu) -> int:
    _check_manifest(args)
    if args.samples is not None:
        timeline = make_timeline("samples", args.samples.split(","))
    elif args.rationals is not None:
        timeline = make_timeline("rationals", args.rationals.split(","))
    else:
        timeline = make_timeline("uniform_grid", args.N)
    _emit_path(levy_from_exponential(nu, args.r, timeline, args.tol), args)
    return 0


def cmd_levy_validate(args, s) -> int:
    path = fileio.load_path(args.path, s)
    report = validate_levy(path, args.tol)
    _write(fileio.canonical_json(fileio.report_to_dict(report)), args)
    return 0 if report.passed else 1


def cmd_compare_paths(args, s, nu_a, nu_b) -> int:
    worst, at = compare_paths(levy_from_root(nu_a, args.N), levy_from_root(nu_b, args.N))
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

    def add(name, handler, help_text, *measures, certified=True):
        # `measures` are (name, help) pairs of measure files, which `main` loads
        # in this order, after certifying the model where `certified`
        p = sub.add_parser(name, parents=[common], formatter_class=fmt, help=help_text)
        p.set_defaults(handler=handler, measures=[m for m, _ in measures], certified=certified)
        p.add_argument("model", help="model JSON file")
        for measure, measure_help in measures:
            p.add_argument(measure, help=measure_help)
        return p

    add("verify", cmd_verify, "check the semigroup axioms and print the certificate", certified=False)

    # event probability never touches the semigroup
    p = add("eval", cmd_eval, "probability of a formula-defined event",
            ("measure", "measure JSON file"), certified=False)
    p.add_argument("--formula", required=True, help="formula with one free variable")

    add("convolve", cmd_convolve, "convolution of two measures",
        ("left", "measure JSON file"), ("right", "measure JSON file"))

    p = add("power", cmd_power, "n-fold self-convolution", ("measure", "measure JSON file"))
    p.add_argument("--n", type=int, required=True, help="power")

    p = add("exp", cmd_exp, "convolution exponential at rate r", ("measure", "measure JSON file"))
    p.add_argument("--r", type=float, required=True, help="rate")
    p.add_argument("--tol", type=float, default=1e-9, help="total-variation tolerance")

    p = add("root", cmd_root, "search for an n-th convolution root", ("measure", "target measure JSON file"))
    p.add_argument("--n", type=int, required=True, help="root order")
    _add_solver_flags(p)

    p = add("divisible", cmd_divisible, "root certificates for every n up to n-max",
            ("measure", "target measure JSON file"))
    p.add_argument("--n-max", type=int, required=True, help="largest root order")
    _add_solver_flags(p)

    p = add("lambda", cmd_lambda, "the K-th approximate root of the exponential",
            ("measure", "jump measure JSON file"))
    p.add_argument("--r", type=float, required=True, help="rate")
    p.add_argument("--K", type=int, required=True, help="number of factors")

    p = add("extract-jump", cmd_extract_jump, "recover the jump measure from an approximate root",
            ("measure", "approximate-root measure JSON file"))
    p.add_argument("--r", type=float, required=True, help="rate")
    p.add_argument("--K", type=int, required=True, help="number of factors")

    p = add("concentration", cmd_concentration, "check the three concentration conditions",
            ("measure", "target measure JSON file"), ("approx_root", "approximate-root measure JSON file"))
    p.add_argument("--r", type=float, required=True, help="rate")
    p.add_argument("--K", type=int, required=True, help="number of factors")
    p.add_argument("--eps", type=float, default=1e-3, help="slack for the scalar ratio condition")

    p = add("fit-lk", cmd_fit_lk, "best exponential approximation of a target",
            ("measure", "target measure JSON file"))
    p.add_argument("--r-max", type=float, default=FIT_R_MAX, help="largest rate searched")
    _add_solver_flags(p)

    p = add("bernoulli", cmd_bernoulli, "convergence table of the K-factor approximation",
            ("measure", "jump measure JSON file"))
    p.add_argument("--r", type=float, required=True, help="rate")
    p.add_argument("--K-list", required=True, help="comma-separated K values")
    p.add_argument("--tol", type=float, default=1e-9, help="exponential tolerance")

    p = add("levy-root", cmd_levy_root, "path of root powers on a uniform grid",
            ("measure", "root measure JSON file"))
    p.add_argument("--N", type=int, required=True, help="grid steps")
    p.add_argument("--manifest", default=None, help="also write a manifest JSON here")

    p = add("levy-exp", cmd_levy_exp, "path of exponentials over a timeline",
            ("measure", "jump measure JSON file"))
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

    p = add("compare-paths", cmd_compare_paths, "max tick-wise distance between two root paths",
            ("left", "first root measure JSON file"), ("right", "second root measure JSON file"))
    p.add_argument("--N", type=int, required=True, help="grid steps")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        s = fileio.load_model(args.model)
        if args.certified:
            _certify(s)
        measures = [fileio.load_measure(getattr(args, name), s) for name in args.measures]
        return args.handler(args, s, *measures)
    except FinconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
