"""Command-line front end: divergence, lp-norm, tensor, suite.

Exit codes: 0 success (infinite divergences included), 1 malformed input,
usage or an output file that cannot be written, 2 precondition violation,
3 conditioning failure, 4 suite trials failed.  The kernel cutoff resolves
flag > NCLP_EPS_REL env > default; ``tensor`` takes no cutoff and reads none.

The argument parser is built once per process, on the first call of
:func:`main`, and reused by every later call; parsing keeps no state between
calls.  An argv that starts with a command goes straight to that command's
parser, leftovers raising the top-level "unrecognized arguments" error as
``parse_args`` does; any other argv goes through the top-level parser.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import io
from .config import DEFAULT_EPS_REL, resolve_eps_rel
from .divergence import DivergenceParams, _d_stack, _point
from .errors import (ConditioningError, DomainError, NclpError, ShapeError,
                     UsageError)
from .lp import KosakiSpec, LpExponent, kosaki_norm, lp_norm
from .reports import format_float
from .suites import (SuiteConfig, format_profile, parse_dims, run_suite,
                     summarize)
from .tensor import TensorAlgebra, kron_element

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_CONDITIONING = 3
EXIT_SUITE_FAILED = 4


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1.

    ``error`` keeps no state, so one parser serves every call of main."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="nclp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_div = sub.add_parser("divergence", help="Renyi divergence of two "
                           "functional files")
    p_div.add_argument("--kind", choices=("sandwiched", "alpha-z"),
                       required=True)
    p_div.add_argument("--alpha", type=float, required=True)
    p_div.add_argument("--z", type=float, default=None)
    p_div.add_argument("--psi", required=True, metavar="FILE")
    p_div.add_argument("--phi", required=True, metavar="FILE")
    p_div.add_argument("--json", action="store_true",
                       help="emit a run report instead of plain lines")
    p_div.add_argument("--eps-rel", type=float, default=None)

    p_norm = sub.add_parser("lp-norm", help="Schatten or interpolated norm "
                            "of a matrix file")
    p_norm.add_argument("--p", required=True, help="exponent; 'inf' allowed")
    p_norm.add_argument("--x", required=True, metavar="FILE")
    p_norm.add_argument("--kosaki", action="store_true")
    p_norm.add_argument("--phi", metavar="FILE")
    p_norm.add_argument("--eta", type=float, default=None,
                        help="interpolation parameter of --kosaki "
                        "(default 0)")
    p_norm.add_argument("--eps-rel", type=float, default=None)

    p_tensor = sub.add_parser("tensor", help="Kronecker product of two "
                              "matrix files")
    p_tensor.add_argument("--left", required=True, metavar="FILE")
    p_tensor.add_argument("--right", required=True, metavar="FILE")
    p_tensor.add_argument("-o", "--out", required=True, metavar="FILE")

    p_suite = sub.add_parser("suite", help="run a named property suite")
    p_suite.add_argument("--name", required=True)
    p_suite.add_argument("--trials", type=int, default=50)
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--dims", default=None,
                         help="profiles like 2x2,3x2 or 2,3 (suite default "
                         "otherwise)")
    # default=None, not a list: the parser outlives a call, so a default
    # list would be one object handed to every call.
    p_suite.add_argument("--tol-override", action="append", default=None,
                         metavar="KEY=VALUE")
    p_suite.add_argument("--out", default=None, metavar="FILE")
    p_suite.add_argument("--eps-rel", type=float, default=None)
    parser.commands = sub.choices
    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's parser, built by :func:`_build_parser` on first use."""
    return _build_parser()


def _cmd_divergence(args) -> int:
    eps = resolve_eps_rel(args.eps_rel)
    if args.kind == "sandwiched":
        if args.z is not None:
            raise UsageError("--z applies only to --kind alpha-z")
        params = DivergenceParams(args.alpha)
    else:
        z = args.alpha if args.z is None else args.z
        params = DivergenceParams(args.alpha, z=z)
    psi, phi = io.load_functionals([args.psi, args.phi], eps)
    if psi.algebra != phi.algebra:
        raise ShapeError("psi and phi files live on different algebras")
    q, d = (_point(o) for o in _d_stack([psi], [phi], [params]))
    if args.json:
        doc = io.build_run_report(
            config={"command": "divergence", "kind": args.kind,
                    "alpha": args.alpha, "z": params.effective_z,
                    "eps_rel": eps, "psi": args.psi, "phi": args.phi},
            results={"Q": {"value": q.value, "reason": q.reason.value},
                     "D": {"value": d.value, "reason": d.reason.value}},
            status="ok")
        sys.stdout.write(io.dumps_report(doc))
    else:
        print(f"Q={q}")
        print(f"D={d}")
    return EXIT_OK


def _cmd_lp_norm(args) -> int:
    if not args.kosaki and (args.eta is not None or args.phi is not None):
        raise UsageError("--eta and --phi apply only with --kosaki")
    eps = resolve_eps_rel(args.eps_rel)
    p = LpExponent.parse(args.p)
    x = io.load_element(args.x, eps)
    if args.kosaki:
        if not args.phi:
            raise UsageError("--kosaki requires --phi FILE")
        phi = io.load_functional(args.phi, eps)
        spec = KosakiSpec(phi, p, 0.0 if args.eta is None else args.eta)
        value = kosaki_norm(x, spec)
    else:
        value = lp_norm(x, p)
    print(f"norm={format_float(value)}")
    return EXIT_OK


def _cmd_tensor(args) -> int:
    # Validation reads no cutoff (the Hermitian gate, the PSD clip), so a
    # fixed one keeps NCLP_EPS_REL out of this command.
    left = io.load_matrix_file(args.left, DEFAULT_EPS_REL)
    right = io.load_matrix_file(args.right, DEFAULT_EPS_REL)
    T = TensorAlgebra(left.algebra, right.algebra)
    with np.errstate(over="ignore"):
        # An entry beyond the float range is rejected when it is written.
        product = kron_element(T, left.element, right.element)
    kind = "functional" if (left.kind == "functional"
                            and right.kind == "functional") else "element"
    io.save_matrix_file(args.out, product, kind)
    print(f"wrote {args.out} kind={kind} "
          f"blocks={list(product.algebra.block_dims)}")
    return EXIT_OK


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"bad --tol-override {pair!r}, expected KEY=VALUE")
        key, _, value = pair.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError as exc:
            raise UsageError(f"bad tolerance value in {pair!r}") from exc
    return out


def _cmd_suite(args) -> int:
    eps = resolve_eps_rel(args.eps_rel)
    dims = parse_dims(args.dims) if args.dims else ()
    config = SuiteConfig(
        suite_name=args.name, trials=args.trials, seed=args.seed,
        dims=dims, tolerances=_parse_overrides(args.tol_override or ()),
        eps_rel=eps)
    reports = run_suite(config)
    summary = summarize(reports)
    doc = io.build_run_report(
        config={"command": "suite", "suite": config.suite_name,
                "trials": config.trials, "seed": config.seed,
                "dims": [format_profile(p) for p in
                         (config.dims or ())] or "default",
                "tolerance_overrides": config.tolerances,
                "eps_rel": eps},
        results=[r.fields() for r in reports],
        status=summary["status"])
    if args.out:
        io.write_text_file(args.out, io.dumps_report(doc))
        print(f"suite={config.suite_name} trials={summary['trials']} "
              f"failures={summary['failures']} status={summary['status']} "
              f"report={args.out}")
    else:
        sys.stdout.write(io.dumps_report(doc))
    return EXIT_OK if summary["failures"] == 0 else EXIT_SUITE_FAILED


_COMMANDS = {
    "divergence": _cmd_divergence,
    "lp-norm": _cmd_lp_norm,
    "tensor": _cmd_tensor,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _parser()
        sub = parser.commands.get(argv[0]) if argv else None
        if sub is None:
            args = parser.parse_args(argv)
        else:
            args, extras = sub.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
        return _COMMANDS[args.command](args)
    except NclpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (DomainError, ShapeError)):
            return EXIT_PRECONDITION
        if isinstance(exc, ConditioningError):
            return EXIT_CONDITIONING
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
