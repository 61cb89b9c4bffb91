"""Digests of the byte-identity reference set of ``nclp`` commands.

    python3 tools/reference_digests.py CHECKOUT > digests.txt

Runs a fixed set of ``nclp`` CLI commands in process against the package in
``CHECKOUT/src`` and prints one line per command: its argv (with the
``NCLP_EPS_REL`` it ran under, if any), its exit code, and the sha256 of
its stdout, its stderr and each file it wrote.  A change that must keep
every output byte-identical gives the same lines as its parent: run the
tool on both checkouts and diff the outputs.

The set:

* the ten suites at their default profiles, seeds 1, 2 and 281 at 10
  trials and seed 0 at 50 trials;
* the ten suites at the ``wide_blocks`` profiles of
  ``benchmarks/workloads.py``, seed 3, 10 trials;
* the ten suites at ``--eps-rel 1e-9`` and under ``NCLP_EPS_REL=1e-7``,
  seed 23, 6 trials;
* the ten suites with a ``--tol-override`` of one gate at 1e-300, and one
  with a key the suite does not have (a usage error);
* ``appendixA --seed 7045 --trials 1 --dims 2x2,3x2,3x3``;
* the 36 ``file_calls`` commands of ``benchmarks/workloads.py`` at seeds
  11 and 12, on the matrix files it writes.

The suite reports go to stdout.  Commands run in a fresh temporary
directory with relative paths, so the lines do not depend on where it is.
The file commands come from ``CHECKOUT/benchmarks/workloads.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SUITE_SEEDS = ((1, 10), (2, 10), (281, 10), (0, 50))
WIDE_SEED, WIDE_TRIALS = 3, 10
EPS_SEED, EPS_TRIALS = 23, 6
FILE_SEEDS = (11, 12)
# One gate per suite, overridden at 1e-300; the keys are report keys, part
# of the suites' external contract.
OVERRIDES = {"appendixA": "f_multiplicativity", "corollary7": "relative",
             "dpi": "identity_equality", "lemma1": "identity",
             "lemma3": "interpolation_slack", "lemma5": "residual",
             "lemma8": "solver_agreement", "lemma9": "path_agreement",
             "prop11": "q_multiplicativity", "theorem6": "relative"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if p.is_file()}


def _run(main, argv: list[str], env: str | None, inputs: set[Path]) -> str:
    """One command's digest line; files other than the inputs are removed
    before it runs, so those present afterwards are the ones it wrote."""
    root = Path(".")
    for path in _files(root) - inputs:
        path.unlink()
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("NCLP_EPS_REL", None)
    if env is not None:
        os.environ["NCLP_EPS_REL"] = env
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop("NCLP_EPS_REL", None)
        if saved is not None:
            os.environ["NCLP_EPS_REL"] = saved
    written = ",".join(f"{p.as_posix()}:{_sha(p.read_bytes())}"
                       for p in sorted(_files(root) - inputs))
    prefix = "" if env is None else f"NCLP_EPS_REL={env} "
    return (f"{prefix}{json.dumps(argv)} exit={code} "
            f"stdout={_sha(out.getvalue().encode())} "
            f"stderr={_sha(err.getvalue().encode())} files=[{written}]")


def _commands(workloads) -> list[tuple[list[str], str | None]]:
    """The reference set as (argv, NCLP_EPS_REL or None); builds the
    file-call inputs in the current directory."""
    def suite(name, seed, trials, *extra):
        return ["suite", "--name", name, "--seed", str(seed), "--trials",
                str(trials), *extra]

    names = sorted(OVERRIDES)
    cmds = [(suite(name, seed, trials), None)
            for seed, trials in SUITE_SEEDS for name in names]
    cmds += [(suite(name, WIDE_SEED, WIDE_TRIALS, "--dims",
                    workloads.WIDE_BLOCKS[name]), None) for name in names]
    cmds += [(suite(name, EPS_SEED, EPS_TRIALS, "--eps-rel", "1e-9"), None)
             for name in names]
    cmds += [(suite(name, EPS_SEED, EPS_TRIALS), "1e-7") for name in names]
    cmds += [(suite(name, 1, 2, "--tol-override", f"{key}=1e-300"), None)
             for name, key in sorted(OVERRIDES.items())]
    cmds.append((suite("lemma5", 1, 2, "--tol-override", "nokey=1"), None))
    cmds.append((suite("appendixA", 7045, 1, "--dims", "2x2,3x2,3x3"), None))
    for seed in FILE_SEEDS:
        work = workloads.FileCallsWorkload(seed, Path(f"calls-{seed}"))
        cmds += [(cmd.argv, None) for cmd in work.commands()]
    return cmds


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks")]
    import workloads
    from nclp import cli

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            cmds = _commands(workloads)
            inputs = _files(Path("."))
            for cmd_argv, env in cmds:
                print(_run(cli.main, cmd_argv, env, inputs), flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
