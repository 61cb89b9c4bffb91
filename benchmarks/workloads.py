"""The three workloads: inputs made from a seed, the commands, output checks.

Every workload is a fixed list of in-process ``nclp`` CLI commands, one
"pass".  A run repeats the pass; each command's output is checked every time.

* ``small_suites``: every suite at today's default profiles (small carriers,
  glue-bound; per-call overhead and caching work shows here).
* ``wide_blocks``: the same suites at larger, unequal direct sums (LAPACK-bound;
  unequal blocks cannot be stacked, so batching must not slow it).
* ``file_calls``: one-shot commands on matrix files the benchmark writes
  itself (argparse, file parsing and validation, one divergence or norm).

The profiles are spelled out here, not taken from ``nclp.suites``, so that the
workload stays the same when the package's defaults change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# A suite command runs TRIALS trials per profile, and a pass runs every suite
# once for each of SUBSEEDS seeds derived from the workload seed.  Short
# commands give the latency percentiles many samples.  Several seeds per pass
# average the cost of the random instances (ranks, branches), so that the
# pass costs about the same for every workload seed; they also average the
# spanning SVD of theorem6, which runs once per profile and whose cost swings
# with BLAS threading on a busy host.
TRIALS = 10
SMALL_SUBSEEDS = 5
WIDE_SUBSEEDS = 4

SMALL_SUITES = {
    "appendixA": "2x2,3x2,3x3",
    "corollary7": "2x2,3x2",
    "dpi": "2,3",
    "lemma1": "2,3,4",
    "lemma3": "2,3,2+2",
    "lemma5": "2x2,3x2",
    "lemma8": "2,3",
    "lemma9": "2,3",
    "prop11": "2,3",
    "theorem6": "2x2,3x2,3x3,2+3x2",
}

WIDE_BLOCKS = {
    "appendixA": "2+3x2+2",
    "corollary7": "2+3x3",
    "dpi": "4+5",
    "lemma1": "4+5",
    "lemma3": "4+5",
    "lemma5": "2+3x3",
    "lemma8": "4+5",
    "lemma9": "2+3+4",
    "prop11": "4+5",
    "theorem6": "3x3,2+3x2+2",
}

FILE_PROFILES = ((2,), (3,), (2, 3), (4,))

WORKLOADS = ("small_suites", "wide_blocks", "file_calls")
# The workloads BENCHMARK.json lists.  wide_blocks runs by hand only: on a
# 2-core shared host its LAPACK-bound throughput drifts with the host's
# phases by about as much as the 0.25 bound between runs of the same code.
BENCHMARKED = ("small_suites", "file_calls")


@dataclass
class Command:
    """One CLI invocation and how to check what it returned."""

    argv: list[str]
    label: str
    items: int  # trials a suite command must report; 1 for a file call
    # (exit code, stdout) -> failed items; may raise on malformed output
    check: Callable[[int, str], int]
    # Commands of one group share their latency samples (see run.latency_ms)
    group: int = 0


class SuiteWorkload:
    """``nclp suite --name N --seed S --trials T --dims D --out F`` per suite
    and per derived seed ``S``.

    A command's items are its trials.  A trial fails when its ``passed`` flag
    is false or missing, when the command exits non-zero or raises, or when
    the report's bytes differ from the first time the command ran in this
    run (reports must be byte-identical at a pinned seed).
    """

    def __init__(self, profiles: dict[str, str], seed: int, workdir: Path,
                 trials: int, subseeds: int):
        self.profiles = profiles
        # Distinct workload seeds give disjoint sets of suite seeds.
        self.seeds = [seed * subseeds + k for k in range(subseeds)]
        self.trials = trials
        self.workdir = workdir
        self.reference: dict[Path, bytes] = {}
        self.worst_margin = 0.0

    def _argv(self, name: str, seed: int, trials: int) -> list[str]:
        return ["suite", "--name", name, "--seed", str(seed),
                "--trials", str(trials), "--dims", self.profiles[name],
                "--out", str(self.workdir / f"{name}-{seed}.json")]

    def commands(self) -> list[Command]:
        return [Command(self._argv(name, seed, self.trials), name,
                        self.trials * len(dims.split(",")),
                        self._checker(name, seed), group=seed)
                for seed in self.seeds
                for name, dims in self.profiles.items()]

    def setup_argv(self) -> list[str]:
        """The workload's first command at one trial per profile, writing
        its report where no measured command reads."""
        argv = self._argv(next(iter(self.profiles)), self.seeds[0], 1)
        argv[-1] = str(self.workdir / "setup.json")
        return argv

    def warmup(self) -> list[Command]:
        return [Command(self._argv(name, self.seeds[0], 1), name, 0,
                        lambda rc, out: 0)
                for name in self.profiles]

    def _checker(self, name: str, seed: int):
        path = self.workdir / f"{name}-{seed}.json"
        expected = self.trials * len(self.profiles[name].split(","))

        def check(rc: int, _stdout: str) -> int:
            if rc != 0 or not path.exists():
                return expected
            raw = path.read_bytes()
            path.unlink()  # the next run of the command must write it anew
            first = self.reference.setdefault(path, raw)
            if raw != first:
                return expected
            results = json.loads(raw)["results"]
            passed = sum(1 for r in results if r.get("passed") is True)
            self.worst_margin = max(self.worst_margin, _worst_margin(results))
            return expected - min(passed, expected)

        return check


def _worst_margin(results: list[dict]) -> float:
    """Largest residual / tolerance over trials with a positive tolerance."""
    worst = 0.0
    for r in results:
        for key, res in r["residuals"].items():
            tol = r["tolerances"].get(key)
            if isinstance(tol, (int, float)) and tol > 0:
                worst = max(worst, float(res) / tol)
    return worst


# -- file_calls ---------------------------------------------------------------


def _complex_gaussian(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


def _hermitian(m):
    return (m + m.conj().T) / 2.0


def _normalized(blocks):
    mass = sum(float(np.trace(b).real) for b in blocks)
    return [b / mass for b in blocks]


def _reference_blocks(rng, dims):
    """Faithful density with spectrum in [0.2, 1] before normalization."""
    blocks = []
    for n in dims:
        q, _ = np.linalg.qr(_complex_gaussian(rng, n, n))
        w = rng.uniform(0.2, 1.0, n)
        blocks.append(_hermitian((q * w) @ q.conj().T))
    return _normalized(blocks)


def _gram_blocks(rng, dims, rank_of):
    blocks = []
    for n in dims:
        g = _complex_gaussian(rng, n, rank_of(n))
        blocks.append(_hermitian(g @ g.conj().T))
    return _normalized(blocks)


def _document(dims, blocks, kind):
    return {"algebra": {"blocks": list(dims)},
            "matrix": {"blocks": [{"re": b.real.tolist(),
                                   "im": b.imag.tolist()} for b in blocks]},
            "kind": kind}


def _as_parsed(blocks):
    """The blocks exactly as a reader of the JSON file rebuilds them."""
    return [np.array(b.real.tolist()) + 1j * np.array(b.imag.tolist())
            for b in blocks]


def _json_value(value: float):
    return "inf" if math.isinf(value) else value


class FileCallsWorkload:
    """One-shot ``divergence``, ``lp-norm`` and ``tensor`` calls on files.

    Each profile gets a faithful reference phi (spectrum in [0.2, 1]), a
    faithful psi, a rank-deficient psi (half rank per block, so that a pair
    with it as reference takes the infinite branch), and a general element x.
    The expected value of every call comes from the direct API on the same
    numbers, computed once before timing.  A call fails on a non-zero exit,
    an exception, or any disagreement with that value.
    """

    worst_margin = 0.0  # no suite residuals here

    def __init__(self, seed: int, workdir: Path):
        import nclp

        self.nclp = nclp
        self.workdir = workdir
        self.eps = nclp.default_eps_rel()
        rng = np.random.default_rng([seed, 7])
        pool = workdir / "pool"
        pool.mkdir(parents=True, exist_ok=True)
        self.files: list[dict] = []
        for dims in FILE_PROFILES:
            tag = "+".join(map(str, dims))
            entry = {"dims": dims}
            for role, kind, blocks in (
                    ("phi", "functional", _reference_blocks(rng, dims)),
                    ("psi", "functional",
                     _gram_blocks(rng, dims, lambda n: n)),
                    ("psi_r", "functional",
                     _gram_blocks(rng, dims, lambda n: max(1, n // 2))),
                    ("x", "element",
                     [_complex_gaussian(rng, n, n) for n in dims])):
                path = pool / f"{tag}-{role}.json"
                path.write_text(json.dumps(_document(dims, blocks, kind)),
                                encoding="utf-8")
                entry[role] = (str(path), _as_parsed(blocks), kind)
            self.files.append(entry)
        self._commands = self._build()

    def commands(self) -> list[Command]:
        return self._commands

    def setup_argv(self) -> list[str]:
        return self._commands[0].argv

    def warmup(self) -> list[Command]:
        return self._commands

    # -- expected values through the direct API ---------------------------

    def _element(self, spec):
        _, blocks, _ = spec
        n = self.nclp
        return n.AlgebraElement(n.BlockAlgebra(tuple(b.shape[0]
                                                     for b in blocks)),
                                blocks)

    def _functional(self, spec):
        return self.nclp.PositiveFunctional(self._element(spec),
                                            eps_rel=self.eps)

    def _divergence(self, psi, phi, alpha, z, as_json):
        n = self.nclp
        argv = ["divergence", "--kind", "sandwiched" if z is None
                else "alpha-z", "--alpha", repr(alpha)]
        if z is not None:
            argv += ["--z", repr(z)]
        argv += ["--psi", psi[0], "--phi", phi[0]]
        params = n.DivergenceParams(alpha, z=z)
        f_psi, f_phi = self._functional(psi), self._functional(phi)
        if z is None:
            q = n.q_tilde_alpha(f_psi, f_phi, alpha, self.eps)
        else:
            q = n.q_tilde_alpha_z(f_psi, f_phi, params, self.eps)
        d = n.d_tilde(f_psi, f_phi, params, self.eps)
        if as_json:
            argv.append("--json")
            want = {"Q": {"value": _json_value(q.value),
                          "reason": q.reason.value},
                    "D": {"value": _json_value(d.value),
                          "reason": d.reason.value}}

            def check(rc, out):
                return int(rc != 0 or json.loads(out)["results"] != want)
        else:
            text = f"Q={q}\nD={d}\n"

            def check(rc, out):
                return int(rc != 0 or out != text)
        label = "divergence." + ("sandwiched" if z is None else "alpha-z")
        return Command(argv, label, 1, check)

    def _lp_norm(self, x, p, phi=None, eta=0.0):
        n = self.nclp
        argv = ["lp-norm", "--p", p, "--x", x[0]]
        exponent = n.LpExponent.parse(p)
        if phi is None:
            value = n.lp_norm(self._element(x), exponent)
        else:
            argv += ["--kosaki", "--phi", phi[0], "--eta", repr(eta)]
            spec = n.KosakiSpec(self._functional(phi), exponent, eta)
            value = n.kosaki_norm(self._element(x), spec, self.eps)

        def check(rc, out):
            return int(rc != 0 or not out.startswith("norm=")
                       or float(out.strip()[5:]) != value)
        return Command(argv, "lp-norm" + ("" if phi is None else ".kosaki"),
                       1, check)

    def _tensor(self, left, right, out_name):
        n = self.nclp
        out_path = self.workdir / out_name
        T = n.TensorAlgebra(self._element(left).algebra,
                            self._element(right).algebra)
        product = n.kron_element(T, self._element(left),
                                 self._element(right))
        kind = ("functional" if left[2] == right[2] == "functional"
                else "element")
        want_dims = list(product.algebra.block_dims)
        want = product.blocks

        def check(rc, _out):
            if rc != 0:
                return 1
            doc = json.loads(out_path.read_text(encoding="utf-8"))
            out_path.unlink()  # the next call must write it anew
            got = doc["matrix"]["blocks"]
            ok = (doc["kind"] == kind and doc["algebra"]["blocks"] == want_dims
                  and len(got) == len(want)
                  and all(np.array_equal(np.array(g["re"]), w.real)
                          and np.array_equal(np.array(g["im"]), w.imag)
                          for g, w in zip(got, want)))
            return int(not ok)
        return Command(["tensor", "--left", left[0], "--right", right[0],
                        "-o", str(out_path)], "tensor", 1, check)

    def _build(self) -> list[Command]:
        cmds = []
        for i, f in enumerate(self.files):
            nxt = self.files[(i + 1) % len(self.files)]
            phi, psi, psi_r, x = f["phi"], f["psi"], f["psi_r"], f["x"]
            cmds += [
                self._divergence(psi, phi, 2.0, None, False),
                self._divergence(psi_r, phi, 0.5, None, True),
                # psi is faithful and the reference is not: infinite branch
                self._divergence(psi, psi_r, 1.5, None, False),
                self._divergence(psi_r, phi, 0.7, 1.3, False),
                self._divergence(psi, phi, 2.0, 1.5, True),
                self._lp_norm(x, "1.5"),
                self._lp_norm(x, "3", phi, 0.25),
                self._tensor(x, nxt["x"], "tensor-x.json"),
                self._tensor(phi, nxt["psi_r"], "tensor-f.json"),
            ]
        for i, cmd in enumerate(cmds):
            cmd.group = i
        return cmds


def make(name: str, seed: int, workdir: Path, tiny: bool = False):
    """The workload ``name`` with inputs from ``seed``; ``tiny`` runs one
    trial per suite profile at one seed (for the self-test)."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "small_suites":
        return SuiteWorkload(SMALL_SUITES, seed, workdir, 1 if tiny else TRIALS,
                             1 if tiny else SMALL_SUBSEEDS)
    if name == "wide_blocks":
        return SuiteWorkload(WIDE_BLOCKS, seed, workdir, 1 if tiny else TRIALS,
                             1 if tiny else WIDE_SUBSEEDS)
    if name == "file_calls":
        return FileCallsWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
