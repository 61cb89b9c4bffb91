"""The nclp benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload small_suites --seed 1 --seconds 60 \
        --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it record the run environment and details
(sample counts, passes, the host probe).  Full results go to
``.bench_out/<workload>-trace<0|1>.json``; a traced run also writes its spans
to ``.bench_out/<workload>-spans.npz``.

BLAS threading is left as the environment sets it; the run records it.
See ``benchmarks/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A p99 is reported only over at least this many samples, so that at least
# ten lie beyond it; a run goes on past --seconds until it has them.
MIN_SAMPLES = 1000
# Hard stop for one run's measured loop, whatever the sample count.
MAX_LOOP_S = 120.0
SETUP_REPS = 9

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from nclp.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def _import_nclp():
    """Import nclp from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "nclp" / "__init__.py").is_file():
        raise SystemExit(f"error: no nclp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nclp

    if Path(nclp.__file__).resolve().parent != (SRC / "nclp").resolve():
        raise SystemExit(f"error: imported nclp from {nclp.__file__}, "
                         f"not from {SRC}")
    return nclp


# -- environment and host probe ----------------------------------------------


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nclp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    config = np.show_config(mode="dicts")
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": config.get("Build Dependencies", {}),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "env": {k: os.environ[k] for k in sorted(os.environ)
                if k.endswith("_NUM_THREADS") or k.startswith("NCLP_")
                or k in ("PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED")},
    }


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop plus a fixed small eigh loop.

    A diagnostic of host speed only: no metric is rescaled by it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(16.0).reshape(4, 4) / 16.0
    h = a + a.T + 4.0 * np.eye(4)
    for _ in range(2000):
        np.linalg.eigh(h)
    return time.perf_counter() - t0


# -- measurement --------------------------------------------------------------


def time_setup(argv: list[str]) -> float:
    """Wall time of a fresh interpreter that imports nclp and runs the
    workload's first command."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *argv],
                          cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up command {argv} exited "
                           f"{proc.returncode}: {proc.stderr.decode()}")
    return elapsed


def run_pass(cli, commands, tracer=None):
    """Run each command once; return per-command wall times and failures."""
    walls, failed = [], 0
    sink = io.StringIO()
    for cmd in commands:
        out = io.StringIO()
        if tracer is not None:
            tracer.begin_command()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = cli.main(cmd.argv)
            except Exception as exc:  # a crash is a failed item, not a stop
                print(f"{cmd.label}: {type(exc).__name__}: {exc}",
                      file=sys.__stderr__)
                rc = None
            walls.append(time.perf_counter() - t0)
        try:
            bad = cmd.items if rc is None else cmd.check(rc, out.getvalue())
        except (ValueError, KeyError, TypeError, OSError):
            bad = cmd.items  # malformed or missing output
        failed += bad
    return walls, failed


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    k = max(1, -(-len(sorted_values) * q // 100))
    k = int(min(k, len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """Measure one workload; returns the result record (see module doc)."""
    _import_nclp()
    cli = importlib.import_module("nclp.cli")
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl = workloads.make(workload, seed, workdir, tiny=tiny)
        commands = wl.commands()
        probes = [host_probe() for _ in range(3)]
        setup_reps = 1 if tiny else SETUP_REPS
        setups = []
        run_pass(cli, wl.warmup())

        min_samples = 0 if tiny or trace else MIN_SAMPLES
        items_per_pass = sum(c.items for c in commands)
        attempted = failed = 0
        passes, traced_passes = [], []
        tracer = tracing.Tracer() if trace else None
        t_start = time.perf_counter()
        while True:
            t_iter = time.perf_counter()
            # Set-up runs are spread evenly over the run, like the passes,
            # so that both see the same phases of a host whose speed drifts.
            if (len(setups) < setup_reps and
                    t_iter - t_start >= len(setups) * seconds / setup_reps):
                setups.append(time_setup(wl.setup_argv()))
            walls, bad = run_pass(cli, commands)
            passes.append(walls)
            attempted += items_per_pass
            failed += bad
            if tracer is not None:
                tracer.install()
                try:
                    walls, bad = run_pass(cli, commands, tracer)
                finally:
                    tracer.uninstall()
                traced_passes.append(walls)
                attempted += items_per_pass
                failed += bad
            # Stop before an iteration that would end past --seconds, so
            # that a run takes about --seconds whatever a pass costs.
            now = time.perf_counter()
            if now - t_start >= MAX_LOOP_S or (
                    2 * now - t_iter - t_start > seconds
                    and len(passes) * items_per_pass >= min_samples):
                break
        while len(setups) < setup_reps:
            setups.append(time_setup(wl.setup_argv()))
        setup_s = statistics.median(setups)
        probes += [host_probe() for _ in range(3)]

        record = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "tiny": tiny,
            "environment": environment(),
            "passes": len(passes), "commands_per_pass": len(commands),
            "items_per_pass": items_per_pass,
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "host.probe_s": statistics.median(probes),
            "setup_runs_s": setups,
            "pass_s": [sum(w) for w in passes],
            "command_median_s": {
                f"{i:02d}.{c.label}": statistics.median(w[i] for w in passes)
                for i, c in enumerate(commands)},
        }
        if trace:
            record.update(_layer_metrics(tracer, wl, commands, passes,
                                         traced_passes, record))
        else:
            record.update(_end_to_end(commands, passes, setup_s))
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def latency_ms(commands, walls) -> list[float]:
    """One sample per work item: its group's wall over the group's items.

    A file call is its own group of one item.  On the suites a group is all
    ten suites at one seed: one sample per trial of a single suite would put
    the median in whichever suite's cluster of trial costs it falls, and it
    would jump between clusters from run to run.
    """
    groups: dict[int, list] = {}
    for c, w in zip(commands, walls):
        total = groups.setdefault(c.group, [0.0, 0])
        total[0] += w
        total[1] += c.items
    return [1000.0 * wall / items for wall, items in groups.values()
            for _ in range(items)]


def _end_to_end(commands, passes, setup_s) -> dict:
    samples = sorted(x for walls in passes
                     for x in latency_ms(commands, walls))
    p99, beyond = percentile(samples, 99)
    # Rates are totals over the whole run: on a host whose speed switches
    # between phases, a median over passes jumps between the phases, while
    # the total moves smoothly with the share of time spent in each.
    wall = sum(sum(walls) for walls in passes)
    metrics = {
        "trials_per_s": (len(samples) / wall, "trials/s"),
        "calls_per_s": (len(passes) * len(commands) / wall, "calls/s"),
        "call_ms_p50": (statistics.median(samples), "ms"),
        "call_ms_p99": (p99, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return {"metrics": metrics, "latency_samples": len(samples),
            "samples_beyond_p99": beyond}


def _layer_metrics(tracer, wl, commands, passes, traced_passes,
                   record) -> dict:
    tracer.finish()
    arr = tracer.arrays()
    totals = tracer.totals(arr)
    traced_wall = sum(sum(w) for w in traced_passes)
    problems = tracing.check_spans(arr, traced_wall)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{record['workload']}-spans.npz", arr)
    n = len(traced_passes)

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / n

    def self_s(name):
        return totals.get(name, (0, 0.0))[1] / n

    def ratio(name):
        c = totals.get(name, (0, 0.0))[0]
        return tracer.distinct[name] / c if c else 0.0

    m = {}
    for span in ("lapack.eigh", "lapack.svd", "algebra.element_new",
                 "config.eps_resolve", "functionals.positive_functional_new",
                 "tensor.kron_element", "divergence.q_tilde_alpha",
                 "divergence.q_tilde_alpha_z", "io.loads_matrix"):
        m[f"{span}.calls"] = (calls(span), "count")
    for span in ("lapack.eigh", "lapack.svd", "algebra.element_new",
                 "algebra.hermitian_eig", "algebra.spectrum_apply",
                 "algebra.polar_decompose", "config.eps_resolve",
                 "functionals.positive_functional_new",
                 "tensor.kron_element", "lp.kosaki_membership", "lp.lp_norm",
                 "divergence.q_tilde_alpha", "divergence.q_tilde_alpha_z",
                 "divergence.additivity_check", "io.dumps_report",
                 "io.build_run_report", "io.loads_matrix",
                 "io.save_matrix_file", "cli.parser"):
        m[f"{span}.self_s"] = (self_s(span), "s")
    for span in ("lapack.eigh", "functionals.power", "functionals.support"):
        m[f"{span}.distinct_ratio"] = (ratio(span), "ratio")
    for layer in tracing.LAYERS:
        own = [v for k, v in totals.items() if k.split(".")[0] == layer]
        m[f"{layer}.calls"] = (sum(c for c, _ in own) / n, "count")
        m[f"{layer}.self_s"] = (sum(s for _, s in own) / n, "s")
    # Per-suite wall time comes from the untraced passes, so that tracing
    # overhead does not hide which suite slowed down.
    for name in workloads.SMALL_SUITES:
        walls = [w[i] for w in passes for i, c in enumerate(commands)
                 if c.label == name]
        m[f"suites.{name}.wall_s"] = (statistics.median(walls) if walls
                                      else 0.0, "s")
    m["suites.worst_margin"] = (wl.worst_margin, "ratio")
    untraced_wall = sum(sum(w) for w in passes[:n])
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    m["host.probe_s"] = (record["host.probe_s"], "s")
    return {"metrics": m, "trace_problems": problems,
            "traced_passes": n, "traced_wall_s": traced_wall,
            "spans": len(arr["start"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(emit(record, out))
    return 0


def emit(record: dict, out_path=None) -> str:
    """The lines a run prints; the last one is the result object."""
    metrics = record["metrics"]
    detail = {k: v for k, v in record.items()
              if k not in ("metrics", "environment")}
    detail["results_file"] = str(out_path) if out_path else None
    correct = record["failed"] == 0 and not record.get("trace_problems")
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return "\n".join([
        "environment " + json.dumps(record["environment"], default=str),
        "detail " + json.dumps(detail, default=str),
        json.dumps(result),
    ])


if __name__ == "__main__":
    sys.exit(main())
