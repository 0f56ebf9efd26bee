"""acbott benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout; acbott is imported from ``src/`` of that
checkout.  One process is one workload in a fresh interpreter; ``all`` runs
each workload in its own child interpreter, one after another.

Phases of a run (all in one thread, BLAS included):

1. Set-up: import acbott, generate the inputs from the seed SETUP_REPEATS
   times, then make one warm-up call (the first BLAS call of a process is
   slow, and it must not land in the timed phase).  ``setup_s`` is the
   import time plus the median input generation plus the warm-up call.
2. Timed phase: whole rounds (every unit once, in order) until
   ``--seconds`` have passed and at least MIN_ROUNDS rounds ran.
   Each call is timed on its own and its output is checked outside that
   span.  A call that raises, returns a wrong value or misses a gate is a
   failed call; it is counted and the run goes on.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer ones: whole rounds run untraced for half of
``--seconds`` (at least one), then the same number of rounds runs with the
tracer installed, which gives ``trace.overhead_ratio``; the spans are
written to ``.perfbench_out/``.
Earlier lines carry the environment stamp and a readable summary.

Every time reported is calibrated CPU seconds.  The process runs one
thread, so its CPU seconds (``time.process_time``) are its wall time less
the time the host took the vCPU away; on a shared host that share moved
wall times by up to a factor of two between runs minutes apart.  CPU
seconds still swing by up to half with the host's load, in spells of ten
seconds to minutes, so a fixed reference computation (``Reference``) is
timed before and after every call, and the call's CPU seconds are scaled
by ``REFERENCE_S`` over the mean of those two.  Set-up is scaled the same
way by the median of three reference timings taken after it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

# One BLAS thread, set before numpy loads.  On a machine of a few vCPUs
# whose host steals time, every threaded factorization waits at its barrier
# for the slowest vCPU, and that measures the host rather than acbott.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# the keys of workloads.WORKLOADS, repeated so that parsing arguments needs no numpy
WORKLOAD_NAMES = ("harper-selfdual", "cli-harper", "extraction")
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # every unit is timed at least twice, even when a round outlasts --seconds
TMP_PREFIX = ".perfbench_tmp-"  # temporary directory for the CLI round trips
OUT_DIR = ".perfbench_out"
# The reference's CPU seconds on an unloaded 2-vCPU Skylake-X guest; a
# fixed constant, so calibrated seconds read as seconds of that machine.
REFERENCE_S = 0.125

END_TO_END = {  # name -> unit
    "call_cal_p50_s": "s",
    "calls_per_cal_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics, all per unit of timed work unless named setup.*
PER_LAYER = (
    "wannier.projection_isometry.s",
    "wannier.projection_isometry.incl_s",
    "matkernel.herm_eig.s",
    "matkernel.operator_norm.s",
    "matkernel.operator_norm.calls",
    "matkernel.polar.s",
    "matkernel.pfaffian_real_skew.s",
    "invariants.compressed_index.s",
    "invariants.torus_to_sphere.s",
    "invariants.pf_bott_unitaries.s",
    "invariants.pf_bott_unitaries.incl_s",
    "relations.torus4_residual.s",
    "relations.torus2_residual.s",
    "relations.sphere_residual.s",
    "symmetry.phi_conjugate.s",
    "symmetry.tau_residual.s",
    "symmetry.symmetrize.s",
    "symmetry.time_reversal.s",
    "symmetry.time_reversal.calls",
    "canonical.commuting_pair_from_sphere.s",
    "canonical.commuting_pair_from_sphere.incl_s",
    "canonical.k2_twisted_witness.s",
    "canonical.k2_real_witness.s",
    "canonical.k2_quaternion_witness.s",
    "canonical.diag_anti_selfdual.s",
    "matio.read_matrix.s",
    "matio.write_matrix.s",
    "matio.bytes_read",
    "matio.bytes_written",
    "models.harper_projection.s",
    "models.gap_levels.s",
    "cli.main.s",
    "models.s",
    "matio.s",
    "cli.s",
    "wannier.s",
    "invariants.s",
    "relations.s",
    "symmetry.s",
    "matkernel.s",
    "canonical.s",
    "linalg.factorizations",
    "linalg.n3_e9",
    "linalg.s",
    "setup.models.s",
    "trace.spans",
    "trace.overhead_ratio",
)
TRACE_NOTE = (
    "per-layer .s is self CPU seconds per unit (span minus child spans); linalg "
    "calls are counters whose time also stays in the caller's self time; "
    "matrix products (@) cannot be wrapped from outside and count as self "
    "time of the calling function"
)


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith(".incl_s"):
        return "s"
    if name.startswith("matio.bytes"):
        return "bytes"
    if name == "linalg.n3_e9":
        return "n3/1e9"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


class Tally:
    """Runs units, times each call, checks outputs, counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, unit) -> tuple[float, bool]:
        self.attempted += 1
        t0 = process_time()
        try:
            result = unit.call()
        except Exception:  # a raising call is a failed call; keep running
            seconds = process_time() - t0
            self.failed += 1
            print(f"FAILED {unit.label}: raised", file=sys.stderr)
            traceback.print_exc()
            return seconds, False
        seconds = process_time() - t0
        reason = unit.check(result)
        if reason is not None:
            self.failed += 1
            print(f"FAILED {unit.label}: {reason}", file=sys.stderr)
            return seconds, False
        return seconds, True


class Reference:
    """A fixed computation that measures how fast the host runs the process
    at the moment: two complex Hermitian ``eigh`` of order 256, four real
    products of order 400 and a JSON round trip of 30 000 floats, the kinds
    of work that dominate the workloads.  Its inputs do not depend on the
    seed, and it calls numpy directly, never acbott."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        A = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.A = A + A.conj().T
        self.B = rng.standard_normal((400, 400))
        self.C = rng.standard_normal((100, 300)).tolist()
        self.eigh = np.linalg.eigh

    def seconds(self) -> float:
        t0 = process_time()
        for _ in range(2):
            self.eigh(self.A)
        for _ in range(4):
            self.B @ self.B
        json.loads(json.dumps(self.C))
        return process_time() - t0


def run_rounds(units, tally, seconds: float, min_rounds: int, reference=None):
    """Whole rounds until ``seconds`` have passed and at least ``min_rounds``
    ran.  Returns (CPU seconds of each call, reference timings, correct
    calls, wall seconds, rounds).  With a ``reference`` it is timed once
    before the first call and once after every call, so call k lies between
    reference timings k and k + 1."""
    times, refs, ok, done = [], [], 0, 0
    start = perf_counter()
    if reference:
        refs.append(reference.seconds())
    while done < min_rounds or perf_counter() - start < seconds:
        for unit in units:
            dt, good = tally.run(unit)
            if reference:
                refs.append(reference.seconds())
            times.append(dt)
            ok += good
        done += 1
    return times, refs, ok, perf_counter() - start, done


def calibrate(times: list[float], refs: list[float]) -> list[float]:
    """Each call's CPU seconds times REFERENCE_S over the mean of the
    reference timings on either side of it."""
    return [t * REFERENCE_S / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]


def call_p50(times: list[float], n_units: int) -> float:
    """Each unit's median call time over the rounds, averaged over the units.

    The units of a workload differ in size, so one median over all calls
    would sit in the gap between two of them and jump with every small
    shift; the median per unit drops a call slowed by the host instead.
    """
    return statistics.fmean(
        statistics.median(times[k::n_units]) for k in range(n_units)
    )


def _openblas_runtime() -> dict:
    """Thread count in effect and build string of the OpenBLAS that numpy
    and scipy each load, asked of the library itself."""
    import ctypes

    out = {}
    for pkg in ("numpy", "scipy"):
        libdir = Path(importlib.import_module(pkg).__file__).resolve().parent.parent
        for lib in sorted((libdir / f"{pkg}.libs").glob("lib*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                    config = getattr(handle, f"{prefix}get_config{suffix}", None)
                    if threads is not None and config is not None:
                        config.restype = ctypes.c_char_p
                        out[pkg] = {"threads": threads(), "config": config().decode()}
    return out


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": _openblas_runtime(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    t0 = process_time()
    src = ROOT / "src"
    if not (src / "acbott" / "__init__.py").is_file():
        print(f"no acbott sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    acbott = importlib.import_module("acbott")
    import_s = process_time() - t0

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    make_units = WORKLOADS[name]
    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=TMP_PREFIX, dir=ROOT))
    try:
        if trace:
            metrics = _traced(acbott, make_units, name, seed, seconds, workdir, tally)
        else:
            metrics = _untraced(acbott, make_units, seed, seconds, workdir, tally, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"env": environment(seed)}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _untraced(acbott, make_units, seed, seconds, workdir, tally, import_s) -> dict:
    generation = []
    for _ in range(SETUP_REPEATS):
        units = None  # let the previous inputs go before generating new ones
        t0 = process_time()
        units = make_units(acbott, seed, workdir)
        generation.append(process_time() - t0)
    t0 = process_time()
    tally.run(units[0])
    warmup_s = process_time() - t0
    reference = Reference()
    setup_reference = statistics.median(reference.seconds() for _ in range(3))
    setup_cpu_s = import_s + statistics.median(generation) + warmup_s
    cpu, refs, ok, wall, rounds = run_rounds(units, tally, seconds, MIN_ROUNDS, reference)
    times = calibrate(cpu, refs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"set-up CPU s: import {import_s:.3f}, input generation "
          f"{[round(g, 3) for g in generation]}, warm-up {warmup_s:.3f}, "
          f"reference {setup_reference:.4f}; timed: {rounds} rounds, {len(cpu)} calls "
          f"in {wall:.3f} s wall; CPU s {[round(t, 3) for t in cpu]}; "
          f"reference s {[round(r, 4) for r in refs]}")
    values = {
        "call_cal_p50_s": call_p50(times, len(units)),
        "calls_per_cal_s": ok / sum(times),
        "setup_s": setup_cpu_s * REFERENCE_S / setup_reference,
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _traced(acbott, make_units, name, seed, seconds, workdir, tally) -> dict:
    from tracer import Tracer

    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        units = make_units(acbott, seed, workdir)
    finally:
        setup_tracer.uninstall()
    tally.run(units[0])
    plain, _, _, _, rounds = run_rounds(units, tally, seconds / 2, 1)

    tracer = Tracer()
    tracer.install()
    try:
        times, _, _, _, _ = run_rounds(units, tally, 0.0, rounds)
    finally:
        tracer.uninstall()

    per_unit = {k: v / len(times) for k, v in tracer.summary().items()}
    per_unit["setup.models.s"] = setup_tracer.summary().get("models.s", 0.0)
    per_unit["trace.overhead_ratio"] = sum(times) / sum(plain)
    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    spans_path = ROOT / OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    setup_tracer.dump(spans_path, "setup")
    tracer.dump(spans_path, "timed")
    print(f"traced {rounds} rounds ({len(times)} units): untraced {sum(plain):.3f} s CPU, "
          f"traced {sum(times):.3f} s CPU; spans in {spans_path.relative_to(ROOT)}")
    print(f"note: {TRACE_NOTE}")
    return {
        k: {"value": per_unit.get(k, 0.0), "unit": layer_unit(k)} for k in PER_LAYER
    }


def run_child(name: str, seed: int, seconds: float, trace: bool):
    """One workload in a fresh interpreter, returning its CompletedProcess.
    If this process is stopped, the child gets SIGTERM and is waited for,
    so that it too removes its temporary directory."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh child interpreter; prints a table and one
    combined result line keyed <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = run_child(name, seed, seconds, trace)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            code = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"== {name}: attempted {result['attempted']} failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:48s} {entry['value']:.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return code


class Terminated(BaseException):
    """SIGTERM as an exception that no unit's error handling catches, so a
    terminated run still removes its temporary directory and ends its
    children on the way out."""


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Terminated:
        return 128 + signal.SIGTERM


if __name__ == "__main__":
    sys.exit(main())
