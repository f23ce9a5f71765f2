"""Run one recomb benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: deg7-lattice, deg7-modules, deg9-rank, deg9-closure (see
BENCHMARK.json for why each exists).  The run starts the workload in fresh
interpreters (`workload.py`): two that only set up, then one that sets up
and measures.  `setup_s` is the median time from starting an interpreter to
its inputs being ready; the measuring child's answers give `wall_s` and
`cpu_s` (medians over answers) and `peak_rss_mb` (its own `ru_maxrss`).
Every answer is checked against `recomb/data`.

`setup_s`, `wall_s` and `cpu_s` are speed-normalised seconds: each set-up's
and each answer's time is divided by the speed factor that the probe in
`speed.py` measured over the same interval, so that runs made while the
machine ran slow or fast can be compared.  `wall_s` first drops the time the
answering thread sat runnable waiting for a CPU that another process held
(its `run_delay` in /proc/thread-self/schedstat); time spent blocked or
waiting on its own helpers stays in.  The measured seconds are printed beside
them and kept in the record.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` the measuring child records spans around every call into recomb
and the line carries the per-layer metrics instead.  The full record of the
run -- machine facts, raw samples, checks and spans -- is written to
`benchmarks/out/<workload>-seed<N>-trace<T>.json`.  Exit code 0 means the run
completed (a failed check is reported in the result, not by the exit code);
2 means no result could be produced.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Probe, ProbeError, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("deg7-lattice", "deg7-modules", "deg9-rank", "deg9-closure")
SETUP_REPEATS = 3          # interpreters started per run; the last measures
TIME_LIMIT_S = 175.0       # the whole run, all children included

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def start_child(args, setup_only: bool, deadline: float):
    """Start workload.py; returns (start, ready, its output).

    `start` and `ready` are monotonic times: before the interpreter was
    started, and when it printed that its inputs are ready.
    """
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        try:
            first = proc.stdout.readline()
            ready = time.monotonic()
            rest, _ = proc.communicate(timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("workload child ran past the time limit")
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"workload child failed (exit {proc.returncode})")
    return start, ready, rest


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy  # noqa: F401  (loads the library)
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """Commit of the checkout, read from .git without running git."""
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


def machine_facts() -> dict:
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE")
                        * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "RECOMB_THREADS") if k in os.environ},
        "commit": git_commit(),
    }


def run(args) -> dict:
    if not (ROOT / "src" / "recomb" / "__init__.py").is_file():
        raise BenchError(f"no recomb sources under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    with Probe() as probe:
        setups = [start_child(args, True, deadline)
                  for _ in range(SETUP_REPEATS - 1)]
        *window, out = start_child(args, False, deadline)
        setups.append(window)
    try:
        child = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("workload child printed no result")
    samples = child["samples"]
    for s in samples:
        s["speed_factor"] = speed_factor(probe.samples, s["t0"], s["t1"])
    setup_samples = [{"seconds": b - a,
                      "speed_factor": speed_factor(probe.samples, a, b)}
                     for a, b, *_ in setups]
    raw = {
        "setup_s": statistics.median(s["seconds"] for s in setup_samples),
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
    }
    e2e = {
        "setup_s": statistics.median(s["seconds"] / s["speed_factor"]
                                     for s in setup_samples),
        "wall_s": statistics.median((s["wall_s"] - s["run_delay_s"])
                                    / s["speed_factor"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] / s["speed_factor"]
                                   for s in samples),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    if args.trace:
        child["layer"]["trace.speed_factor"] = {
            "value": statistics.median(s["speed_factor"] for s in samples),
            "unit": "ratio"}
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "facts": machine_facts(), "setup_samples": setup_samples,
            "raw_seconds": raw, "end_to_end": e2e,
            "probe_samples": probe.samples, **child}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        rec = run(args)
    except (BenchError, ProbeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    samples = rec["samples"]
    attempted = len(samples)
    failed = sum(1 for s in samples if s["checks_failed"])
    checks_run = sum(s["checks_run"] for s in samples)
    checks_failed = sum(s["checks_failed"] for s in samples)
    missed = sum(s["stretch_missed"] for s in samples)
    e2e = rec["end_to_end"]
    for line in rec["check_lines"]:
        print(line)
    print(f"{rec['workload']} seed {rec['seed']}: {attempted} answers in the "
          f"timed section, {SETUP_REPEATS} set-ups")
    raw = rec["raw_seconds"]
    for name, unit in END_TO_END.items():
        note = f"  (measured {raw[name]:.4f} s)" if name in raw else ""
        print(f"  {name:<14}{e2e[name]:12.4f} {unit}{note}")
    print(f"  {'checks_failed':<14}{checks_failed:12d} count "
          f"(of {checks_run} run; {missed} stretch checks missed)")

    if args.trace:
        metrics = rec["layer"]
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1))
    print(json.dumps({"correct": checks_failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
