"""urlab benchmark: end-to-end metrics per workload, or a layer trace.

    python3 bench/run.py --workload ape_grid --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program under test is ``src/urlab``
of the same checkout.  Each run measures set-up in fresh interpreters,
then repeats one unit of the workload's work for ``--seconds`` seconds,
checks every unit's output, and prints a human-readable report followed
by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 1`` the metrics are the per-layer ones from bench/layertrace.py.
``--workload all`` runs each workload in its own child process, so each
gets its own peak-RSS accounting, and prints a table.

A unit is one operation: it fails when it raises or a check on its output
fails.  Units 0 and 1 use the same inputs and must agree bit for bit; in
in-process workloads unit 0 is the warm-up and is not timed.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, and inherited by every child process.
THREAD_VARS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SETUP_PROBES = 3
MIB = float(1 << 20)


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _read(path, default=None):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return default


def machine_info() -> dict:
    import numpy
    import scipy
    import urlab

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "urlab": urlab.__version__,
        "git_commit": commit,
        "threads": THREAD_VARS,
        "note": "ru_maxrss of children is the largest child, not the sum over children",
    }


def measure_setup(count: int) -> tuple[list[float], list[int]]:
    """Set-up seconds and end-of-setup RSS of ``count`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(BENCH_DIR / "configs" / "readme.ini")]
    times, rss = [], []
    for _ in range(count):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"])
        rss.append(probe["rss_bytes"])
    return times, rss


class Ledger:
    """Operations attempted and failed, with the reasons printed as they happen."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def run(self, fn, seed, check_against_reference=False):
        """One checked unit: returns its output, or None when it raised."""
        self.attempted += 1
        try:
            out = fn(seed)
        except Exception:  # a failed operation is counted, the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        problems = self.wl.problems(out)
        digest = self.wl.digest(out)
        if self.reference is None:
            self.reference = digest
        elif check_against_reference and digest != self.reference:
            problems.append("same inputs gave different output bits")
        if problems:
            self.failed += 1
            print(f"# {self.wl.name} seed {seed} FAILED: {'; '.join(problems)}", file=sys.stderr)
        return out


def unit_seed(seed: int, k: int) -> int:
    """Inputs of unit k; units 0 and 1 share them for the determinism check."""
    return (seed % (1 << 32)) * 1000 + max(k - 1, 0)


def timed_units(ledger, fn, seed, seconds, first):
    """Run units from ``first`` until ``seconds`` have passed and unit 1,
    the determinism check, has run."""
    walls, cpus = [], []
    start = time.perf_counter()
    k = first
    while True:
        c0, t0 = _cpu_s(), time.perf_counter()
        ledger.run(fn, unit_seed(seed, k), check_against_reference=k == 1)
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - c0)
        k += 1
        if k >= 2 and time.perf_counter() - start >= seconds:
            return walls, cpus


def tail_percentile(samples):
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    import numpy as np

    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(samples, p))
    return None


def run_benchmark(wl, seed, seconds, setup_probes) -> tuple[dict, Ledger, list[str]]:
    setup_times, setup_rss = measure_setup(setup_probes)
    ledger = Ledger(wl)
    rss_base = _rss_bytes()
    first = 0
    if not wl.fresh_process:  # warm-up: lazy imports and first-touch pages
        ledger.run(wl.run, unit_seed(seed, 0))
        first = 1
    walls, cpus = timed_units(ledger, wl.run, seed, seconds, first)

    self_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - rss_base
    child_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 - statistics.median(setup_rss)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "steps_per_s": wl.steps / wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": max(self_peak, child_peak) / MIB,
        "setup_s": statistics.median(setup_times),
    }
    tail = tail_percentile(walls)
    notes = [
        f"wall_s: median of {len(walls)} units"
        + (f", p{tail[0]:g} = {tail[1]:.6g} s" if tail else ", no percentile has 10 samples beyond it"),
        f"steps_per_s: {wl.steps} steps per unit",
        "cpu_s: user+sys of this process and its children, median per unit",
        f"peak_rss_mib: self {self_peak / MIB:.1f} MiB above its post-setup RSS, "
        f"largest child {child_peak / MIB:.1f} MiB above a fresh set-up's RSS",
        f"setup_s: median of {len(setup_times)} fresh interpreters "
        + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    return metrics, ledger, notes


def run_trace(wl, seed, seconds) -> tuple[dict, Ledger, list[str]]:
    """Untraced and traced units alternate on the same inputs, so a slow
    drift of the machine's speed does not enter the tracing overhead."""
    import layertrace

    ledger = Ledger(wl)
    ledger.run(wl.run_in_process, unit_seed(seed, 0))
    tracer = layertrace.Tracer()
    untraced, per_unit = [], []

    def traced(s):
        tracer.install()
        try:
            out, values = tracer.unit(wl.run_in_process, s)
        finally:
            tracer.uninstall()
        per_unit.append(values)
        return out

    start, k = time.perf_counter(), 1
    while k < 2 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        ledger.run(wl.run_in_process, unit_seed(seed, k), check_against_reference=k == 1)
        untraced.append(time.perf_counter() - t0)
        ledger.run(traced, unit_seed(seed, k), check_against_reference=k == 1)
        k += 1
    timed = len(per_unit)
    tracemalloc.start()
    try:
        ledger.run(traced, unit_seed(seed, 1))
        alloc = dict(tracer.alloc_mib)
    finally:
        tracemalloc.stop()
    del per_unit[timed:]  # the tracemalloc unit is slower; keep only its allocation peaks
    WORK_DIR.mkdir(exist_ok=True)
    tracer.write(WORK_DIR / f"spans-{wl.name}.json")

    metrics = {name: statistics.median(u[name] for u in per_unit) for name in per_unit[0]}
    metrics["monte_carlo.peak_alloc_mib"] = alloc.get("monte_carlo.peak_alloc_mib", 0.0)
    metrics["brownian.peak_alloc_mib"] = alloc.get("brownian.peak_alloc_mib", 0.0)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    notes = [
        f"{len(per_unit)} traced and {len(untraced)} untraced units, alternating, in process at workers 1",
        "rls and errors are on no workload's hot path and get no metrics",
        f"spans written to {WORK_DIR.name}/spans-{wl.name}.json",
    ]
    return metrics, ledger, notes


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_names() -> list[str]:
    return [w["name"] for w in load_spec()["workloads"]]


def run_one(args) -> int:
    import urlab

    if Path(urlab.__file__).resolve().parent != (SRC / "urlab").resolve():
        print(f"urlab imported from {urlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = load_spec()
    wl = workloads.WORKLOADS[args.workload](args.tiny, WORK_DIR)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[wl.name]
    print(f"# machine {json.dumps(machine_info())}")
    print(f"# workload {wl.name}: {why}")
    if args.trace:
        metrics, ledger, notes = run_trace(wl, args.seed, args.seconds)
    else:
        metrics, ledger, notes = run_benchmark(wl, args.seed, args.seconds, 1 if args.tiny else SETUP_PROBES)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name in units:
        print(f"{name:<42} {metrics[name]:>16.6g} {units[name]}")
    print(f"{'failed_share':<42} {ledger.failed / ledger.attempted:>16.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own child process, then one table."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workload_names():
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        rows.append((name, res))
    if not args.trace:
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
        print(f"{'workload':<18}" + "".join(f"{n:>15}" for n in [*units, "failed_share"]))
        for name, res in rows:
            vals = [res["metrics"][n]["value"] for n in units] + [res["failed"] / res["attempted"]]
            print(f"{name:<18}" + "".join(f"{v:>15.6g}" for v in vals))
        print(f"{'unit':<18}" + "".join(f"{u:>15}" for u in [*units.values(), "1"]))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workload_names(), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "urlab" / "__init__.py").is_file():
        print(f"no urlab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
