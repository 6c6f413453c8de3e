"""Time-to-verified-drive benchmark for floqueng.

Run from the repository root, for example:

    python3 perfbench/run.py --workload verify2_closed --seed 0 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full run record (machine, every metric with median, quartiles and sample
count, per-op details and, when traced, every span) is written to
``perfbench/out/``.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import os

#: Single-threaded runs; set before anything imports numpy.
THREAD_ENV = {"FLOQUET_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh processes timed for ``setup_s`` before the first pass and after
#: each pass; the metric is their median.  Spreading them over the run keeps
#: a slow spell of the machine, which lasts seconds, from setting the median.
SETUP_PROBES = 3

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_frac", "ratio"),
)


def import_floqueng():
    """Import floqueng from this checkout's ``src/`` and nowhere else."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import floqueng
    import floqueng.cli  # noqa: F401  (not imported by the package itself)

    if Path(floqueng.__file__).resolve().parent.parent != src:
        raise ImportError(f"floqueng resolved to {floqueng.__file__}, outside {src}")
    return floqueng


def setup_probe(workload: str) -> float:
    """Seconds to import floqueng, parse and validate every config of the
    workload and build every protocol, in this (fresh) process."""
    t0 = time.perf_counter()
    fq = import_floqueng()
    workloads.setup(fq, workload, ROOT)
    return time.perf_counter() - t0


def measure_setup(workload: str, probes: int) -> list[float]:
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_pass(ops, index: int, tracer=None) -> dict:
    """Run every op once.  Only ``op.run`` is timed; checks run after it."""
    records = []
    for i, op in enumerate(ops):
        op_id = index * len(ops) + i
        result, error = None, None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.op(op.name, op_id):
                    result = op.run()
        except Exception:  # a failing op is counted; the run goes on
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        passed, detail = False, {"error": error}
        if error is None:
            try:
                passed, detail = op.check(result)
            except Exception:  # unreadable output fails the op
                detail = {"error": traceback.format_exc()}
        records.append({"op": op.name, "id": op_id, "passed": passed,
                        "wall_s": wall, "cpu_s": cpu, **detail})
    return {"traced": tracer is not None,
            "wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "ops": records}


def summary(values, unit: str) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(values)}


def run(workload: str, seed: int, seconds: float, trace: bool,
        overrides=None, setup_probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the run record (its ``result`` is the
    object printed as the last line)."""
    fq = import_floqueng()
    setup_s = measure_setup(workload, setup_probes)
    tracer = None
    if trace:
        tracer = Tracer()
        layers.register(tracer, fq)
    OUT.mkdir(exist_ok=True)
    passes = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ops = workloads.build(fq, workload, seed, ROOT, Path(tmp), overrides)
        start = time.perf_counter()
        # Passes alternate untraced/traced when tracing; stop once another
        # pass would overrun the budget.
        while True:
            t = time.perf_counter()
            if trace and len(passes) % 2:
                with tracer.installed():
                    record = run_pass(ops, len(passes), tracer)
                spans = tracer.take()
                record["self_sum_s"] = sum(self_times(spans)) * 1e-9
                record["layers"] = layers.per_layer(spans)
                record["spans"] = [s.as_list() for s in spans]
            else:
                record = run_pass(ops, len(passes))
            passes.append(record)
            setup_s += measure_setup(workload, setup_probes)
            last = time.perf_counter() - t
            if (len(passes) >= (2 if trace else 1)
                    and time.perf_counter() - start + last > seconds):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops_run = [r for p in passes for r in p["ops"]]
    attempted = len(ops_run)
    failed = sum(not r["passed"] for r in ops_run)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    stats = {
        "wall_s": summary([p["wall_s"] for p in plain], "s"),
        "cpu_s": summary([p["cpu_s"] for p in plain], "s"),
        "setup_s": summary(setup_s, "s"),
        "peak_rss_mb": summary([peak_rss_mb], "MiB"),
        "pass_frac": summary([(attempted - failed) / attempted], "ratio"),
        "fail_frac": summary([failed / attempted], "ratio"),
    }
    names = END_TO_END
    if trace:
        names = layers.PER_LAYER
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in plain) - 1)
        for name, unit in names:
            values = ([overhead] if name == "trace_overhead_frac"
                      else [p["layers"][name] for p in traced])
            stats[name] = summary(values, unit)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in names},
    }
    if tracer is not None and tracer.missing:
        print(f"perfbench: untraced, not found: {tracer.missing}", file=sys.stderr)
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "overrides": overrides,
            "missing_sites": tracer.missing if tracer is not None else [],
            "machine": machine_info(), "metrics": stats, "passes": passes,
            "result": result}


def machine_info() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "git_commit": _git_commit(),
    }


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return out


def _git_commit():
    # The checkout may not be a repository: never search above it.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload)))
            return 0
        import_floqueng()
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: cannot run from {ROOT}: {exc}", file=sys.stderr)
        return 2
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"perfbench: run record in {path}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
