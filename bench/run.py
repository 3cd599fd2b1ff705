"""Benchmark of the unrectify package: one workload per run, in this process.

    python3 bench/run.py --workload lenet --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --selfcheck

A run imports the package from ``src/`` next to this directory, prints a
header of ``#`` lines (machine, versions, thread settings, ``src/`` line
count), makes its inputs from ``--seed``, and runs one untimed warm-up
pass.  It then repeats whole passes (``workloads.run_pass``) until
``--seconds`` have gone, three at least, checks every pass's outputs, and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics: medians over passes of
``setup_s`` and ``analysis_s``, the process's ``peak_rss_mb``, and the
50th and 90th percentiles of single-input query latency.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus ``trace.overhead_s``; its spans go to
``bench/work/spans-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads  # bench/ is on the path: it holds this script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "work"
MIN_PASSES = 3
SETUP_MIN_S = 0.2


def import_package():
    """The package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "unrectify" / "__init__.py").is_file():
        sys.exit(f"error: no unrectify package under {src}")
    sys.path.insert(0, str(src))
    import unrectify

    if Path(unrectify.__file__).resolve().parent != (src / "unrectify").resolve():
        sys.exit(f"error: imported unrectify from {unrectify.__file__}, not {src}")
    return unrectify


def blas_info() -> tuple[str, str]:
    """(BLAS version string, its thread count), read from the loaded library."""
    import ctypes

    import numpy as np

    version = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return version, "unknown"
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return version, str(getter())
    return version, "unknown"


def header(ur, workload: str, seed: int) -> list[str]:
    import numpy as np

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    blas, blas_threads = blas_info()
    return [
        f"# workload {workload} seed {seed}",
        f"# nproc {os.cpu_count()}  python {platform.python_version()}  numpy {np.__version__}  blas {blas}",
        f"# threads: UNRECTIFY_THREADS={os.environ.get('UNRECTIFY_THREADS', '(unset)')} -> "
        f"{ur.parallel.worker_count()} workers; BLAS threads {blas_threads} "
        f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')})",
        f"# src/ lines {src_lines}",
    ]


def measure(wl, tally, seconds: float, tracer=None) -> tuple[list[dict], list[dict]]:
    """Warm-up, then whole passes until the time is up.

    With a tracer, passes alternate untraced and traced; returns the
    untraced passes and the traced passes' layer metrics.
    """
    run_pass = workloads.run_pass
    run_pass(wl, tally, setup_min_s=SETUP_MIN_S)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        done = time.perf_counter() - start >= seconds
        if tracer is None:
            if done and len(plain) >= MIN_PASSES:
                break
            plain.append(run_pass(wl, tally, setup_min_s=SETUP_MIN_S))
            continue
        if done and len(plain) >= 2 and len(traced) >= 2:
            break
        if len(traced) < len(plain):
            tracer.begin_pass()
            p = run_pass(wl, tally, tracer)
            p["layers"] = tracer.end_pass(len(traced))
            traced.append(p)
        else:
            plain.append(run_pass(wl, tally, setup_min_s=SETUP_MIN_S))
    return plain, traced


def end_to_end(passes: list[dict]) -> dict:
    latencies = [v for p in passes for v in p["latencies"]]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    beyond = sum(v > p90 for v in latencies)
    if beyond < 10:
        raise SystemExit(f"error: only {beyond} query samples beyond p90; run longer")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(t for p in passes for t in p["setups"]), "s"),
        "analysis_s": (statistics.median(p["analysis_s"] for p in passes), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "query_p50_ms": (statistics.median(latencies), "ms"),
        "query_p90_ms": (p90, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("lenet", "fusion", "plane", "certify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="small sizes, all workloads, then corrupted-result checks")
    args = parser.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    ur = import_package()
    workloads.bind_package(ur)
    if args.selfcheck:
        import selfcheck

        return selfcheck.main(WORKDIR)

    for line in header(ur, args.workload, args.seed):
        print(line, flush=True)
    wl = workloads.make(args.workload, args.seed, small=False, workdir=WORKDIR)
    tally = workloads.Tally()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(ur)
        tracer.install()
    plain, traced = measure(wl, tally, args.seconds, tracer)
    print(f"# passes {len(plain)} untraced, {len(traced)} traced, after one warm-up", flush=True)
    for p in plain + traced:
        print(
            f"# pass setup_s {statistics.median(p['setups']):.6f} analysis_s {p['analysis_s']:.4f} "
            f"query_p50_ms {statistics.median(p['latencies']):.4f} traced {int('layers' in p)}"
        )

    if tracer is None:
        metrics = end_to_end(plain)
    else:
        tracer.uninstall()
        layers = tracing.median_metrics([p["layers"] for p in traced])
        layers["trace.overhead_s"] = statistics.median(p["analysis_s"] for p in traced) - statistics.median(
            p["analysis_s"] for p in plain
        )
        tracer.write(WORKDIR / f"spans-{args.workload}-{args.seed}.json")
        metrics = {name: (value, tracing.METRICS[name]) for name, value in layers.items()}
    for problem in tally.problems[:20]:
        print(f"# check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not tally.problems,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
