"""irzone benchmark: one workload, one process, every metric by name and unit.

    python3 perfbench/run.py --workload e2e_default --seed 42 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing is installed. With ``--trace 0`` the measured
calls run untraced and the end-to-end metrics of BENCHMARK.json are printed;
with ``--trace 1`` every pipeline call is wrapped in a span and the per-layer
metrics are printed instead. Either way the outputs are checked. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
IMPORT_SAMPLES = 3
# the modules `irzone.cli` loads, plus the evaluation module its commands import
IMPORT_CODE = ("import time; t = time.perf_counter(); import irzone.cli, irzone.evaluation; "
               "d = time.perf_counter() - t; print(irzone.__file__); print(d)")


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def measure_import_s() -> float:
    """Median import time of the CLI's modules in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"cannot import irzone from {SRC}:\n{proc.stderr}")
        where, seconds = proc.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise BenchError(f"irzone imported from {where}, not from {SRC}")
        samples.append(float(seconds))
    return median(samples)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "loadavg_start": load_at_start,
        "platform": platform.platform(),
    }


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_workloads():
    sys.path.insert(0, str(SRC))
    import irzone
    import workloads

    if not Path(irzone.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"irzone imported from {irzone.__file__}, not from {SRC}")
    return workloads


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    import_s = measure_import_s()
    workloads = import_workloads()
    print("env " + json.dumps(environment(load_at_start), sort_keys=True), flush=True)

    wl = workloads.make(args.workload)
    backends = workloads.BACKENDS
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tracer = spans.Tracer() if args.trace else None
    outputs, walls, rep_traces = [], [], []
    problems = []
    attempted = failed = 0
    try:
        if tracer:
            tracer.install()
        t = perf_counter()
        wl.setup(args.seed, work)
        setup_s = import_s + perf_counter() - t
        setup_trace = tracer.take() if tracer else None

        t_start = perf_counter()
        while not outputs or perf_counter() - t_start < args.seconds:
            workloads.clear_feature_cache()
            out_dir = work / f"rep{len(outputs)}"
            out_dir.mkdir()
            t = perf_counter()
            outputs.append(wl.rep(out_dir))
            walls.append(perf_counter() - t)
            if tracer:
                rep_traces.append(tracer.take())
            print(f"rep {len(outputs) - 1} wall {walls[-1]:.3f} s", flush=True)
        if tracer:
            tracer.check_reached(wl.unused)

        store = checks.DigestStore(WORK / "digests.json")
        sources = checks.source_digest(SRC, Path(__file__).resolve().parent)
        store_key = f"{args.workload} seed={args.seed} src={sources}"
        first = None
        for out in outputs:
            digest = checks.digests(out.out_dir, wl.setup_artifacts)
            first = first or digest
            stored = store.check_and_record(store_key, digest)
            attempted += wl.n_mapped * len(backends)
            failed += checks.check_repetition(out, digest, wl.n_mapped, backends,
                                              wl.golden.get(args.seed), first, stored,
                                              problems)
        for name, sha in sorted(first.items()):
            print(f"digest {name} {sha}")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work)

    if tracer:
        calls = [r.get("pipeline.preprocess_sequence.calls", 0) for r in rep_traces]
        print(f"pipeline.preprocess_sequence.calls per repetition: {calls}")
        if len(set(calls)) > 1:
            problems.append(f"preprocess_sequence calls differ across repetitions: {calls}")
            failed = attempted
        for r, (wall, rt) in enumerate(zip(walls, rep_traces)):
            print(f"rep {r} traced wall {wall:.4f} s, top-level spans {rt['trace.top_s']:.4f} s, "
                  f"overhead {rt['trace.overhead_s']:.4f} s, {rt['trace.spans']} spans")
        values = {**spans.combine(setup_trace, rep_traces), "import_s": import_s}
        wanted = spec["per_layer"]
    else:
        latencies = [x for o in outputs for x in o.seq_latencies] or [w / wl.n_seqs for w in walls]
        print(f"seq_s_p50 samples: {len(latencies)}; repetitions: {len(walls)}")
        values = {
            "wall_s": median(walls),
            "seq_s_p50": median(latencies),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - failed / attempted,
        }
        for b in backends:
            for g, sn in checks.pooled_sn(outputs[0].masks.get(b, [])).items():
                values[f"sn_{g}.{b}"] = 0.0 if sn is None else sn  # absent: a failed check
        wanted = spec["end_to_end"]
    for p in problems:
        print(f"CHECK FAILED: {p}")

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<44} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
