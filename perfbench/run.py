"""etproc benchmark: one workload per invocation.

    python3 perfbench/run.py --workload tg-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; etproc is imported from its
``src/``. With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0
SETUP_REPS = 3
TAIL_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("tg-sweep", "tg-reuse", "wide-idx"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="write the per-seed report metrics of this source tree for "
                        f"--seed {DEFAULT_SEED} to perfbench/reference.json")
    return p.parse_args(argv)


def cap_blas_threads():
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_etproc():
    if not (SRC / "etproc" / "__init__.py").is_file():
        raise SystemExit(f"error: no etproc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import etproc
    import etproc.cli
    import etproc.data
    import etproc.harness
    import etproc.metrics
    import etproc.models
    if Path(etproc.__file__).resolve().parent != SRC / "etproc":
        raise SystemExit(f"error: imported etproc from {etproc.__file__}, not {SRC}")
    return etproc


# ---------------------------------------------------------------------------
# environment block


def _blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def environment(nproc, seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "etproc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_thread_cap": {v: os.environ[v] for v in BLAS_VARS},
        "workload_seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# measurement


class Runner:
    """Times ops, checks their outputs and keeps the tallies of one run."""

    def __init__(self, etproc, workload, reference, tracer=None):
        import checks
        self.checks = checks
        self.wl = workload
        self.capture = checks.Capture(etproc)
        self.n_bins = etproc.harness.ExperimentConfig().ece_bins
        self.reference = reference
        self.tracer = tracer
        self.times = {}          # model -> successful op times
        self.timed_total = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprints = {}
        self.drift = None

    def setup(self):
        """One set-up pass; returns its wall time."""
        t0 = time.perf_counter()
        for _, unit in self.wl.setup_units():
            unit()
        return time.perf_counter() - t0

    def traced_setup(self):
        self.tracer.install()
        try:
            for model, unit in self.wl.setup_units():
                self.tracer.op(model, unit, root="setup")
        finally:
            self.tracer.uninstall()

    def op(self, model, key, traced=False):
        """Run, time and check one op; returns its time (None on failure)."""
        self.attempted += 1
        self.capture.reset()
        call = (lambda: self.tracer.op(model, lambda: self.wl.timed(model, key))) if traced \
            else (lambda: self.wl.timed(model, key))
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an op that raises counts as failed
            dt = time.perf_counter() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            dt = time.perf_counter() - t0
            row, problems, extra = self.wl.outputs(model, key, result)
            if not problems:
                problems, fingerprint = self.checks.check_evaluation(self.capture, row, self.n_bins)
                if fingerprint is not None:
                    seen = self.fingerprints.setdefault((model, key), (fingerprint, extra))
                    if seen != (fingerprint, extra):
                        problems.append("repeat of the same (model, seed) differs")
                    self._drift(model, key, row)
        self.timed_total += dt
        self.capture.reset()
        gc.collect()
        if self.tracer is not None:
            # keep the growing span list out of the collector's later passes
            gc.freeze()
        if problems:
            self.failed += 1
            self.problems.append(f"{model}/{key}: {'; '.join(problems)}")
            return None
        self.times.setdefault(model, []).append(dt)
        return dt

    def _drift(self, model, key, row):
        ref = self.reference.get(f"{model}/{key}")
        if ref is None:
            return
        d = max(abs(row[k] - ref[k]) for k in ref)
        self.drift = d if self.drift is None else max(self.drift, d)

    def measure(self, seconds):
        """Whole rounds (one op per model) until the next would overrun."""
        t_start = time.perf_counter()
        r = 0
        while r == 0 or (time.perf_counter() - t_start) * (r + 1) / r <= seconds:
            for model, key in self.wl.ops(r):
                self.op(model, key)
            r += 1

    def measure_traced(self, seconds):
        """Pairs of rounds on the same ops, one traced and one not, in
        alternating order; returns (untraced, traced) op time totals."""
        t_start = time.perf_counter()
        totals = [0.0, 0.0]
        p = 0
        while p == 0 or (time.perf_counter() - t_start) * (p + 1) / p <= seconds:
            for traced in ((False, True) if p % 2 == 0 else (True, False)):
                if traced:
                    self.tracer.install()
                try:
                    for model, key in self.wl.ops(p):
                        dt = self.op(model, key, traced=traced)
                        totals[traced] += dt or 0.0
                finally:
                    if traced:
                        self.tracer.uninstall()
            p += 1
        return totals


def tail(values):
    """Highest percentile with at least TAIL_BEYOND values beyond it."""
    v = sorted(values)
    if len(v) <= TAIL_BEYOND:
        return v[-1], 100.0
    return v[-TAIL_BEYOND - 1], 100.0 * (len(v) - TAIL_BEYOND) / len(v)


def load_reference(workload, seed):
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as f:
        return json.load(f)["rows"].get(workload, {})


def record_reference(runner, wl):
    """Per-seed report metrics of this source tree for the default seed."""
    keys = {(m, k) for r in range(3) for m, k in wl.ops(r)}
    for model, key in sorted(keys):
        runner.op(model, key)
    if runner.failed:
        raise SystemExit("error: " + "\n".join(runner.problems))
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data["workload_seed"] = DEFAULT_SEED
    data.setdefault("rows", {})[wl.name] = {
        f"{m}/{k}": dict(zip(runner.checks.METRIC_KEYS, fp[0][0]))
        for (m, k), fp in sorted(runner.fingerprints.items())}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    args = parse_args(argv)
    nproc = cap_blas_threads()
    etproc = import_etproc()
    import_s = time.perf_counter() - T_START

    import tracer as tracer_mod
    from workloads import MODELS, WORKLOADS

    if args.record_reference and args.seed != DEFAULT_SEED:
        raise SystemExit(f"error: the reference is recorded for --seed {DEFAULT_SEED}")
    work_dir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    sink = io.StringIO()
    try:
        wl = WORKLOADS[args.workload](etproc, args.seed, str(work_dir))
        reference = {} if args.record_reference else load_reference(args.workload, args.seed)
        tracer = tracer_mod.Tracer(tracer_mod.span_table(etproc)) if args.trace else None
        runner = Runner(etproc, wl, reference, tracer)
        with contextlib.redirect_stdout(sink):
            setup_times = [runner.setup() for _ in range(SETUP_REPS)]
            if args.record_reference:
                record_reference(runner, wl)
                return 0
            if args.trace and wl.trace_setup:
                runner.traced_setup()
            if args.trace:
                totals = runner.measure_traced(args.seconds)
            else:
                runner.measure(args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH_DIR / "_work").rmdir()

    env = environment(nproc, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    for line in runner.problems[:20]:
        print("problem " + line)
    done = sum(len(t) for t in runner.times.values())
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    if args.trace:
        problems = tracer.check_tree()
        for line in problems:
            print("problem trace: " + line)
        runner.failed += bool(problems)
        for name, value in tracer.layer_metrics(MODELS).items():
            put(name, value, _unit(name))
        put("trace.overhead_pct", 100.0 * (1.0 - totals[0] / totals[1]) if totals[1] else 0.0,
            "%")
        trace_dir = BENCH_DIR / "_traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.save(trace_dir / f"{args.workload}.npz")
    else:
        put("setup_s", import_s + statistics.median(setup_times), "s")
        for m in MODELS:
            put(f"op_s.min.{m}", min(runner.times.get(m, [float("nan")])), "s")
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        all_times = [t for ts in runner.times.values() for t in ts] or [float("nan")]
        tail_value, tail_pct = tail(all_times)
        print(f"detail op_s.p50 {statistics.median(all_times):.6g} s")
        print(f"detail op_s.tail {tail_value:.6g} s (p{tail_pct:.1f} of {done} ops)")
        print(f"detail ops_per_s {done / runner.timed_total:.6g} ops/s")
    print(f"detail failed_frac {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} ops)")
    drift = "n/a (no reference for this seed)" if runner.drift is None \
        else f"{runner.drift:.6g} abs"
    print(f"detail result_drift_max {drift}")
    for name, m in metrics.items():
        print(f"metric {args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def _unit(name):
    if ".records_per_step" in name:
        return "count"
    if ".predict_rows_per_s." in name:
        return "rows/s"
    if name.endswith("_pct"):
        return "%"
    if name.startswith("autodiff.us_"):
        return "us"
    return "ms"


if __name__ == "__main__":
    sys.exit(main())
