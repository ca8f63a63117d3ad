"""canonsurf benchmark: one run of one workload.

    python3 bench/run.py --workload {mesh-513,canon-verdict} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run it from the repository root; it imports the package from src/ and
installs nothing. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, measured untraced; with
--trace 1 they are the per-layer metrics, from a run whose first half is
untraced and whose second half is traced, so the difference is the tracing
overhead. The line before it gives the details: the sample count, median and
tail of every timing, each failure, and the machine.

Timings are per-operation medians over whole rounds of the workload's
operations, so every run has the same mix of operations. setup_s is the
median wall time of fresh interpreters that run `import canonsurf`, the
set-up every CLI call pays; building the workload's inputs is timed by no
metric. --smoke shrinks every grid to 65^2, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
HELPER = os.path.join(BENCH, "cli_helper.py")
WORKLOADS = ("mesh-513", "canon-verdict")
SETUP_REPEATS = 7

TIMED = {
    "mesh_s": "mesh",
    "diagnose_s": "diagnose",
    "canon_s": "canon",
    "verdict_s": "verdict",
    "affine_s": "affine",
    "cli_canonicalize_s": "cli_canonicalize",
    "cli_check_s": "cli_check",
    "cli_reconstruct_s": "cli_reconstruct",
}
ACCURACY = ("align_rms", "gauss_max_abs", "affine_misfit")

# per-layer self times: metric name -> span name
SELF_TIMES = {
    f"{span}.{suffix}": span for span, suffix in (
        ("reconstruction.integrate_frame", "s"),
        ("reconstruction.coefficients_from_invariants", "s"),
        ("reconstruction.reconstruct", "self_s"),
        ("reconstruction.path_consistency_diagnostic", "s"),
        ("reconstruction.align_rigid", "s"),
        ("compatibility.canonical_factors", "s"),
        ("compatibility.gauss_residual_canonical", "s"),
        ("compatibility.gauss_residual_canonical_kh", "s"),
        ("compatibility.compatibility_floor", "s"),
        ("canonical.build_canonical_maps", "s"),
        ("canonical.resample_to_canonical", "s"),
        ("canonical.resample_grid", "s"),
        ("canonical.verify_canonical", "s"),
        ("grid.invert_monotone_map", "s"),
        ("canonical.check_affine_equivalence", "s"),
        ("catalog.sample_surface", "s"),
        ("invariants.fundamental_forms_grid", "s"),
        ("invariants.curvatures_grid", "s"),
        ("invariants.detect_umbilics", "s"),
        ("formats.write_obj", "s"),
        ("formats.write_invariant_grid", "s"),
        ("formats.read_invariant_grid", "s"),
        ("formats.write_json", "s"),
        ("cli.main", "self_s"),
    )
}
BYTES = ("formats.write_obj.bytes", "formats.write_invariant_grid.bytes",
         "formats.read_invariant_grid.bytes")
STENCILS = {"grid.partial_u", "grid.partial_v", "grid.second_u", "grid.second_v"}


def src_env():
    """The environment with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Op:
    kind: str
    label: str
    primary: bool
    traced: bool
    seconds: float | None
    observed: dict
    error: str | None


@dataclass
class Runner:
    """Closed loop: runs jobs one after another and records each operation."""

    workdir: str
    store: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)
    child_rss_kb: int = 0
    tracer: object = None
    cli_calls: list = field(default_factory=list)  # traced: (wall seconds, spans file, op id)

    def run_cli(self, argv):
        """Run one cold CLI process; return (wall seconds, exit code, stdout)."""
        if self.tracer is None:
            cmd = [sys.executable, "-m", "canonsurf", *argv]
        else:
            spans = os.path.join(self.workdir, f"cli-spans-{len(self.cli_calls)}.json")
            cmd = [sys.executable, HELPER, spans, *argv]
        out_path = os.path.join(self.workdir, "cli.out")
        with open(out_path, "w") as out, open(os.path.join(self.workdir, "cli.err"), "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.workdir, env=src_env())
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if self.tracer is not None:
            self.cli_calls.append((wall, spans, self.tracer.op))
        with open(out_path, "r") as fh:
            return wall, proc.returncode, fh.read()

    def loop(self, jobs, seconds):
        """Run whole rounds of jobs, at least one, while the next is expected to end by half of
        its length or less after `seconds` have passed."""
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for job in jobs:
                if self.tracer is not None:
                    self.tracer.op = len(self.ops)
                try:
                    seconds_in, observed = job.fn(self)
                    error = None
                except Exception as exc:  # a raised error or a failed check fails this operation only
                    seconds_in, observed, error = None, {}, f"{job.kind} {job.label}: {type(exc).__name__}: {exc}"
                self.ops.append(Op(job.kind, job.label, job.primary, self.tracer is not None,
                                   seconds_in, observed, error))
            now = time.perf_counter()
            if now - start + 0.5 * (now - round_start) > seconds:
                return


def summary(values):
    """Median, sample count and the highest sample with at least ten samples beyond it."""
    xs = sorted(values)
    if not xs:
        return {"n": 0}
    out = {"n": len(xs), "median": statistics.median(xs), "max": xs[-1]}
    if len(xs) > 10:
        out["tail_pct"] = 100.0 * (len(xs) - 10) / len(xs)
        out["tail"] = xs[len(xs) - 11]
    return out


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def end_to_end(ops, setup, peak_rss_kb):
    values = {"setup_s": statistics.median(setup)}
    details = {"setup_s": summary(setup)}
    for name, kind in TIMED.items():
        xs = [op.seconds for op in ops if op.kind == kind and op.error is None]
        values[name] = statistics.median(xs) if xs else None
        details[name] = summary(xs)
    values["peak_rss_mb"] = peak_rss_kb / 1024.0
    for name in ACCURACY:
        seen = [(op.primary, op.observed[name]) for op in ops if name in op.observed]
        worst = [v for primary, v in seen if primary] or [v for _, v in seen]
        values[name] = max(worst) if worst else None
    return values, details


def per_layer(runner):
    from tracing import self_times

    rows = [(s[0], t, s[4]) for s, t in zip(runner.tracer.spans, self_times(runner.tracer.spans))]
    counts = list(runner.tracer.counts)
    cli = []  # (wall, import, main inclusive)
    for wall, path, op in runner.cli_calls:
        with open(path, "r") as fh:
            data = json.load(fh)
        spans = data["spans"]
        rows += [(s[0], t, op) for s, t in zip(spans, self_times(spans))]
        counts += [[key, value, op] for key, value, _ in data["counts"]]
        main = sum(s[2] - s[1] for s in spans if s[0] == "cli.main")
        cli.append((wall, data["import_s"], main))

    def per_op(of_kind, pairs):
        """Median over traced operations of one kind of the sum of their (value, op) pairs."""
        by_op = {k: 0 for k, op in enumerate(runner.ops) if op.kind == of_kind and op.traced}
        for value, op in pairs:
            if op in by_op:
                by_op[op] += value
        return median_or_zero(list(by_op.values()))

    def primary_first(pairs):
        """Values of (value, op) pairs from primary operations if there are any, else all."""
        return [v for v, op in pairs if op is not None and runner.ops[op].primary] or [v for v, _ in pairs]

    m = {name: median_or_zero(primary_first([(t, op) for n, t, op in rows if n == span]))
         for name, span in SELF_TIMES.items()}
    traced_mesh = [op for op in runner.ops if op.traced and op.kind == "mesh" and op.error is None]
    m["reconstruction.frame_steps"] = median_or_zero([op.observed["frame_steps"] for op in traced_mesh])
    factors = [(1, op) for n, _, op in rows if n == "compatibility.canonical_factors"]
    m["compatibility.canonical_factors.calls_per_mesh"] = per_op("mesh", factors)
    m["compatibility.canonical_factors.calls_per_verdict"] = per_op("verdict", factors)
    m["grid.stencil.calls"] = per_op("canon", [(1, op) for n, _, op in rows if n in STENCILS])
    m["special_surfaces.residuals.s"] = per_op(
        "verdict", [(t, op) for n, t, op in rows if n.startswith("special_surfaces.")])
    m["canonical.affine_lm.nfev"] = per_op(
        "affine", [(v, op) for k, v, op in counts if k == "canonical.affine_lm.nfev"])
    starts = sum(v for k, v, _ in counts if k == "canonical.affine_lm.starts")
    capped = sum(v for k, v, _ in counts if k == "canonical.affine_lm.capped")
    m["canonical.affine_lm.capped_share"] = capped / starts if starts else 0.0
    for name in BYTES:
        m[name] = median_or_zero(primary_first([(v, op) for k, v, op in counts if k == name]))
    m["cli.import.s"] = median_or_zero([imp for _, imp, _ in cli])
    m["cli.process.s"] = median_or_zero([wall - imp - main for wall, imp, main in cli])
    m["ops.attempted"] = len(runner.ops)
    m["ops.failed"] = sum(op.error is not None for op in runner.ops)
    traced, untraced = {}, {}
    for op in runner.ops:
        if op.error is None:
            (traced if op.traced else untraced).setdefault(op.kind, []).append(op.seconds)
    both = sorted(set(traced) & set(untraced))
    base = sum(statistics.median(untraced[k]) for k in both)
    extra = sum(statistics.median(traced[k]) for k in both) - base
    m["trace.overhead_s"] = extra
    m["trace.overhead_share"] = extra / base if base else 0.0
    return m


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def _blas_threads(numpy):
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, check=True).stdout
        return int(out)
    except (OSError, subprocess.CalledProcessError, ValueError):
        return None


def _setup_seconds():
    """Wall time of a fresh interpreter that imports canonsurf from src/."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import canonsurf"], cwd=ROOT, env=src_env(), check=True)
    return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="65^2 grids, for the benchmark's own test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "canonsurf", "__init__.py")):
        print(f"bench: no canonsurf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # byte-compile first, so that no set-up or cold run pays for it
        compileall.compile_dir(SRC, quiet=1)
        setup = [] if args.trace else [_setup_seconds() for _ in range(SETUP_REPEATS)]
        import workloads
        jobs = workloads.build(args.workload, args.seed, args.smoke, workdir)
        runner = Runner(workdir)
        if args.trace:
            from tracing import Tracer

            runner.loop(jobs, args.seconds / 2)
            runner.tracer = Tracer()
            runner.tracer.install()
            runner.loop(jobs, args.seconds / 2)
            runner.tracer.dump(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"))
            values, details = per_layer(runner), {}
        else:
            runner.loop(jobs, args.seconds)
            peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, runner.child_rss_kb)
            values, details = end_to_end(runner.ops, setup, peak)
        # BENCHMARK.json names the metrics and their units; a name missing here is a bug
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r") as fh:
            spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
        failures = [op.error for op in runner.ops if op.error is not None]
        print(json.dumps({"workload": args.workload, "seed": args.seed, "timings": details,
                          "failures": failures, "environment": environment()}))
        print(json.dumps({
            "correct": not failures and all(m["value"] is not None for m in metrics.values()),
            "attempted": len(runner.ops),
            "failed": len(failures),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
