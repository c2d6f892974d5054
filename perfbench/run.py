"""anyondeg benchmark: seeded job lists run as a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload large_k --seed 1 --seconds 36 --trace 0

One client runs one job at a time in this process (cli_golden: one
`anyondeg` child process per job, one at a time).  The seeded job list of
the workload (see workloads.py) is run in a fixed number of passes,
round(--seconds / PASS_S[workload]) and at least two with --trace 1, so
that a faster or slower program gets the same number of samples.  Every
result is checked by an independent route (see checks.py) after its
pass, outside the timings.

Every job and every set-up sample is timed between two runs of fixed
reference work of the same kind and scaled to the reference host speed
(see calibrate.py): the shared host's speed moves in phases up to 2x
apart that last longer than a run, and the scaled time follows the
program, not the phase.  The detail line keeps the raw pass times.

--trace 0 prints the end-to-end metrics (names and units are read from
BENCHMARK.json):
  wall_s       sum over the job list of each job's median scaled time
               over the passes: the time to finish the list at the
               reference host speed
  job_s_p50    median of those job times over the job list
  job_s_tail   the same at the highest percentile that leaves ten jobs
               of the list beyond it: 100 * (1 - 10 / jobs in the list)
  setup_s      median scaled time over fresh interpreters of `import
               anyondeg` plus job generation (cli_golden: `import
               anyondeg.cli`), taken SETUP_PER_PASS times before every pass
  peak_rss_mb  peak resident memory of the process doing the work
               (cli_golden: the largest of the CLI job processes)
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics.  A span is recorded around every call the benchmark makes into
a public function of a layer module; `<layer>.busy_s` and the counters
are per traced pass (median over traced passes).  For cli_golden each
traced pass also replays every CLI job in-process with cold caches to
time the layers inside it (outside the pass timing), `reproduce.<item>`
is the median of one cold `reproduce(only=item)`, and
`cli.<subcommand>.process_s` the median scaled process time; the
spans are raw seconds.
`lattice.busy_s` times `build_lattice` at every job's level, repeated
after the traced pass: the program builds its lattices inside the other
layers' calls, where the benchmark's spans cannot reach.
`trace.overhead_share` is the scaled time of a traced pass over that of
an untraced one, minus one.

The line before the last carries the details (tail percentile, job
counts, failed_ratio, raw job time of each pass); the last line is the
result object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Seconds of --seconds spent per pass of each job list: a run makes
# round(--seconds / PASS_S) passes.  Set at the commit that added this
# benchmark, on the machine in BASELINE.md, so that a run with calibration
# and set-up takes 20-35 s, and under 45 s when the host is slow; constants,
# so that the count does not follow the speed of the program measured.
PASS_S = {"large_k": 9.0, "exact_algebra": 7.2, "cli_golden": 16.0}
# A run that is this many times over --seconds starts no further pass, to
# stay within the time a run may take when the program has got much slower.
MAX_RUN_FACTOR = 3
SETUP_PER_PASS = 3
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10
REPRODUCE_ITEMS = tuple(name.split(".")[1] for name in PER_LAYER_UNITS
                        if name.startswith("reproduce."))
_MAXIMA = {"spectral.matrix_dim", "genfunc.system_dim", "genfunc.det_degree",
           "genfunc.max_coeff_bits"}


class Tracer:
    """Summed span durations and counters of one traced pass, by metric name."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, layer: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.busy[layer] += time.perf_counter() - start

    def add(self, name: str, value: int) -> None:
        if name in _MAXIMA:
            self.counts[name] = max(self.counts[name], value)
        else:
            self.counts[name] += value


class NoTracer:
    def span(self, layer: str):
        return nullcontext()

    def add(self, name: str, value: int) -> None:
        pass


def _dim(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def _bits(values) -> int:
    return max((abs(int(x)).bit_length() for x in values), default=0)


def run_library_job(job, tr):
    """One in-process job; every call into a layer module sits in a span."""
    import anyondeg as ad

    if job.kind == "degeneracy":
        with tr.span("pathcount.busy_s"):
            return ad.degeneracy(job.k, job.n, job.v)
    if job.kind == "count_paths":
        with tr.span("pathcount.busy_s"):
            return ad.count_paths(job.k, job.n)
    if job.kind == "table":
        with tr.span("pathcount.busy_s"):
            return ad.table(job.k, job.n, job.v)
    if job.kind == "perron":
        with tr.span("spectral.perron_busy_s"):
            return ad.lambda_perron(job.k)
    for solver in (ad.system_det, ad.solve_system):
        if solver.cache_info().currsize:
            raise RuntimeError(f"{solver.__name__} cache is warm before an exact_algebra job")
    if job.kind == "det":
        with tr.span("genfunc.busy_s"):
            return ad.system_det(job.k)
    if job.kind == "solve":
        with tr.span("genfunc.busy_s"):
            ad.solve_system(job.k)
            fn = ad.generating_function(job.k, job.v)
        with tr.span("poly.busy_s"):
            return fn, fn.series_coeffs(job.n)
    if job.kind == "root":
        with tr.span("genfunc.busy_s"):
            det = ad.system_det(job.k)
        with tr.span("spectral.root_busy_s"):
            return det, ad.smallest_positive_root(det)
    raise ValueError(f"unknown job kind {job.kind!r}")


def count_library_job(job, result, tr) -> None:
    """Per-layer counters of one finished job (outside its timing)."""
    if job.kind in ("degeneracy", "count_paths"):
        tr.add("pathcount.calls", 1)
        tr.add("pathcount.cell_updates", job.n * _dim(job.k))
        tr.add("pathcount.forced_zero", int(job.forced_zero))
        tr.add("pathcount.result_bits", _bits(result.counts.values())
               if job.kind == "count_paths" else _bits([result]))
    elif job.kind == "table":
        tr.add("pathcount.calls", 1)
        tr.add("pathcount.cell_updates", job.n * sum(
            _dim(k) for k in range(1, job.k + 1) if sum(job.v) <= k))
        tr.add("pathcount.result_bits", _bits(c for row in result.rows.values() for c in row))
    elif job.kind == "perron":
        tr.add("spectral.matrix_dim", _dim(job.k))
    else:
        if job.kind == "solve":
            polys = [result[0].num, result[0].den]
            tr.add("poly.series_terms", job.n + 1)
        else:
            det = result if job.kind == "det" else result[0]
            polys = [det]
            tr.add("genfunc.det_degree", det.degree)
        tr.add("genfunc.calls", 1)  # generating_function reads solve_system's cache
        tr.add("genfunc.system_dim", _dim(job.k))
        tr.add("genfunc.max_coeff_bits", max(_bits(p.coeffs) for p in polys))


def _clear_caches() -> None:
    import anyondeg as ad
    ad.system_det.cache_clear()
    ad.solve_system.cache_clear()


def _child_env() -> dict:
    path = [str(SRC), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


class _Child(subprocess.Popen):
    """A Popen that keeps the resource usage of its process when reaped."""
    rusage = None

    def _try_wait(self, wait_flags):
        pid, status, rusage = os.wait4(self.pid, wait_flags)
        if pid:
            self.rusage = rusage
        return pid, status


cli_peak_rss_kb = 0  # largest peak resident memory of a CLI job process


def run_cli_job(job, tr):
    """One `anyondeg` process; returns (exit code, stdout)."""
    global cli_peak_rss_kb
    proc = _Child([sys.executable, "-m", "anyondeg.cli", *job.argv],
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                  env=_child_env(), cwd=HERE.parent, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    cli_peak_rss_kb = max(cli_peak_rss_kb, proc.rusage.ru_maxrss)
    if proc.returncode:
        print(f"{' '.join(job.argv)}: exit {proc.returncode}: {err.strip()}", file=sys.stderr)
    return proc.returncode, out


def replay_cli_job(job, tr, reproduce_times: dict) -> None:
    """Time in-process, with cold caches, the layer calls a CLI job makes."""
    import anyondeg as ad
    from anyondeg.reproduce import reproduce

    _clear_caches()
    if job.kind == "reproduce":
        items = [job.argv[-1]] if "--only" in job.argv else REPRODUCE_ITEMS
        for item in items:
            _clear_caches()
            start = time.perf_counter()
            reproduce(only=item)
            reproduce_times[item].append(time.perf_counter() - start)
    elif job.kind == "count":
        with tr.span("pathcount.busy_s"):
            ad.degeneracy(job.k, job.n, job.v)
    elif job.kind == "table":
        with tr.span("pathcount.busy_s"):
            ad.table(job.k, job.n, job.v)
    elif job.kind == "det":
        with tr.span("genfunc.busy_s"):
            ad.system_det(job.k)
    elif job.kind == "verify":
        with tr.span("genfunc.busy_s"):
            ad.verify_series(job.k, job.n)
    elif job.kind == "qdim":
        with tr.span("spectral.perron_busy_s"):
            ad.lambda_perron(job.k)
        with tr.span("genfunc.busy_s"):
            det = ad.system_det(job.k)
        with tr.span("spectral.root_busy_s"):
            ad.smallest_positive_root(det)
    elif job.kind == "syt":
        with tr.span("syt.busy_s"):
            shape = ad.syt.shape_for_vertex(job.n, job.v)
            ad.unrestricted_count(job.n, job.v)
            ad.brute_force_count(shape)


def trace_lattice(jobs, tr) -> None:
    """Build the lattice of every job's level again, in a span of its own."""
    import anyondeg as ad

    for job in jobs:
        if job.k and job.kind != "syt":
            with tr.span("lattice.busy_s"):
                lat = ad.build_lattice(job.k)
            tr.add("lattice.vertices", lat.dim)


def _child_seconds(code: str, *args: str) -> float:
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, env=_child_env(), cwd=HERE.parent,
                         timeout=CHILD_TIMEOUT_S, check=True).stdout
    return float(out.strip().splitlines()[-1])


_SETUP_CODE = """import sys, time
t0 = time.perf_counter()
import anyondeg, workloads
workloads.make_jobs(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
"""
_CLI_IMPORT_CODE = """import time
t0 = time.perf_counter()
import anyondeg.cli
print(time.perf_counter() - t0)
"""


def measure_setup(workload: str, seed: int, cal) -> list[float]:
    """SETUP_PER_PASS set-up times, each in a fresh interpreter, at the
    reference host speed."""
    times = []
    for _ in range(SETUP_PER_PASS):
        cal.before("import")
        if workload == "cli_golden":
            raw = _child_seconds(_CLI_IMPORT_CODE)
        else:
            raw = _child_seconds(_SETUP_CODE, workload, str(seed))
        times.append(cal.after("import", raw))
    cal.forget()
    return times


def calibration_kind(job, cli: bool) -> str:
    if cli:
        return "spawn"
    return "blas" if job.kind == "perron" else "py"


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    import anyondeg  # noqa: F401  (compiled once here, before set-up is timed)
    import checks
    import workloads

    jobs = workloads.make_jobs(workload, seed)
    cli = workload == "cli_golden"
    cal = Calibrator(_child_env(), HERE.parent)
    kinds = [calibration_kind(job, cli) for job in jobs]
    passes = max(1 + trace, round(seconds / PASS_S[workload]))
    run_start = time.perf_counter()
    setup_times: list[float] = []
    scaled_sums = {False: [], True: []}  # traced -> scaled job time of a pass
    raw_sums: list[float] = []  # raw job time of a pass
    job_times: list[list[float]] = [[] for _ in jobs]  # per job, one per untraced pass
    cli_times: dict[str, list[float]] = defaultdict(list)
    reproduce_times: dict[str, list[float]] = defaultdict(list)
    layer_passes: list[dict] = []
    attempted = failed = 0
    failures: list[str] = []
    for pass_number in range(passes):
        if (pass_number > trace
                and time.perf_counter() - run_start > MAX_RUN_FACTOR * seconds):
            break
        setup_times += measure_setup(workload, seed, cal)
        traced = trace and pass_number % 2 == 1
        tr = Tracer() if traced else NoTracer()
        results, raw, scaled = [], [], []
        for job, kind in zip(jobs, kinds):
            if not cli:
                _clear_caches()
            cal.before(kind)
            start = time.perf_counter()
            try:
                result = (run_cli_job if cli else run_library_job)(job, tr)
            except Exception as exc:  # a failing job is counted, not fatal
                result = exc
            raw.append(time.perf_counter() - start)
            scaled.append(cal.after(kind, raw[-1]))
            results.append(result)
        raw_sums.append(sum(raw))
        cal.forget()
        scaled_sums[traced].append(sum(scaled))
        for number, (job, elapsed) in enumerate(zip(jobs, scaled)):
            if not traced:
                job_times[number].append(elapsed)
            if cli:
                cli_times[job.kind].append(elapsed)
        for job, result in zip(jobs, results):
            attempted += 1
            try:
                if isinstance(result, Exception):
                    raise result
                checks.check(job, result)
                if traced and not cli:
                    count_library_job(job, result, tr)
            except Exception as exc:
                failed += 1
                failures.append(f"{job}: {type(exc).__name__}: {exc}")
        if traced:
            if cli:
                for job in jobs:
                    replay_cli_job(job, tr, reproduce_times)
            trace_lattice(jobs, tr)
            layer_passes.append({**tr.busy, **tr.counts})

    per_pass = len(jobs)
    job_typical = [statistics.median(times) for times in job_times]
    tail_q = 100 * (1 - TAIL_BEYOND / per_pass)
    tail = percentile(job_typical, tail_q)
    detail = {
        "workload": workload, "seed": seed, "jobs_per_pass": per_pass,
        "passes": len(raw_sums), "passes_planned": passes,
        "setup_samples": len(setup_times),
        "job_s_tail_percentile": round(tail_q, 3),
        "jobs_beyond_tail": sum(t > tail for t in job_typical),
        "failed_ratio": failed / attempted,
        "raw_pass_s": raw_sums,
        "failures": failures[:5],
    }
    if not trace:
        if cli:
            rss_kb = cli_peak_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": sum(job_typical),
            "job_s_p50": statistics.median(job_typical),
            "job_s_tail": tail,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss_kb / 1024,
        }
        units = END_TO_END_UNITS
    else:
        values = {name: statistics.median(p.get(name, 0) for p in layer_passes)
                  for name in PER_LAYER_UNITS}
        values["pathcount.forced_zero_share"] = statistics.median(
            p.get("pathcount.forced_zero", 0) for p in layer_passes) / per_pass
        for item, times in reproduce_times.items():
            values[f"reproduce.{item}.busy_s"] = statistics.median(times)
        for sub, times in cli_times.items():
            values[f"cli.{sub}.process_s"] = statistics.median(times)
        if cli:
            values["cli.import_s"] = statistics.median(setup_times)
        values["trace.overhead_share"] = (statistics.median(scaled_sums[True])
                                          / statistics.median(scaled_sums[False]) - 1)
        units = PER_LAYER_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "anyondeg" / "__init__.py").is_file():
        print(f"error: no anyondeg sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in detail.pop("failures"):
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
