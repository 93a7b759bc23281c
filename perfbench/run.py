"""Benchmark of the three ``diffentropy`` CLI jobs.

Usage (from the repository root):

    python3 perfbench/run.py --workload profile-estimate --seed 42 --seconds 40 --trace 0

One process per workload.  The jobs run in this process through
``diffentropy.cli.main``: one untimed warm-up pass, then timed passes until
``--seconds`` have elapsed (at least three).  ``wall_s`` sums each job's
fastest timed run and ``setup_s`` is the fastest of several fresh processes'
set-ups: a small shared VM slows by up to ~1.5x in phases of seconds to
minutes, which move medians across runs about twice as much as minima.  The
log and the result file keep the medians, percentiles and every raw time.  Every CSV a job writes is hashed
on every pass and checked once by an oracle that shares no code with the
package (``oracles.py``); a nonzero exit, a failed check, or bytes that
differ between passes fail that operation.  ``--trace 1`` instead alternates
traced and untraced passes and reports the per-layer metrics (``tracing.py``)
and the tracing overhead.  The last stdout line is the JSON result.
"""

import os

# One thread for BLAS/OpenMP here and in every child, so a small machine
# measures the program rather than the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS, build_jobs  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
SETUP_PROCESSES = 12
SETUP_TIMEOUT_S = 60

# Layer metric -> the end-to-end metric and workloads it should move.
LAYER_MOVES = {
    "entropy": "wall_s on profile-estimate",
    "mixture": "wall_s on fixedpoints-atlas3 (call overhead) and profile-estimate "
               "(batch size, through the estimate; the profile's kernel is entropy self time)",
    "tracker": "wall_s and peak_rss_mb on profile-estimate",
    "bifurcation": "wall_s on fixedpoints-atlas3",
    "cli.config_s": "setup_s",
    "cli.emit_s, cli.bytes_written, svg": "wall_s on both, by at most their ~1% share",
}
DOMINANT_LAYERS = {"profile-estimate": ("entropy", "tracker"),
                   "fixedpoints-atlas3": ("bifurcation",)}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    import numpy

    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(), "seed": seed,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else 'unknown'."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def setup_probe(jobs):
    """A function timing one fresh process's set-up: import, load every config, build objects."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    argv = [sys.executable, probe] + [job.config_path for job in jobs]

    def run() -> float:
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    return run


def run_job(job, main, tracer=None):
    """One CLI call: (exit code, seconds, {csv name: text}, bytes written)."""
    for name in job.csv_names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(job.out_dir, name))
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            if tracer is None:
                code = main(list(job.argv))
            else:
                code = tracer.call_job("cli.main", main, list(job.argv))
    except Exception:
        traceback.print_exc()
        code = -1
    elapsed = time.perf_counter() - start
    texts = {}
    for name in job.csv_names:
        with contextlib.suppress(OSError), open(os.path.join(job.out_dir, name)) as fh:
            texts[name] = fh.read()
    written = sum(os.path.getsize(p) for p in stdout.getvalue().split("\n") if os.path.isfile(p))
    return code, elapsed, texts, written


class Operations:
    """Outcome of every operation (one CSV of one job) on every pass.

    An operation fails on a pass when its job exits nonzero or leaves no CSV,
    when its bytes differ from the first pass, or when the oracle rejects the
    first pass's bytes.
    """

    def __init__(self):
        self.digests: dict[tuple[str, str], list[str | None]] = {}
        self.first: dict[tuple[str, str], str] = {}
        self.rejected: set[tuple[str, str]] = set()
        self.problems: list[str] = []

    def record(self, job, code: int, texts: dict[str, str]) -> None:
        for name in job.csv_names:
            key = (job.name, name)
            text = texts.get(name) if code == 0 else None
            if text is None:
                self.problems.append(f"{job.name}/{name}: exit {code}, CSV {'present' if name in texts else 'missing'}")
                self.digests.setdefault(key, []).append(None)
                continue
            self.first.setdefault(key, text)
            self.digests.setdefault(key, []).append(hashlib.sha256(text.encode()).hexdigest())

    @property
    def attempted(self) -> int:
        return sum(len(d) for d in self.digests.values())

    @property
    def failed(self) -> int:
        count = 0
        for key, digests in self.digests.items():
            good = None if key in self.rejected else next((d for d in digests if d), None)
            count += sum(d is None or d != good for d in digests)
        return count

    def check(self, jobs) -> dict:
        """Run the oracle once on each operation's first bytes; returns accuracy info."""
        import oracles

        h_err: dict[str, float] = {}
        missed: list[int] = []
        for job in jobs:
            for name in job.csv_names:
                key = (job.name, name)
                text = self.first.get(key)
                if text is None:
                    continue
                if job.argv[0] == "profile":
                    decision = next(d for d in oracles.decisions(job.config)
                                    if f"profile_{d[0]}.csv" == name)
                    problems, err = oracles.check_profile(job.config, job.stride, decision, text)
                    h_err["profile"] = max(err, h_err.get("profile", 0.0))
                elif job.argv[0] == "estimate":
                    problems, err = oracles.check_estimate(job.config, job.samples, job.seed, text)
                    h_err["estimate"] = err
                else:
                    problems, n_missed = oracles.check_fixed_points(job.config, text)
                    missed.append(n_missed)
                if problems:
                    self.rejected.add(key)
                    self.problems += [f"{job.name}/{name}: {p}" for p in problems[:5]]
        for key, digests in self.digests.items():
            if len(set(digests) - {None}) > 1:
                self.problems.append(f"{key[0]}/{key[1]}: bytes differ between passes")
        info = {f"h_err_bits.{command}": err for command, err in h_err.items()}
        if missed:
            info["roots_missed"] = sum(missed)
        return info


def timed_passes(jobs, main, seconds: float, ops: Operations, tracer=None, probe=None):
    """Warm-up, then passes until ``seconds``; trace mode alternates traced/untraced.

    Set-up probes run between passes, spread evenly over the window, so they
    see the same machine as the passes do.  Returns the pass times
    (untraced and traced), the bytes written per pass, the set-up times and,
    per job, its untraced run times.
    """
    job_times: dict[str, list[float]] = {job.name: [] for job in jobs}

    def one_pass(traced: bool, timed: bool = True):
        total, written = 0.0, 0
        with tracer.installed() if traced else contextlib.nullcontext():
            for job in jobs:
                code, elapsed, texts, size = run_job(job, main, tracer if traced else None)
                ops.record(job, code, texts)
                total += elapsed
                written += size
                if timed and not traced:
                    job_times[job.name].append(elapsed)
        return total, written

    one_pass(False, timed=False)
    plain, traced, written, setup = [], [], [], []
    least = MIN_PASSES if tracer is None else MIN_TRACED_PAIRS
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(plain) < least
           or (tracer is not None and len(traced) < least)):
        use_trace = tracer is not None and len(traced) == len(plain)
        wall, size = one_pass(use_trace)
        (traced if use_trace else plain).append(wall)
        written.append(size)
        if probe is not None:
            share = min(1.0, (time.perf_counter() - start) / seconds)
            while len(setup) < math.ceil(SETUP_PROCESSES * share):
                setup.append(probe())
    while probe is not None and len(setup) < SETUP_PROCESSES:
        setup.append(probe())
    return plain, traced, written, setup, job_times


def quantile_summary(values: list[float]) -> str:
    n = len(values)
    # The highest percentile with at least ten samples above it, if any.
    top = int(100 * (1 - 10 / n)) if n > 10 else None
    tail = f"p{top} {sorted(values)[int(n * top / 100)]:.4f} s" if top else f"max {max(values):.4f} s"
    return f"median {statistics.median(values):.4f} s, {tail}, n={n}"


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "diffentropy", "cli.py")):
        print(f"error: no diffentropy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import diffentropy
    import diffentropy.cli

    if not os.path.abspath(diffentropy.__file__).startswith(SRC + os.sep):
        print(f"error: diffentropy imported from {diffentropy.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from selftest import run_selftest

    seed = DEFAULT_SEED if args.seed is None else args.seed
    work_dir = os.path.join(OUT, args.workload)
    jobs = build_jobs(args.workload, seed, work_dir)
    env = environment(seed)
    print(f"env: {json.dumps(env)}")

    ops = Operations()
    tracer = probe = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
    else:
        probe = setup_probe(jobs)
    plain, traced, written, setup, job_times = timed_passes(
        jobs, diffentropy.cli.main, args.seconds, ops, tracer, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = ops.check(jobs)
    selftest = run_selftest(os.path.join(work_dir, "selftest"))
    for name, ok, detail in selftest:
        print(f"selftest {'ok' if ok else 'FAILED'}: {name}: {detail}")
    for problem in ops.problems:
        print(f"failure: {problem}", file=sys.stderr)
    correct = ops.failed == 0 and all(ok for _, ok, _ in selftest)
    info["fail_ratio"] = ops.failed / ops.attempted
    print(f"fail_ratio: {info['fail_ratio']:.4g} ({ops.failed}/{ops.attempted} operations)")
    for command in ("profile", "estimate"):
        if f"h_err_bits.{command}" in info:
            print(f"h_err_bits.{command}: {info[f'h_err_bits.{command}']:.4g} bits")
    if "roots_missed" in info:
        print(f"roots_missed: {info['roots_missed']} roots (dense scan minus reported, summed over levels)")

    if args.trace:
        metrics, busy = layer_metrics(tracer.spans, len(traced))
        metrics["cli.bytes_written"] = statistics.median(written)
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = overhead
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        traced_wall = statistics.fmean(traced)  # busy times are per-pass means too
        print(f"traced wall: {quantile_summary(traced)}; untraced {quantile_summary(plain)}; "
              f"overhead {overhead:+.4f} s ({100 * overhead / statistics.median(plain):+.1f}%)")
        for layer, seconds in busy.items():
            print(f"layer busy: {layer} {seconds:.4f} s per pass ({100 * seconds / traced_wall:.1f}% of the mean traced pass)")
        dominant = DOMINANT_LAYERS[args.workload]
        share = sum(busy.get(layer, 0.0) for layer in dominant) / traced_wall
        print(f"dominant layers {'+'.join(dominant)}: {100 * share:.1f}% of the mean traced pass"
              f"{'' if share > 0.5 else ' (NOT the majority)'}")
        for layer, target in LAYER_MOVES.items():
            print(f"moves: {layer} -> {target}")
        os.makedirs(work_dir, exist_ok=True)
        tracer.write(os.path.join(work_dir, "spans.csv"))
    else:
        metrics = {"wall_s": sum(min(times) for times in job_times.values()),
                   "setup_s": min(setup), "peak_rss_mb": peak_rss_mb}
        units = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
        for name, times in job_times.items():
            print(f"job {name}: fastest {min(times):.4f} s, {quantile_summary(times)}")
        print(f"whole passes: {quantile_summary(plain)}")
        print(f"setup_s: fastest {metrics['setup_s']:.4f} s, median {statistics.median(setup):.4f} s"
              f" over {len(setup)} fresh processes")
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")

    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    with open(os.path.join(work_dir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "env": env, "info": info, "result": result,
                   "passes": {"untraced_s": plain, "traced_s": traced},
                   "job_runs_s": job_times, "setup_runs_s": setup}, fh, indent=2)
    print(json.dumps(result))
    return 0


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
