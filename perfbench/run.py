"""finop pipeline benchmark: one workload per run.

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 20 --trace 0

Runs one workload (reduce, permute, algebra or cli) in a closed loop: one
client, each operation issued when the previous one has returned.  It runs
whole cycles of operations until they have taken --seconds, checks every
output against perfbench/reference.py, and prints a report whose last line
is one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the operations again with spans around finop's public functions and reports
the per-layer metrics.  Every operation is timed next to a fixed reference
(see REFERENCES), and the gated latencies are in units of it.  finop is imported from src/ next to this directory;
without it the benchmark exits with status 1.  See perfbench/README.md.
"""

import os

# one BLAS / OpenMP thread, fixed before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("reduce", "permute", "algebra", "cli")
# permute builds permutations up to K = 40320, above finop's default cap
FINOP_MAX_K = {"permute": "50000"}
SETUP_PROBES = 5
STARTUP_PROBES = 5
# tail percentiles in per mille; the highest with >= 10 samples beyond it is reported
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
# operations an untraced run measures at least, so that its tail is at least p75;
# only cli, whose commands each pay a process start, needs more than --seconds for it
MIN_OPS = 40


def load_finop():
    """Import finop from this checkout's src/, or exit if it is not there."""
    if not (SRC / "finop" / "__init__.py").is_file():
        sys.exit(f"perfbench: no finop package at {SRC / 'finop'}; "
                 "run from the root of a finop checkout")
    sys.path.insert(0, str(SRC))
    import finop

    if Path(finop.__file__).resolve().parent != (SRC / "finop").resolve():
        sys.exit(f"perfbench: imported finop from {finop.__file__}, not from {SRC}")


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def provenance() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "unknown"

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "FINOP_MAX_K": os.environ.get("FINOP_MAX_K", "unset (finop default)"),
    }


# The reference each workload's operations are timed against: a kernel of
# the kind of work its operations do, which uses neither finop nor scipy, so
# that no change to finop, nor to when finop imports scipy, can change its
# time.  On the shared two-vCPU host this benchmark was built on, the speed
# of a process changed by up to 1.4x over periods of seconds to minutes as
# other tenants came and went, in CPU time as much as in wall time, and not
# by the same factor for interpreted Python as for LAPACK on large arrays.
# reduce spends its time in LAPACK on K x K arrays; the others in Python
# (cli in its imports).
REFERENCES = {"reduce": "linalg", "permute": "python", "algebra": "python", "cli": "python"}


class Reference:
    """Times a workload's reference kernel."""

    def __init__(self, workload):
        self.kernel = getattr(self, REFERENCES[workload])
        self.arrays = []

    def python(self):
        """An integer loop and a dict-of-tuples loop, about 5 ms."""
        total = 0
        for i in range(20000):
            total += i * i % 7
        counts = {}
        for i in range(8000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())

    def linalg(self):
        """A 320x320 complex matmul and the singular values of a 256x256
        complex matrix, about 20 ms, on arrays larger than L2."""
        if not self.arrays:
            rng = np.random.default_rng(20181024)
            self.arrays = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                           for n in (320, 256)]
        square, svd_input = self.arrays
        square @ square
        np.linalg.svd(svd_input, compute_uv=False)

    def seconds(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start


class Tally:
    """Latencies, reference times and failures of the operations of one phase."""

    def __init__(self):
        self.latencies = []
        self.references = []
        self.failed = 0
        self.wrong = 0
        self.problems = []

    def relative(self) -> list:
        """Each operation's latency in units of the reference kernel's time around it."""
        return [seconds / ref for seconds, ref in zip(self.latencies, self.references)]

    def add(self, label, seconds, reference, problems):
        self.latencies.append(seconds)
        self.references.append(reference)
        if problems:
            self.failed += 1
            self.wrong += any(kind == "wrong" for kind, _ in problems)
            self.problems.append((label, problems))


def run_ops(ops, recorder, tally, op_ids, reference) -> float:
    """Time each operation, then check its output untraced; return the time taken.

    The reference kernel runs before the first operation and right after
    each one; an operation's reference time is the mean of the two runs
    around it."""
    busy = 0.0
    before = reference.seconds()
    for op in ops:
        recorder.op = next(op_ids)
        start = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            out, error = None, exc
        elapsed = time.perf_counter() - start
        recorder.op = None
        after = reference.seconds()
        busy += elapsed
        if error is not None:
            problems = [("fail", f"raised {type(error).__name__}: {error}")]
        else:
            with recorder.paused():
                try:
                    problems = op.check(out)
                except Exception as exc:  # malformed output
                    problems = [("wrong", f"check raised {type(exc).__name__}: {exc}")]
        # so that this output is not alive while the next operation runs
        del out
        tally.add(op.label, elapsed, (before + after) / 2, problems)
        before = after
    return busy


def run_cycles(workload, first, seconds, each_cycle, min_ops=1):
    """Pass whole cycles, at least one, to each_cycle(index, ops) until the
    operation time it returns adds up to `seconds` and min_ops operations
    have run.  `first` is cycle 0, which set-up made.  Returns the number of
    cycles."""
    busy, index, ops = 0.0, 0, first
    while True:
        busy += each_cycle(index, ops)
        index += 1
        if busy >= seconds and index * len(first) >= min_ops:
            return index
        ops = workload.cycle(index)


def tail(latencies):
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it."""
    n = len(latencies)
    m = max((m for m in TAIL_LADDER if n * (1000 - m) >= 10000), default=TAIL_LADDER[0])
    if n < 2:
        return m / 10, latencies[0]
    return m / 10, statistics.quantiles(latencies, n=1000, method="inclusive")[m - 1]


def set_up(args, workdir):
    """Make the workload and cycle 0's inputs, run one warm-up operation."""
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.workload == "cli":
        workload = cls(args.seed, workdir, in_process=bool(args.trace))
    else:
        workload = cls(args.seed)
    first = workload.cycle(0)
    workload.warmup().run()
    return workload, first


def probe_setup(args):
    """Set-up times of fresh processes: start until ready for the first timed operation."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up probe exited {code} without reporting ready")
    return samples


def probe_startup():
    """Wall time of fresh processes that only import finop."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import finop"], cwd=ROOT, env=env,
                       check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def end_to_end(args, tally, cycles):
    # before the set-up probes, whose processes would count as children
    peak_kb = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF).ru_maxrss
    setup = probe_setup(args)
    lat = tally.latencies
    rel = tally.relative()
    n = len(rel)
    q, tail_rel = tail(rel)
    raw_q, raw_tail = tail(lat)
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "ops_per_kref": (1000 * n / sum(rel), "1/kref", f"n={n} in {cycles} cycles"),
        "op_p50_ref": (statistics.median(rel), "ref", f"n={n}"),
        "op_tail_ref": (tail_rel, "ref", f"p{q:g}, n={n}"),
        "peak_rss_mb": (peak_kb / 1024, "MB",
                        "max over CLI child processes" if args.workload == "cli" else "this process"),
        "fail_frac": (tally.failed / n, "fraction", f"{tally.failed}/{n} failed"),
        "ops_per_s": (n / sum(lat), "1/s", "wall time, not gated"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms", "wall time, not gated"),
        "op_tail_ms": (raw_tail * 1000, "ms", f"p{raw_q:g}, wall time, not gated"),
        "reference_ms": (statistics.median(tally.references) * 1000, "ms",
                         "median time of the reference kernel"),
    }


def traced(args, workload, first, reference):
    """Run each cycle twice, untraced and traced, alternating which goes first,
    until the untraced passes took half of --seconds."""
    recorder = tracing.Recorder()
    op_ids = itertools.count()
    plain, spans = Tally(), Tally()

    def traced_pass(ops):
        recorder.install()
        try:
            run_ops(ops, recorder, spans, op_ids, reference)
        finally:
            recorder.uninstall()

    def both(index, ops):
        if index % 2:
            traced_pass(ops)
            return run_ops(ops, recorder, plain, op_ids, reference)
        busy = run_ops(ops, recorder, plain, op_ids, reference)
        traced_pass(ops)
        return busy

    cycles = run_cycles(workload, first, args.seconds / 2, both)
    wall_plain, wall_traced = sum(plain.latencies), sum(spans.latencies)
    metrics = tracing.layer_metrics(recorder.spans, wall_traced)
    startup = statistics.median(probe_startup()) if args.workload == "cli" else 0.0
    metrics["cli.startup_s"] = (startup, "s")
    # in units of the reference kernel, so that a change of host speed between
    # the passes does not read as tracing cost
    metrics["trace.overhead_frac"] = (sum(spans.relative()) / sum(plain.relative()) - 1,
                                      "fraction")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write(spans_file)
    rows = {name: (value, unit, "") for name, (value, unit) in metrics.items()}
    note = (f"{cycles} cycles untraced ({wall_plain:.3f} s of operations), the same "
            f"{cycles} traced ({wall_traced:.3f} s); {len(recorder.spans)} spans in "
            f"{spans_file.relative_to(ROOT)}")
    return rows, note, plain, spans


def declared_metrics(trace: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(args, rows, tallies, note):
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print("closed loop, one client; " + note)
    for name, (value, unit, detail) in rows.items():
        print(f"  {name:38s} {value:>16.6g} {unit:14s} {detail}")
    problems = [p for t in tallies for p in t.problems]
    for label, found in problems[:10]:
        print(f"  failed: {label}: " + "; ".join(f"{kind}: {msg}" for kind, msg in found))
    if len(problems) > 10:
        print(f"  ... and {len(problems) - 10} more failed operations")
    result = {
        "correct": not any(t.wrong for t in tallies),
        "attempted": sum(len(t.latencies) for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": rows[name][0], "unit": rows[name][1]}
                    for name in declared_metrics(args.trace)},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload in FINOP_MAX_K:
        os.environ["FINOP_MAX_K"] = FINOP_MAX_K[args.workload]

    # one CPU for the operations, the reference kernel and the CLI's child
    # processes, so that the kernel runs at the speed the operations saw
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    load_finop()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, first = set_up(args, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        reference = Reference(args.workload)
        if args.trace:
            rows, note, *tallies = traced(args, workload, first, reference)
        else:
            tally = Tally()
            op_ids, recorder = itertools.count(), tracing.Recorder()
            cycles = run_cycles(workload, first, args.seconds,
                                lambda index, ops: run_ops(ops, recorder, tally, op_ids, reference),
                                MIN_OPS)
            rows, tallies = end_to_end(args, tally, cycles), [tally]
            note = f"{cycles} cycles of {len(first)} operations"
        report(args, rows, tallies, note)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
