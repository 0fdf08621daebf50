"""lramimo benchmark: SER sweeps and equivalence certification, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload a9-build --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

With ``--trace 0`` the program runs untraced and the result line carries
the end-to-end metrics; with ``--trace 1`` each repetition also runs under
the span tracer and the result line carries the per-layer metrics.  The
last line of standard output is the JSON result; the lines before it give
the same numbers by name for a reader, plus the run record (machine facts,
output digest, tail percentiles).  The exit code is nonzero when an output
check fails or the package cannot be imported from ``src/``.
"""

import os

# Pin BLAS threads before numpy loads, so workers=nproc does not
# oversubscribe the cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import Calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_RUNS = 9
MIN_REPS = 3
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]].config(int(sys.argv[4]), 0)"
)
# VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the parent
# through fork and exec, so it would report the benchmark's own peak.
RSS_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "w = workloads.WORKLOADS[sys.argv[3]]; w.run(w.config(int(sys.argv[4]), 0, tiny=sys.argv[5] == '1')); "
    "print([l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')][0])"
)


def import_program():
    """Import lramimo from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import lramimo

    found = Path(lramimo.__file__).resolve().parent.parent
    if found != SRC:
        raise ImportError(f"lramimo was found at {found}, not under {SRC}")
    return lramimo


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "git_rev": git_rev(),
        "loadavg_at_start": list(os.getloadavg()),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_rev() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_once(workload, seed):
    """Wall time of one fresh interpreter importing lramimo and building the config."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), workload.name, str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def peak_rss_mb(run):
    """Peak resident memory of a fresh interpreter that runs repetition 0.

    A process of its own keeps the calibration kernel's arrays and the
    benchmark's bookkeeping out of the figure.
    """
    cmd = [sys.executable, "-c", RSS_CODE, str(SRC), str(BENCH_DIR), run.workload.name,
           str(run.seed), str(int(run.tiny))]
    out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True).stdout
    return int(out.split()[-1]) / 1024.0


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Run:
    """State of one benchmark run: repetitions, tallies and failures."""

    def __init__(self, workload, seed, tiny=False):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.rates = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None
        self.items = "frames" if workload.is_sweep else "instances"
        self.raw = {}
        self.calibration = {}

    def config(self, rep):
        return self.workload.config(self.seed, rep, tiny=self.tiny)

    def account(self, rep, config, outcome, seconds):
        """Check one repetition's output and book its counts and rate."""
        w = self.workload
        self.problems += w.check(config, outcome)
        attempted, failed = w.tally(config, outcome)
        self.attempted += attempted
        self.failed += failed
        self.rates.append(w.units(config) / seconds)
        if rep == 0:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"{w.name}-seed{self.seed}.csv"
            self.digest = w.digest(outcome, path)

    def compare_workers(self, config, serial, workers):
        """Run ``config`` on ``workers`` processes; counts must match the serial run."""
        from workloads import counts

        parallel, seconds = timed(self.workload.run, config, workers=workers)
        if counts(parallel) != counts(serial):
            self.problems.append(f"counts at workers={workers} differ from workers=1")
        return seconds

    def warm_up(self):
        """One tiny repetition so lazy imports and first-call costs are not timed."""
        self.workload.run(self.workload.config(self.seed, 0, tiny=True))


def measure_plain(run, seconds):
    """Untraced repetitions for ``seconds``; returns the end-to-end metrics.

    The set-up interpreters are spread evenly over the run, like the
    repetitions, so a short slow spell of the machine does not decide
    ``setup_s``.  Each time is scaled to the nominal machine speed by the
    calibration kernel timed next to it: a repetition by the mean slowdown
    of the samples just before and just after it, a set-up launch by the
    sample just before it.  The raw figures go to the record.
    """
    w = run.workload
    calibration = Calibration()
    setups = []
    scaled_setups = []
    brackets = []

    def set_up():
        slowdown = calibration.sample()
        setups.append(setup_once(w, run.seed))
        scaled_setups.append(setups[-1] / slowdown)

    run.warm_up()
    start = time.perf_counter()
    rep = 0
    first = None
    before = calibration.mark()
    while rep < MIN_REPS or time.perf_counter() - start < seconds:
        if len(setups) * seconds < SETUP_RUNS * (time.perf_counter() - start):
            set_up()
            before = calibration.mark()
        config = run.config(rep)
        outcome, dt = timed(w.run, config)
        run.account(rep, config, outcome, dt)
        after = calibration.mark()
        brackets.append((before, after))
        before = after
        if rep == 0:
            first = (config, outcome)
        rep += 1
    while len(setups) < SETUP_RUNS:
        set_up()
    if w.name == "a9-build":
        run.compare_workers(*first, workers=max(2, nproc()))
    run.raw = {
        "slowdown": calibration.median_slowdown(),
        "setup_s": statistics.median(setups),
        f"{run.items}_per_s": statistics.median(run.rates),
    }
    scaled_rates = [rate * calibration.slowdown_between(*b) for rate, b in zip(run.rates, brackets)]
    run.calibration = {"samples": calibration.samples, "brackets": brackets}
    return {
        "setup_s": statistics.median(scaled_setups),
        "items_per_s": statistics.median(scaled_rates),
        "peak_rss_mb": peak_rss_mb(run),
    }


def measure_traced(run, seconds, tracer):
    """Each repetition runs untraced, then traced on the same input.

    On a9-build it also runs on max(2, nproc) workers.  Returns the extra
    metrics measured around the traced runs.
    """
    from workloads import counts

    w = run.workload
    run.warm_up()
    overhead = []
    speedup = []
    nproc_rates = []
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - start < seconds:
        config = run.config(rep)
        plain, dt_plain = timed(w.run, config)
        run.account(rep, config, plain, dt_plain)
        tracer.install()
        try:
            traced, dt_traced = timed(w.run, config)
        finally:
            tracer.uninstall()
        overhead.append(dt_traced / dt_plain)
        if w.is_sweep and counts(traced) != counts(plain):
            run.problems.append("tracing changed the sweep's counts")
        if w.name == "a9-build":
            dt_n = run.compare_workers(config, plain, workers=max(2, nproc()))
            speedup.append(dt_plain / dt_n)
            nproc_rates.append(w.units(config) / dt_n)
        rep += 1
    tracer.install()
    try:
        tracer.run_probe()
    finally:
        tracer.uninstall()

    def med(values):
        return statistics.median(values) if values else 0.0

    return {
        "trace.overhead_ratio": med(overhead),
        "sim.nproc_speedup": med(speedup),
        "sim.frames_per_s_nproc": med(nproc_rates),
    }


def execute(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (record, result, tracer or None)."""
    import metrics
    import spans

    facts = machine_facts()
    run = Run(workload, seed, tiny=tiny)
    tracer = None
    tails = {}
    shares = {}
    if trace:
        tracer = spans.Tracer()
        extra = measure_traced(run, seconds, tracer)
        values, tails = metrics.layer_metrics(tracer, extra)
        units = metrics.PER_LAYER
        shares = metrics.busy_shares(tracer)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
        span_file.write_text(json.dumps(tracer.dump()))
    else:
        values = measure_plain(run, seconds)
        units = metrics.END_TO_END
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "machine": facts,
        "repetitions": len(run.rates),
        "rates_per_s": run.rates,
        "items": run.items,
        "items_per_repetition": workload.units(run.config(0)),
        "digest_sha256": run.digest,
        "fail_ratio": run.failed / run.attempted,
        "problems": run.problems,
        "tails": tails,
        "shares": shares,
    }
    if not trace:
        record[f"{run.items}_per_s_at_nominal_speed"] = values["items_per_s"]
        record["raw"] = run.raw
        record["calibration"] = run.calibration
    return record, result, tracer


def report(record, result):
    """Human-readable lines: every metric by name with its unit."""
    item = f"{record['items']}_per_s_at_nominal_speed"
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"repetitions={record['repetitions']} digest={record['digest_sha256']}")
    for name, m in result["metrics"].items():
        label = item if name == "items_per_s" else name
        tail = record["tails"].get(name)
        note = f"  ({tail['percentile']} of {tail['samples']} samples)" if tail else ""
        print(f"{label:56s} {m['value']:16.6g} {m['unit']}{note}")
    for name, value in record.get("raw", {}).items():
        print(f"{'raw.' + name:56s} {value:16.6g}")
    print(f"{'fail_ratio':56s} {record['fail_ratio']:16.6g} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)


def self_check():
    """Tiny run of every workload, traced and untraced; asserts the output contract.

    Every metric of BENCHMARK.json is printed with its unit, every span's
    self time is >= 0 and every child span lies inside its parent.
    """
    import metrics
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    listed = [w["name"] for w in spec["workloads"]]
    if listed != [name for name in workloads.WORKLOADS if name not in workloads.UNLISTED]:
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS less workloads.UNLISTED")
    if declared[0] != metrics.END_TO_END or declared[1] != metrics.PER_LAYER:
        failures.append("BENCHMARK.json metrics differ from the metric catalogue")
    for workload in workloads.WORKLOADS.values():
        for trace in (0, 1):
            record, result, tracer = execute(workload, 1, 0.0, trace, tiny=True)
            where = f"{workload.name} trace={trace}"
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            if printed != declared[trace]:
                failures.append(f"{where}: printed metrics differ from BENCHMARK.json")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                failures.append(f"{where}: a metric value is not a number")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{where}: output checks failed: {record['problems']}")
            if tracer is not None:
                if min(tracer.self_times(), default=0.0) < 0.0:
                    failures.append(f"{where}: a span has negative self time")
                if tracer.nesting_violations():
                    failures.append(f"{where}: a child span lies outside its parent")
                if workload.is_sweep and not any(s[0] == "sim.trial" for s in tracer.spans):
                    failures.append(f"{where}: no trial spans were recorded")
    for failure in failures:
        print(f"SELF-CHECK FAILED: {failure}", file=sys.stderr)
    print("self-check:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="a9-build")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run a tiny configuration of every workload and check the output contract")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        import_program()
        import workloads
    except ImportError as exc:
        print(f"cannot import lramimo from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    record, result, _ = execute(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    report(record, result)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1)
    )
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
