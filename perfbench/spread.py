"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

Runs the benchmark once per seed and reports, for each metric, the median
and the distance between the first and third quartile of the values
(``statistics.quantiles(values, n=4)``) as a share of the median:

    python3 perfbench/spread.py --workload a9-build --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    failed_runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            # A failed check still prints its metrics; keep them, report the run.
            print(proc.stderr, file=sys.stderr)
            failed_runs.append({"seed": seed, "exit": proc.returncode})
            if not proc.stdout.strip():
                continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    summary = {}
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": vals}
        note = f"  bound {bounds[name]}" if name in bounds else ""
        print(f"{name:40s} median {q2:12.6g}  spread {spread:7.4f}{note}")
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "failed_runs": failed_runs, "summary": summary}))
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
