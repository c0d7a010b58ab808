"""Run every workload and print all metrics, with their spread over seeds.

    python3 perfbench/report.py [--seeds 1,2,3]

For every workload in BENCHMARK.json, one ``run.py --trace 0`` per seed
prints the end-to-end metrics after the output checks, then one
``run.py --trace 1`` on the first seed prints the per-layer metrics.  Every
run lasts the benchmark's ``run_seconds``.  With several seeds it ends with, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) as a share
of the median, as ``statistics.quantiles(values, n=4)`` gives them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    sys.stdout.write(f"== {workload} seed {seed} trace {trace}: exit {proc.returncode}\n")
    sys.stdout.write(proc.stdout + proc.stderr)
    sys.stdout.flush()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = []
    for wl in (w["name"] for w in BENCHMARK["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            for name, m in run(wl, seed, 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        run(wl, seeds[0], 1)
        if len(seeds) > 1:
            for name, vs in values.items():
                q1, _, q3 = statistics.quantiles(vs, n=4)
                med = statistics.median(vs)
                share = (q3 - q1) / med
                summary.append(
                    f"{wl:16s} {name:16s} median {med:12.4f}  spread {share:7.4f}  "
                    f"bound {bounds[name]:.2f}  {'ok' if share < bounds[name] / 3 else 'WIDE'}"
                )
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
