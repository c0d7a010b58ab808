"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's ``src`` (it need not be installed).  With ``--trace 0`` the run
times ``SETUP_STARTS`` fresh interpreters for ``setup_s`` and then one
workload child for ``--seconds``; with ``--trace 1`` the child runs every
item once untraced and once traced, for the per-layer metrics and the
tracing overhead.  Operations and set-up are timed in CPU time of the
process doing the work (see loop.py for why), and the end-to-end times are
put at one machine speed with pace.py; the times as measured are printed
beside them.  Human-readable lines come first: the run's context (commit,
package digest, versions, CPUs, load average before and after, input
digest and shape), the output checks with ``error_rate``, then the
metrics.  The last stdout line is the JSON result.  Exits 2
without a result when the run cannot be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pace
from accounting import summarize
from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 9
RUN_LIMIT_S = 175

END_TO_END = {
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "projection.calls": "count",
    "projection.self_ms": "ms",
    "projection.mb_computed": "MB",
    "projection.zero_share": "share",
    "base.calls": "count",
    "base.self_ms": "ms",
    "base.genuine_share": "share",
    "proportional.calls": "count",
    "proportional.self_ms": "ms",
    "detect.self_ms": "ms",
    "detect.replay_self_ms": "ms",
    "stateio.self_ms": "ms",
    "stateio.mb": "MB",
    "cli.import_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_share": "share",
}
# Layer of each self-time metric, for the split and the purpose checks.
SELF_TIMES = {
    "projection": "projection.self_ms",
    "base": "base.self_ms",
    "proportional": "proportional.self_ms",
    "detect": "detect.self_ms",
    "detect.replay": "detect.replay_self_ms",
    "stateio": "stateio.self_ms",
    "cli": "cli.self_ms",
}


class RunError(Exception):
    pass


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def commit() -> str | None:
    """HEAD when the checkout is a git work tree of its own, else None."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 of the package sources, naming the code measured without git."""
    sha = hashlib.sha256()
    for path in sorted((SRC / "qubitloss").rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def under_src(path: str) -> bool:
    return SRC.resolve() in Path(path).resolve().parents


def run_child(cmd: list[str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a child")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{Path(cmd[1]).name} did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"{Path(cmd[1]).name} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{Path(cmd[1]).name} printed nothing")
    return lines[-1]


def setup_times(workload: str, tmp: Path, deadline: float) -> tuple[list[float], list[float]]:
    """Set-up times of ``SETUP_STARTS`` fresh interpreters, and timings of
    pace.py's process unit, one after each."""
    times, units = [], []
    for _ in range(SETUP_STARTS):
        doc = json.loads(
            run_child([sys.executable, str(HERE / "probe.py"), workload, str(tmp / "warm.txt")], deadline)
        )
        if doc["verdict"] != "genuine" or not under_src(doc["file"]):
            raise RunError(f"set-up probe: verdict {doc['verdict']} from {doc['file']}")
        times.append(doc["setup_s"])
        units.append(pace.time_spawn())
    return times, units


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer values, per traced operation unless a share."""
    t = raw["totals"]
    ops = raw["traced_ops"]
    calls = t["calls"]
    tally = t["tally"]
    proj, leaves = calls.get("projection", 0), calls.get("base", 0)
    m = {name: t["self_ns"].get(layer, 0) / 1e6 / ops for layer, name in SELF_TIMES.items()}
    m.update({
        "projection.calls": proj / ops,
        "projection.mb_computed": tally.get("projection.bytes", 0) / 1e6 / ops,
        "projection.zero_share": tally.get("projection.zero", 0) / proj if proj else 0.0,
        "base.calls": leaves / ops,
        "base.genuine_share": tally.get("base.genuine", 0) / leaves if leaves else 0.0,
        "proportional.calls": calls.get("proportional", 0) / leaves if leaves else 0.0,
        "stateio.mb": raw["doc_bytes"] / 1e6 / ops,
        "cli.import_ms": t["import_ns"] / 1e6 / raw["import_ops"],
        "trace.overhead_share": raw["traced_busy_s"] / raw["untraced_busy_s"] - 1.0,
    })
    return {name: m[name] for name in PER_LAYER}


def purpose_lines(workload: str, m: dict, raw: dict) -> list[str]:
    """The traced split, and whether it bears out why the workload exists."""
    self_ms = {layer: m[name] for layer, name in SELF_TIMES.items()}
    traced = sum(self_ms.values())
    lines = ["split of traced self time: " + ", ".join(
        f"{layer} {v / traced:.1%}" for layer, v in sorted(self_ms.items(), key=lambda kv: -kv[1])
    )] if traced > 0 else []
    largest = max(self_ms, key=self_ms.get)
    if workload == "dense-certify":
        leaf = (self_ms["base"] + self_ms["proportional"]) / traced
        lines.append(
            f"purpose: the exact leaf (base + proportional) holds {leaf:.1%} of traced time; "
            f"largest layer {largest}; base.self_ms alone is the largest: {largest == 'base'}"
        )
    elif workload == "wide-genuine":
        lines.append(
            f"purpose: projection.self_ms is the largest layer: {largest == 'projection'} (largest {largest})"
        )
    elif workload == "cli-files":
        detect_ms = raw["totals"]["total_ns"].get("detect", 0) / 1e6 / raw["traced_ops"]
        io_ms = m["stateio.self_ms"] + m["cli.import_ms"]
        lines.append(
            f"purpose: stateio.self_ms + cli.import_ms = {io_ms:.3f} ms > detection "
            f"{detect_ms:.3f} ms: {io_ms > detect_ms}"
        )
    else:
        lines.append(f"purpose: lattice bookkeeping (detect.self_ms) share {m['detect.self_ms'] / traced:.1%}")
    return lines


def measure(args) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "qubitloss" / "__init__.py").is_file():
        raise RunError(f"no package source at {SRC / 'qubitloss'}")
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit(), "src_sha256": src_digest(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": loadavg(),
    }
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        setup, setup_units = setup_times(args.workload, tmp, deadline) if args.trace == 0 else ([], [])
        raw = json.loads(run_child([
            sys.executable, str(HERE / "loop.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--tmp", str(tmp),
        ], deadline))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    if not under_src(raw["qubitloss_file"]):
        raise RunError(f"workload child measured {raw['qubitloss_file']}")
    context.update(numpy=raw["numpy"], loadavg_after=loadavg(), inputs=raw["shape"])

    s = summarize(raw["samples"])
    lines = [f"context {json.dumps(context)}"]
    lines.append(
        f"checks: {s['attempted'] - s['failed']}/{s['attempted']} correct, "
        f"error_rate {s['error_rate']:.4f} ({s['failed']} failed of {s['attempted']} attempted)"
    )
    lines += [f"failure: {note}" for note in raw["notes"]]
    if args.trace == 0:
        scaled = pace.at_pace([t for _, t in raw["samples"]], raw["starts"], raw["marks"], raw["pace_nominal_s"])
        p = summarize([(ok, t) for (ok, _), t in zip(raw["samples"], scaled)])
        values = {
            "verdicts_per_s": p["verdicts_per_s"],
            "latency_p50_ms": p["latency_p50_ms"],
            "latency_p90_ms": p["latency_p90_ms"],
            "setup_s": statistics.median(setup) * pace.factor(setup_units, pace.SPAWN_NOMINAL_S),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        }
        units = END_TO_END
        units_s = [u for _, u in raw["marks"]]
        lines.append(
            f"samples: {s['attempted']} operations, {s['beyond_p90']} beyond p90; "
            f"setup_s is the median of {len(setup)} cold starts"
        )
        lines.append(
            f"pace: {len(units_s)} unit timings, median {statistics.median(units_s) * 1e3:.3f} ms "
            f"(nominal {raw['pace_nominal_s'] * 1e3:g} ms); set-up process unit median "
            f"{statistics.median(setup_units) * 1e3:.3f} ms (nominal {pace.SPAWN_NOMINAL_S * 1e3:g} ms); "
            f"as measured: verdicts_per_s {s['verdicts_per_s']:.4f}, "
            f"latency_p50_ms {s['latency_p50_ms']:.4f}, latency_p90_ms {s['latency_p90_ms']:.4f}, "
            f"setup_s {statistics.median(setup):.4f} of {[round(x, 4) for x in setup]}"
        )
    else:
        values = layer_metrics(raw)
        units = PER_LAYER
        lines.append(f"traced {raw['traced_ops']} operations, each paired with an untraced run of its item")
        if raw["totals"]["absent"]:
            lines.append(f"absent layers (hook not found, reported as 0): {', '.join(raw['totals']['absent'])}")
        lines += purpose_lines(args.workload, values, raw)
    lines += [f"{name:24s} {values[name]:14.6f} {unit}" for name, unit in units.items()]
    result = {
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, lines = measure(args)
    except (RunError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
