"""Workload child: one closed-loop client classifying one state at a time.

Run by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` set to the
checkout's ``src``::

    python3 perfbench/loop.py --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR

It prints one JSON document of raw samples on its last stdout line.  Only
the package calls are timed; generating an input, writing its file and
checking the output happen between timed calls.  Operations are timed in
CPU time (user plus system) of the process doing the work: this process,
or the CLI process for ``cli-files``.  On a shared virtual machine, wall
time also holds the time the host gives the CPU to others (steal), which
changed by up to 2x from minute to minute and which no change to the
package can move.  With ``--trace 0`` the loop also times a fixed unit
of work between operations (pace.py; for ``cli-files`` a fresh
interpreter), so that run.py can put the times at one machine speed.

With ``--trace 1`` every item runs twice, once untraced and once with the
span wrappers installed, so the two sides give the tracing overhead on
identical inputs.
"""

from __future__ import annotations

import time

# Timed first, before numpy is loaded by anything else, so that this is the
# import a fresh process pays.
_T0 = time.perf_counter_ns()
import qubitloss  # noqa: E402

IMPORT_NS = time.perf_counter_ns() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 60
MAX_FAILURE_NOTES = 5


def checked_package():
    """The imported qubitloss, refusing any copy other than this checkout's ``src``."""
    where = Path(qubitloss.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"qubitloss resolves to {where}, not under {SRC}")
    return qubitloss


def well_formed(cert, n: int) -> bool:
    """Root covers 1..n, each child covers its parent minus the lost qubit,
    and the leaves are exact tests on 2-4 qubits.

    Subtrees are shared between parents (the detector memoizes by subset),
    so each node is checked once; a tree walk would visit 2^(n-4) leaves.
    """
    checked: dict[int, bool] = {}

    def ok(node, labels: tuple[int, ...]) -> bool:
        if tuple(node.qubits) != labels:
            return False
        if id(node) not in checked:
            if node.rule == "exact":
                good = 2 <= len(labels) <= 4 and not node.children
            elif node.rule == "two-projections" and node.lost and len(node.children) == 2:
                l1, l2 = node.lost
                good = l1 != l2 and all(
                    lost in labels and ok(child, tuple(q for q in labels if q != lost))
                    for lost, child in zip(node.lost, node.children)
                )
            else:
                good = False
            checked[id(node)] = good
        return checked[id(node)]

    return cert is not None and ok(cert, tuple(range(1, n + 1)))


# --- in-process workloads: call() is timed, check() is not -------------------


def call_dense_certify(q, state):
    verdict = q.detect(state)
    if verdict.certificate is None:
        return verdict, False
    return verdict, q.replay_certificate(state, verdict.certificate)


def check_dense_certify(it: gen.Item, out) -> str | None:
    verdict, replayed = out
    if verdict.kind != "genuine":
        return f"verdict {verdict.kind.value}"
    if replayed is not True:
        return "replay_certificate returned False"
    return None


def call_detect(q, state):
    return q.detect(state)


def check_product_lattice(it: gen.Item, verdict) -> str | None:
    return "certified genuine" if verdict.kind == "genuine" else None


def check_wide_genuine(it: gen.Item, verdict) -> str | None:
    if verdict.kind != "genuine":
        return f"verdict {verdict.kind.value}"
    if not well_formed(verdict.certificate, it.n):
        return "malformed certificate tree"
    return None


IN_PROCESS = {
    "dense-certify": (call_dense_certify, check_dense_certify),
    "product-lattice": (call_detect, check_product_lattice),
    "wide-genuine": (call_detect, check_wide_genuine),
}


def run_in_process(q, workload: str, it: gen.Item) -> tuple[bool, float, str | None]:
    """One timed operation; an exception in the package is a failure, not an abort."""
    call, check = IN_PROCESS[workload]
    state = q.StateVector(it.n, it.amps)
    t0 = time.process_time()
    try:
        out = call(q, state)
    except Exception:
        elapsed = time.process_time() - t0
        return False, elapsed, traceback.format_exc(limit=1).strip().splitlines()[-1]
    elapsed = time.process_time() - t0
    try:
        problem = check(it, out)
    except Exception:
        problem = "check raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]
    return problem is None, elapsed, problem


# --- cli-files: one process per state file ----------------------------------

EXPECTED_CLI = {"dense": (0, "genuine"), "product": (2, "inconclusive")}


def write_state(q, it: gen.Item, path: Path) -> int:
    """Write the item in its file format; return the document size in bytes."""
    return path.write_bytes(q.dumps_state(q.StateVector(it.n, it.amps), it.fmt).encode())


def run_cli(argv_prefix: list[str], it: gen.Item, path: Path) -> tuple[bool, float, str | None]:
    """One timed CLI process: exit code, JSON verdict and empty stderr are checked."""
    cmd = argv_prefix + ["detect", "--file", str(path), "--json"]
    before = pace.children_cpu_s()
    try:
        # The environment is inherited, PYTHONPATH pointing at this checkout's src included.
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, pace.children_cpu_s() - before, f"timed out after {CLI_TIMEOUT_S} s"
    elapsed = pace.children_cpu_s() - before
    code, verdict = EXPECTED_CLI[it.kind]
    try:
        got = json.loads(proc.stdout).get("verdict")
    except (ValueError, AttributeError):
        got = None
    if proc.returncode != code or got != verdict or proc.stderr:
        return False, elapsed, f"exit {proc.returncode}, verdict {got}, stderr {proc.stderr[-200:]!r}"
    return True, elapsed, None


# --- the loop ----------------------------------------------------------------


class Run:
    """Samples, input shape and failure notes of one loop."""

    def __init__(self) -> None:
        self.samples: list[tuple[bool, float]] = []
        self.starts: list[float] = []
        self.n_hist: Counter = Counter()
        self.kinds: Counter = Counter()
        self.formats: Counter = Counter()
        self.notes: list[str] = []
        self.digest = gen.InputDigest()

    def record(self, it: gen.Item, start: float, ok: bool, seconds: float, problem: str | None) -> None:
        self.samples.append((ok, seconds))
        self.starts.append(start)
        self.n_hist[it.n] += 1
        self.kinds[it.kind] += 1
        if it.fmt:
            self.formats[it.fmt] += 1
        self.digest.add(it)
        if problem and len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"item {it.index} ({it.kind}, n={it.n}): {problem}")

    def shape(self) -> dict:
        return {
            "items": len(self.samples),
            "n_histogram": {str(k): v for k, v in sorted(self.n_hist.items())},
            "kinds": dict(sorted(self.kinds.items())),
            "formats": dict(sorted(self.formats.items())),
            "digest_items": self.digest.items,
            "inputs_sha256": self.digest.hexdigest(),
        }


def loop(ops, workload: str, seed: int, seconds: float, clock: pace.Pace | None = None) -> list[Run]:
    """Closed loop over items 0, 1, ... until ``seconds`` of wall time pass
    (at least one item).  Each item goes through every op in ``ops``; the
    order alternates from item to item, so that with an untraced and a
    traced op neither always runs first.  ``clock`` ticks between items."""
    runs = [Run() for _ in ops]
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        it = gen.item(workload, seed, index)
        order = list(range(len(ops)))
        if index % 2:
            order.reverse()
        for k in order:
            runs[k].record(it, time.perf_counter(), *ops[k](it))
        if clock:
            clock.tick()
        index += 1
    return runs


def cli_op(q, tmp: Path, argv_prefix: list[str], sizes: list[int] | None = None):
    def op(it: gen.Item):
        path = tmp / f"state-{it.index}.{'json' if it.fmt == 'json' else 'txt'}"
        size = write_state(q, it, path)
        if sizes is not None:
            sizes.append(size)
        try:
            return run_cli(argv_prefix, it, path)
        finally:
            path.unlink()

    return op


def warm_up(q, workload: str, tmp: Path) -> None:
    """Fill lazy tables and the page cache; not counted."""
    rng = np.random.default_rng(0)
    amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    it = gen.Item(-1, 6, "dense", amps, "text")
    if workload == "cli-files":
        cli_op(q, tmp, [sys.executable, "-m", "qubitloss.cli"])(it)
    else:
        run_in_process(q, workload, it)


class LayerTotals:
    """Span and count totals over the traced operations."""

    def __init__(self) -> None:
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.tally: Counter = Counter()
        self.import_ns = 0
        self.absent: set[str] = set()
        self.doc_sizes: list[int] = []

    def add_spans(self, span_list: list[spans.Span]) -> None:
        self_ns, total_ns, calls = spans.layer_times(span_list)
        self.merge({"self_ns": self_ns, "total_ns": total_ns, "calls": calls})

    def merge(self, doc: dict) -> None:
        """Add totals written by another process (or computed here)."""
        for key in ("self_ns", "total_ns", "calls", "tally"):
            getattr(self, key).update(doc.get(key, {}))
        self.import_ns += doc.get("import_ns", 0)
        self.absent.update(doc.get("absent", ()))

    def as_dict(self) -> dict:
        return {
            "self_ns": self.self_ns, "total_ns": self.total_ns, "calls": self.calls,
            "tally": self.tally, "import_ns": self.import_ns, "absent": sorted(self.absent),
        }


def traced_in_process_op(q, workload: str, totals: LayerTotals):
    tracer = spans.Tracer(tally=totals.tally)

    def op(it: gen.Item):
        with spans.hooked(tracer, spans.PACKAGE_HOOKS) as absent:
            result = run_in_process(q, workload, it)
        totals.absent.update(absent)
        totals.add_spans(tracer.drain())
        return result

    return op


def traced_cli_op(q, tmp: Path, totals: LayerTotals):
    """The CLI op through cli_trace.py, which writes its layer totals to a file."""
    trace_file = tmp / "trace.json"
    plain = cli_op(q, tmp, [sys.executable, str(HERE / "cli_trace.py"), str(trace_file)], totals.doc_sizes)

    def op(it: gen.Item):
        result = plain(it)
        if trace_file.exists():
            totals.merge(json.loads(trace_file.read_text()))
            trace_file.unlink()
        return result

    return op


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args()

    q = checked_package()
    wl, seed = args.workload, args.seed
    cli = wl == "cli-files"
    warm_up(q, wl, args.tmp)
    doc = {"qubitloss_file": q.__file__, "numpy": np.__version__}
    if cli:
        plain = cli_op(q, args.tmp, [sys.executable, "-m", "qubitloss.cli"])
    else:
        plain = lambda it: run_in_process(q, wl, it)  # noqa: E731

    if args.trace == 0:
        clock = pace.Pace(spawn=cli)
        clock.tick()
        (run,) = loop([plain], wl, seed, args.seconds, clock)
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        doc.update(
            samples=run.samples,
            starts=run.starts,
            marks=clock.marks,
            pace_nominal_s=clock.nominal,
            shape=run.shape(),
            notes=run.notes,
            peak_rss_kb=resource.getrusage(who).ru_maxrss,
        )
        print(json.dumps(doc))
        return 0

    totals = LayerTotals()
    if cli:
        traced_op = traced_cli_op(q, args.tmp, totals)
    else:
        traced_op = traced_in_process_op(q, wl, totals)
        totals.import_ns = IMPORT_NS
    untraced, traced = loop([plain, traced_op], wl, seed, args.seconds)
    ops = len(traced.samples)
    doc.update(
        samples=untraced.samples + traced.samples,
        shape=traced.shape(),
        notes=traced.notes,
        traced_ops=ops,
        traced_busy_s=sum(t for _, t in traced.samples),
        untraced_busy_s=sum(t for _, t in untraced.samples),
        doc_bytes=sum(totals.doc_sizes),
        # cli_trace.py imports once per operation, this child once per run.
        import_ops=ops if cli else 1,
        totals=totals.as_dict(),
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
