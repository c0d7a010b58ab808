"""Command line surface.

Subcommands: detect, project, measure, tables, oracle, selftest.

Exit codes
    0  certified genuinely entangled (detect/measure/oracle: genuine)
    1  certified not genuinely entangled (oracle: not genuine)
    2  inconclusive
    3  usage or input error (bad file, zero state, unknown catalog key,
       more qubits than MAX_QUBITS, bad tolerance, any unexpected failure)
    4  verification failure (tables mismatch, oracle/detector
       contradiction, selftest failure)

Machine-readable reports (--json) are deterministic for fixed inputs,
flags and tolerance; wall time is only included when --timing is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .base import all_factorizations
from .catalog import CATALOG_KEYS, ghz, named_state, w_state
from .detect import (
    Certificate,
    _preorder,
    VerdictKind,
    detect,
    detect_with_trace,
    entanglement_measure,
    format_certificate,
)
from .oracle import find_product_cut, oracle_genuine, partial_trace, ppt_2qubit
from .projection import all_projections, lose_qubit, lose_qubit_set
from .proportional import DEFAULT_TOL, check_tolerance
from .states import (
    Bipartition,
    StateVector,
    basis_state,
    equal_up_to_scale,
    product_state,
    random_product_state,
    random_state,
)
from .stateio import dumps_state, load_state

EXIT_GENUINE = 0
EXIT_NOT_GENUINE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3
EXIT_MISMATCH = 4

_EXIT_BY_KIND = {
    VerdictKind.GENUINE: EXIT_GENUINE,
    VerdictKind.NOT_GENUINE: EXIT_NOT_GENUINE,
    VerdictKind.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 means 'inconclusive' here.

    A usage error is one stderr line, without argparse's usage block
    (``--help`` still prints the usage).
    """

    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _qubit_list(text: str) -> list[int]:
    try:
        ks = [int(tok) for tok in text.split(",")]
    except ValueError:
        ks = []
    if not ks:
        raise argparse.ArgumentTypeError(f"expected K[,K2,...] qubit numbers, got {text!r}")
    if len(set(ks)) != len(ks):
        raise argparse.ArgumentTypeError(f"a qubit is repeated in {text!r}")
    return ks


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_FLAGS = {
    "--tol": dict(
        type=_tolerance, default=DEFAULT_TOL, metavar="REL",
        help="relative tolerance for all proportionality/rank tests (default %(default)g)",
    ),
    "--json": dict(action="store_true", help="emit a machine-readable JSON report"),
    "--timing": dict(
        action="store_true",
        help="include wall time in the JSON report (breaks byte-for-byte determinism)",
    ),
}


def _flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Register the named report flags; each command takes only those it reads."""
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def _input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--file", metavar="PATH", help="state file (text or JSON format)")
    parser.add_argument(
        "--catalog", metavar="NAME",
        help=f"catalog state; one of {', '.join(CATALOG_KEYS)}",
    )
    parser.add_argument(
        "--n", type=int, metavar="N", help="qubit count for GHZ/W/DICKE(k)"
    )


def _load_input(args) -> tuple[StateVector, str]:
    if (args.file is None) == (args.catalog is None):
        raise ValueError("provide exactly one of --file or --catalog")
    if args.file is not None:
        if args.n is not None:
            raise ValueError("--n applies to --catalog states, not to --file")
        return load_state(args.file), f"file:{args.file}"
    state = named_state(args.catalog, args.n)
    return state, f"catalog:{args.catalog.strip().upper()}(n={state.num_qubits})"


def _partition_json(part: Bipartition | None):
    if part is None:
        return None
    return {"block_a": list(part.block_a), "block_b": list(part.block_b)}


def _certificate_json(cert: Certificate | None):
    if cert is None:
        return None
    nodes = [node for node, _, repeat in _preorder(cert) if not repeat]
    index = {id(node): i for i, node in enumerate(nodes)}
    return {
        "format": "dag",
        "nodes": [
            {
                "qubits": list(node.qubits),
                "rule": node.rule,
                "lost": list(node.lost) if node.lost else None,
                "children": [index[id(child)] for child in node.children],
            }
            for node in nodes
        ],
    }


def _emit(args, report: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in human_lines:
            print(line)


def _base_report(args, command: str, source: str, state: StateVector | None) -> dict:
    report = {
        "tool": "qubitloss",
        "version": __version__,
        "command": command,
        "input": source,
        "tolerance": args.tol,
    }
    if state is not None:
        report["num_qubits"] = state.num_qubits
    return report


def cmd_detect(args) -> int:
    state, source = _load_input(args)
    t0 = time.perf_counter()
    if args.exhaustive:
        trace = detect_with_trace(state, tol=args.tol)
        verdict, row = trace.verdict, list(trace.table)
    else:
        verdict = detect(state, tol=args.tol)
        row = None
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    report = _base_report(args, "detect", source, state)
    report["verdict"] = verdict.kind.value
    report["witness"] = _partition_json(verdict.witness and verdict.witness.partition)
    report["certificate"] = _certificate_json(verdict.certificate)
    report["projection_row"] = row
    if args.exhaustive and verdict.kind is VerdictKind.NOT_GENUINE:
        report["factorizations"] = [
            _partition_json(w.partition) for w in all_factorizations(state, tol=args.tol)
        ]
    if args.timing:
        report["wall_time_ms"] = elapsed_ms

    lines = [f"input:     {source}", f"verdict:   {verdict.kind.value}"]
    if verdict.witness is not None:
        lines.append(f"witness:   separable across {verdict.witness.partition}")
    if verdict.certificate is not None:
        lines.append("certificate:")
        lines.append(format_certificate(verdict.certificate, indent=1))
    if row is not None:
        lines.append("projections: " + ", ".join(
            f"lose {k + 1}: {entry}" for k, entry in enumerate(row)
        ))
    lines.append(f"time:      {elapsed_ms:.3f} ms")
    _emit(args, report, lines)
    return _EXIT_BY_KIND[verdict.kind]


def cmd_project(args) -> int:
    state, source = _load_input(args)
    if args.all:
        results = all_projections(state)
        if args.json:
            doc = {
                "tool": "qubitloss",
                "version": __version__,
                "command": "project",
                "input": source,
                "projections": [
                    {
                        "lost": r.lost_qubit,
                        "is_zero": r.is_zero,
                        "state": json.loads(dumps_state(r.state, "json")),
                    }
                    for r in results
                ],
            }
            print(json.dumps(doc, indent=2))
        else:
            blocks = []
            for r in results:
                blocks.append(f"lost: {r.lost_qubit}")
                blocks.append(dumps_state(r.state, "text").rstrip("\n"))
            print("\n".join(blocks))
        return 0
    if len(args.lose) == 1:
        out = lose_qubit(state, args.lose[0]).state
    else:
        out = lose_qubit_set(state, args.lose)
    sys.stdout.write(dumps_state(out, "json" if args.json else "text"))
    return 0


def cmd_measure(args) -> int:
    state, source = _load_input(args)
    t0 = time.perf_counter()
    report_m = entanglement_measure(state, tol=args.tol)
    verdict = report_m.verdict
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    report = _base_report(args, "measure", source, state)
    report["verdict"] = verdict.kind.value
    report["measure"] = {
        "per_qubit": [v.kind.value for v in report_m.per_qubit],
        "value": report_m.genuine_count,
        "exact": report_m.count_is_exact,
        "is_mes": report_m.is_mes,
    }
    if args.timing:
        report["wall_time_ms"] = elapsed_ms

    qualifier = "" if report_m.count_is_exact else " (certified lower bound)"
    lines = [
        f"input:     {source}",
        f"verdict:   {verdict.kind.value}",
        f"measure:   {report_m.genuine_count} of {state.num_qubits} projections"
        f" certified genuine{qualifier}",
        f"MES:       {'yes' if report_m.is_mes else 'no'}",
    ]
    for k, v in enumerate(report_m.per_qubit, start=1):
        lines.append(f"  lose {k}: {v.kind.value}")
    lines.append(f"time:      {elapsed_ms:.3f} ms")
    _emit(args, report, lines)
    return _EXIT_BY_KIND[verdict.kind]


# Expected classifications for the built-in survey tables.
_SURVEY_STATES = (
    ("|000>", lambda: basis_state("000"), ("product", "product", "product")),
    (
        "|0>|EPR>",
        lambda: product_state([((1,), basis_state("0")), ((2, 3), ghz(2))]),
        ("entangled", "product", "product"),
    ),
    ("GHZ(3)", lambda: ghz(3), ("entangled", "entangled", "entangled")),
    ("W(3)", lambda: w_state(3), ("entangled", "entangled", "entangled")),
)

_COMPARE_STATES = (
    # name, builder, reductions separable?, projections scale-equal to own 2q family?
    ("GHZ(3)", ghz, True, True),
    ("W(3)", w_state, False, False),
)


def cmd_tables(args) -> int:
    mismatches = []
    survey_rows = []
    for name, build, expected in _SURVEY_STATES:
        row = detect_with_trace(build(), tol=args.tol).table
        survey_rows.append((name, row))
        if row != expected:
            mismatches.append(f"survey {name}: got {row}, expected {expected}")

    compare_rows = []
    for name, family, want_separable, want_preserved in _COMPARE_STATES:
        state = family(3)
        keeps = ((1, 2), (1, 3), (2, 3))
        separable = [ppt_2qubit(partial_trace(state, keep), tol=args.tol) for keep in keeps]
        reference = family(2)
        entangled = [e == "entangled" for e in detect_with_trace(state, tol=args.tol).table]
        preserved = [
            equal_up_to_scale(p.state, reference, args.tol) for p in all_projections(state)
        ]
        compare_rows.append((name, separable, entangled, preserved))
        if any(s != want_separable for s in separable):
            mismatches.append(f"compare {name}: reductions {separable}")
        if not all(entangled):
            mismatches.append(f"compare {name}: projections {entangled}")
        if any(p != want_preserved for p in preserved):
            mismatches.append(f"compare {name}: shape preserved {preserved}")

    report = _base_report(args, "tables", "builtin", None)
    report["survey"] = [
        {"state": name, "row": list(row)} for name, row in survey_rows
    ]
    report["comparison"] = [
        {
            "state": name,
            "reductions_separable": sep,
            "projections_entangled": ent,
            "projection_scale_equal": pres,
        }
        for name, sep, ent, pres in compare_rows
    ]
    report["mismatches"] = mismatches

    lines = ["Projection survey (classification by lost qubit)"]
    lines.append(f"{'state':<10} {'lose 1':<12} {'lose 2':<12} {'lose 3':<12}")
    for name, row in survey_rows:
        lines.append(f"{name:<10} {row[0]:<12} {row[1]:<12} {row[2]:<12}")
    lines.append("")
    lines.append("Two-qubit reductions (partial trace + PPT) vs projections")
    lines.append(f"{'state':<10} {'reductions':<12} projections")
    for name, sep, ent, pres in compare_rows:
        red = "separable" if all(sep) else "entangled"
        proj = "entangled" if all(ent) else "mixed"
        shape = "same 2-qubit state" if all(pres) else "different 2-qubit state"
        lines.append(f"{name:<10} {red:<12} {proj}, {shape}")
    if mismatches:
        lines.append("")
        lines.extend(f"MISMATCH: {m}" for m in mismatches)
    _emit(args, report, lines)
    return EXIT_MISMATCH if mismatches else 0


def cmd_oracle(args) -> int:
    state, source = _load_input(args)
    t0 = time.perf_counter()
    cut = find_product_cut(state, tol=args.tol)
    genuine = cut is None
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    report = _base_report(args, "oracle", source, state)
    report["oracle"] = {
        "genuine": genuine,
        "product_cut": _partition_json(cut),
    }
    lines = [f"input:     {source}"]
    lines.append(
        "oracle:    genuinely entangled (all bipartition unfoldings have rank >= 2)"
        if genuine
        else f"oracle:    not genuinely entangled (rank 1 across {cut})"
    )

    contradiction = False
    if args.compare:
        verdict = detect(state, tol=args.tol)
        agrees = not (
            (verdict.kind is VerdictKind.GENUINE and not genuine)
            or (verdict.kind is VerdictKind.NOT_GENUINE and genuine)
        )
        contradiction = not agrees
        report["detector"] = {"verdict": verdict.kind.value, "agrees": agrees}
        lines.append(f"detector:  {verdict.kind.value}"
                     f" ({'consistent' if agrees else 'CONTRADICTION'})")
    if args.timing:
        report["wall_time_ms"] = elapsed_ms
    lines.append(f"time:      {elapsed_ms:.3f} ms")
    _emit(args, report, lines)
    if contradiction:
        return EXIT_MISMATCH
    return EXIT_GENUINE if genuine else EXIT_NOT_GENUINE


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = []
    for _ in range(args.trials):
        # Products never certify genuine, and the oracle agrees.
        n = int(rng.integers(3, 7))
        mask = int(rng.integers(1, (1 << n) - 1))
        block_a = tuple(q for q in range(1, n + 1) if mask >> (q - 1) & 1)
        block_b = tuple(q for q in range(1, n + 1) if q not in block_a)
        state = random_product_state(rng, [block_a, block_b])
        if detect(state, tol=args.tol).kind is VerdictKind.GENUINE:
            failures.append(f"product state on {block_a}|{block_b} certified genuine")
        if oracle_genuine(state, tol=args.tol):
            failures.append(f"oracle called product on {block_a}|{block_b} genuine")
        # Dense states: exact small-system tests agree with the oracle.
        m = int(rng.integers(2, 5))
        dense = random_state(rng, m)
        if detect(dense, tol=args.tol).kind is VerdictKind.GENUINE and not oracle_genuine(
            dense, tol=args.tol
        ):
            failures.append("detector and oracle disagree on a dense state")

    report = _base_report(args, "selftest", f"seed:{args.seed}", None)
    report["trials"] = args.trials
    report["failures"] = failures
    lines = [
        f"selftest:  {args.trials} trials, seed {args.seed}",
        f"result:    {'ok' if not failures else f'{len(failures)} failure(s)'}",
    ]
    lines.extend(f"  {f}" for f in failures)
    _emit(args, report, lines)
    return EXIT_MISMATCH if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qubitloss",
        description="Detect genuine multipartite entanglement of pure n-qubit "
        "states by recursive qubit-loss projection.",
    )
    parser.add_argument(
        "--version", action="version", version=f"qubitloss {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("detect", help="classify a state, emitting a certificate")
    _input_flags(p)
    _flags(p, "--tol", "--json", "--timing")
    p.add_argument(
        "--exhaustive", action="store_true",
        help="explore every projection and report the per-projection row",
    )
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("project", help="apply the qubit-loss projection")
    _input_flags(p)
    _flags(p, "--json")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--lose", type=_qubit_list, metavar="K[,K2,...]", help="qubit(s) to lose, 1-based"
    )
    which.add_argument("--all", action="store_true", help="print all n single-qubit projections")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("measure", help="count certified-genuine projections")
    _input_flags(p)
    _flags(p, "--tol", "--json", "--timing")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser(
        "tables", help="recompute the built-in survey/comparison tables and verify them"
    )
    _flags(p, "--tol", "--json")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("oracle", help="brute-force bipartition-rank ground truth")
    _input_flags(p)
    _flags(p, "--tol", "--json", "--timing")
    p.add_argument(
        "--compare", action="store_true", help="also run the detector and diff verdicts"
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("selftest", help="randomized soundness/agreement sweep")
    _flags(p, "--tol", "--json")
    p.add_argument(
        "--seed", type=_int_at_least(0, "a seed >= 0"), default=0, help="RNG seed (default 0)"
    )
    p.add_argument(
        "--trials", type=_int_at_least(1, "a positive trial count"), default=200,
        help="number of trials (default 200)",
    )
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 3
        return int(exc.code or 0)
    try:
        # An overflowing projection raises ValueError below; numpy's own
        # overflow warning would add lines to the one-line error.
        with np.errstate(over="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"qubitloss: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # exits 0-2 claim a verdict; never let a crash claim one
        message = " ".join(str(exc).split())
        print(f"qubitloss: error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
