"""Command line surface.

Subcommands: detect, project, measure, tables, oracle, selftest.  Each is
declared once, in ``_COMMANDS``, with the flags it reads (their specs are
in ``_FLAGS``); ``build_parser`` is one loop over that table.

Exit codes
    0  certified genuinely entangled (detect/measure/oracle: genuine)
    1  certified not genuinely entangled (oracle: not genuine)
    2  inconclusive
    3  usage or input error (bad file, zero state, unknown catalog key,
       more qubits than MAX_QUBITS, bad tolerance, a report that could
       not be written, any unexpected failure)
    4  verification failure (tables mismatch, oracle/detector
       contradiction, selftest failure)

Machine-readable reports (--json) are deterministic for fixed inputs,
flags and tolerance; wall time is only included when --timing is given.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from . import __version__
from .base import all_factorizations, equal_up_to_scale
from .catalog import CATALOG_KEYS, ghz, named_state, w_state
from .detect import (
    VerdictKind,
    _certificate_json,
    detect,
    detect_with_trace,
    entanglement_measure,
    format_certificate,
)
from .oracle import find_product_cut, oracle_genuine, partial_trace, ppt_2qubit
from .states import (
    DEFAULT_TOL,
    Bipartition,
    StateVector,
    all_projections,
    basis_state,
    check_tolerance,
    int_text,
    lose_qubit,
    lose_qubit_set,
    product_state,
    random_product_state,
    random_state,
)
from .stateio import dumps_state, load_state, state_document

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
    try:  # float() would read "١" as 1.0, "1_0" as 10.0 and " 1e-3" as 1e-3
        if not text.isascii() or "_" in text or text != text.strip():
            raise ValueError(f"a tolerance must be ASCII with no underscore or space, got {text!r}")
        return check_tolerance(float(text)) + 0.0  # -0 reads as 0.0, so reports agree
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _qubit_list(text: str) -> list[int]:
    try:
        ks = [int_text(tok) for tok in text.split(",")]
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
            value = int_text(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


# Every flag's argparse spec; ``_COMMANDS`` gives each subcommand the ones it reads.
_FLAGS = {
    "--file": dict(metavar="PATH", help="state file (text or JSON format)"),
    "--catalog": dict(metavar="NAME", help=f"catalog state; one of {', '.join(CATALOG_KEYS)}"),
    "--n": dict(type=_int_at_least(1, "a qubit count >= 1"), metavar="N",
                help="qubit count for GHZ/W/DICKE(k)"),
    "--tol": dict(
        type=_tolerance, default=DEFAULT_TOL, metavar="REL",
        help="relative tolerance for all proportionality/rank tests (default %(default)g)",
    ),
    "--json": dict(action="store_true", help="emit a machine-readable JSON report"),
    "--timing": dict(
        action="store_true",
        help="include wall time in the JSON report (breaks byte-for-byte determinism)",
    ),
    "--exhaustive": dict(
        action="store_true", help="explore every projection and report the per-projection row"
    ),
    "--lose": dict(type=_qubit_list, metavar="K[,K2,...]", help="qubit(s) to lose, 1-based"),
    "--all": dict(action="store_true", help="print all n single-qubit projections"),
    "--compare": dict(action="store_true", help="also run the detector and diff verdicts"),
    "--seed": dict(type=_int_at_least(0, "a seed >= 0"), default=0, help="RNG seed (default 0)"),
    "--trials": dict(type=_int_at_least(1, "a positive trial count"), default=200,
                     help="number of trials (default 200)"),
}


def _load_input(args) -> tuple[StateVector, str]:
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


def _timed(fn, state: StateVector, tol: float):
    """``fn(state, tol=tol)`` and its wall time in ms."""
    t0 = time.perf_counter()
    result = fn(state, tol=tol)
    return result, (time.perf_counter() - t0) * 1e3


def _report(args, command: str, source: str, fields: dict, lines: list[str],
            state: StateVector | None = None, elapsed_ms: float | None = None) -> str:
    """A command's stdout: its JSON report under --json, else its text lines.

    The JSON header carries the tolerance of a command that takes one and
    the qubit count of a command on a state.  A timed command's text opens
    with its input and closes with its time; --timing adds the time as the
    JSON report's last key.
    """
    if args.json:
        report = {"tool": "qubitloss", "version": __version__, "command": command,
                  "input": source}
        if hasattr(args, "tol"):
            report["tolerance"] = args.tol
        if state is not None:
            report["num_qubits"] = state.num_qubits
        report.update(fields)
        if elapsed_ms is not None and args.timing:
            report["wall_time_ms"] = elapsed_ms
        return json.dumps(report, indent=2) + "\n"
    if elapsed_ms is not None:
        lines = [f"input:     {source}", *lines, f"time:      {elapsed_ms:.3f} ms"]
    return "\n".join(lines) + "\n"


def cmd_detect(args) -> tuple[int, str]:
    state, source = _load_input(args)
    if args.exhaustive:
        trace, elapsed_ms = _timed(detect_with_trace, state, args.tol)
        verdict, row = trace.verdict, list(trace.table)
    else:
        verdict, elapsed_ms = _timed(detect, state, args.tol)
        row = None

    fields = {
        "verdict": verdict.kind.value,
        "witness": _partition_json(verdict.witness and verdict.witness.partition),
        "certificate": _certificate_json(verdict.certificate),
        "projection_row": row,
    }
    if args.exhaustive and verdict.kind is VerdictKind.NOT_GENUINE:
        fields["factorizations"] = [
            _partition_json(w.partition) for w in all_factorizations(state, tol=args.tol)
        ]

    lines = [f"verdict:   {verdict.kind.value}"]
    if verdict.witness is not None:
        lines.append(f"witness:   separable across {verdict.witness.partition}")
    if verdict.certificate is not None:
        lines.append("certificate:")
        lines.append(format_certificate(verdict.certificate, indent=1))
    if row is not None:
        lines.append("projections: " + ", ".join(
            f"lose {k + 1}: {entry}" for k, entry in enumerate(row)
        ))
    text = _report(args, "detect", source, fields, lines, state, elapsed_ms)
    return _EXIT_BY_KIND[verdict.kind], text


def cmd_project(args) -> tuple[int, str]:
    state, source = _load_input(args)
    if args.all:
        results = all_projections(state)
        if not args.json:
            return 0, "".join(
                f"lost: {r.lost_qubit}\n{dumps_state(r.state, 'text')}" for r in results
            )
        projections = [
            {
                "lost": r.lost_qubit,
                "is_zero": r.is_zero,
                "state": state_document(r.state),
            }
            for r in results
        ]
        return 0, _report(args, "project", source, {"projections": projections}, [])
    if len(args.lose) == 1:
        out = lose_qubit(state, args.lose[0]).state
    else:
        out = lose_qubit_set(state, args.lose)
    return 0, dumps_state(out, "json" if args.json else "text")


def cmd_measure(args) -> tuple[int, str]:
    state, source = _load_input(args)
    report_m, elapsed_ms = _timed(entanglement_measure, state, args.tol)
    verdict = report_m.verdict

    fields = {
        "verdict": verdict.kind.value,
        "measure": {
            "per_qubit": [v.kind.value for v in report_m.per_qubit],
            "value": report_m.genuine_count,
            "exact": report_m.count_is_exact,
            "is_mes": report_m.is_mes,
        },
    }
    qualifier = "" if report_m.count_is_exact else " (certified lower bound)"
    lines = [
        f"verdict:   {verdict.kind.value}",
        f"measure:   {report_m.genuine_count} of {state.num_qubits} projections"
        f" certified genuine{qualifier}",
        f"MES:       {'yes' if report_m.is_mes else 'no'}",
    ]
    for k, v in enumerate(report_m.per_qubit, start=1):
        lines.append(f"  lose {k}: {v.kind.value}")
    text = _report(args, "measure", source, fields, lines, state, elapsed_ms)
    return _EXIT_BY_KIND[verdict.kind], text


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
    # survey name, builder, reductions separable?, projections scale-equal to own 2q family?
    ("GHZ(3)", ghz, True, True),
    ("W(3)", w_state, False, False),
)


def cmd_tables(args) -> tuple[int, str]:
    mismatches = []
    survey = {}
    for name, build, expected in _SURVEY_STATES:
        row = survey[name] = detect_with_trace(build(), tol=args.tol).table
        if row != expected:
            mismatches.append(f"survey {name}: got {row}, expected {expected}")

    compare_rows = []
    for name, family, want_separable, want_preserved in _COMPARE_STATES:
        state = family(3)
        keeps = ((1, 2), (1, 3), (2, 3))
        separable = [ppt_2qubit(partial_trace(state, keep), tol=args.tol) for keep in keeps]
        reference = family(2)
        entangled = [e == "entangled" for e in survey[name]]
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

    fields = {
        "survey": [{"state": name, "row": list(row)} for name, row in survey.items()],
        "comparison": [
            {
                "state": name,
                "reductions_separable": sep,
                "projections_entangled": ent,
                "projection_scale_equal": pres,
            }
            for name, sep, ent, pres in compare_rows
        ],
        "mismatches": mismatches,
    }

    lines = ["Projection survey (classification by lost qubit)"]
    lines.append(f"{'state':<10} {'lose 1':<12} {'lose 2':<12} {'lose 3':<12}")
    for name, row in survey.items():
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
    return EXIT_MISMATCH if mismatches else 0, _report(args, "tables", "builtin", fields, lines)


def cmd_oracle(args) -> tuple[int, str]:
    state, source = _load_input(args)
    cut, elapsed_ms = _timed(find_product_cut, state, args.tol)
    genuine = cut is None

    fields = {"oracle": {"genuine": genuine, "product_cut": _partition_json(cut)}}
    lines = [
        "oracle:    genuinely entangled (all bipartition unfoldings have rank >= 2)"
        if genuine
        else f"oracle:    not genuinely entangled (rank 1 across {cut})"
    ]
    code = EXIT_GENUINE if genuine else EXIT_NOT_GENUINE
    if args.compare:
        verdict = detect(state, tol=args.tol)
        agrees = not (
            (verdict.kind is VerdictKind.GENUINE and not genuine)
            or (verdict.kind is VerdictKind.NOT_GENUINE and genuine)
        )
        if not agrees:
            code = EXIT_MISMATCH
        fields["detector"] = {"verdict": verdict.kind.value, "agrees": agrees}
        lines.append(f"detector:  {verdict.kind.value}"
                     f" ({'consistent' if agrees else 'CONTRADICTION'})")
    return code, _report(args, "oracle", source, fields, lines, state, elapsed_ms)


def cmd_selftest(args) -> tuple[int, str]:
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

    fields = {"trials": args.trials, "failures": failures}
    lines = [
        f"selftest:  {args.trials} trials, seed {args.seed}",
        f"result:    {'ok' if not failures else f'{len(failures)} failure(s)'}",
    ]
    lines.extend(f"  {f}" for f in failures)
    text = _report(args, "selftest", f"seed:{args.seed}", fields, lines)
    return EXIT_MISMATCH if failures else 0, text


def _write(stream, text: str) -> None:
    """Write and flush; a stream that fails is closed and the error re-raised.

    Text that could not be written stays buffered, and the interpreter's
    flush at exit would fail on it again and turn exit 3 into exit 120;
    closing drops it.
    """
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        with contextlib.suppress(OSError):
            stream.close()
        raise


# Each subcommand once: its function, its help line and the flags it reads,
# in help order; a tuple of flags is a required exactly-one-of group.
_STATE_INPUT = (("--file", "--catalog"), "--n")
_COMMANDS = {
    "detect": (cmd_detect, "classify a state, emitting a certificate",
               (*_STATE_INPUT, "--tol", "--json", "--timing", "--exhaustive")),
    "project": (cmd_project, "apply the qubit-loss projection",
                (*_STATE_INPUT, "--json", ("--lose", "--all"))),
    "measure": (cmd_measure, "count certified-genuine projections",
                (*_STATE_INPUT, "--tol", "--json", "--timing")),
    "tables": (cmd_tables, "recompute the built-in survey/comparison tables and verify them",
               ("--tol", "--json")),
    "oracle": (cmd_oracle, "brute-force bipartition-rank ground truth",
               (*_STATE_INPUT, "--tol", "--json", "--timing", "--compare")),
    "selftest": (cmd_selftest, "randomized soundness/agreement sweep",
                 ("--tol", "--json", "--seed", "--trials")),
}


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
    for name, (func, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(func=func)
        for entry in flags:
            one_of = isinstance(entry, tuple)
            target = p.add_mutually_exclusive_group(required=True) if one_of else p
            for flag in entry if one_of else (entry,):
                target.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 3
        return int(exc.code or 0)
    try:
        code, text = args.func(args)
        _write(sys.stdout, text)
        return code
    except (ValueError, OSError) as exc:
        message = str(exc)
    except Exception as exc:  # exits 0-2 claim a verdict; never let a crash claim one
        message = f"{type(exc).__name__}: {' '.join(str(exc).split())}"
    with contextlib.suppress(OSError):  # with stderr gone too, exit 3 is the report
        _write(sys.stderr, f"qubitloss: error: {message}\n")
    return EXIT_ERROR

if __name__ == "__main__":
    sys.exit(main())
