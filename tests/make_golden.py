"""Write ``tests/golden.json``, the package's outputs on fixed valid inputs.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

Each case is a catalog state (n = 2..8) or a seeded dense state or
two-block product (n = 5..10).  Its record holds the verdict of ``detect``
at the default tolerance, the witness (partition and family) and the
certificate as the JSON report gives it; for n <= 8 also the exit code
and the SHA-256 of the output of ``detect --json``, ``measure --json``,
``project --all --json`` and ``oracle --compare --json``.  ``tables
--json`` is hashed once.  Only the default tolerance is used: a verdict at
tolerance 0 depends on rounding.

``tests/test_golden.py`` compares the package against the file.
Regenerate it only in a change that means to change verdicts or reports,
and list each changed case in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from qubitloss import detect, dumps_state, named_state, random_product_state, random_state
from qubitloss.cli import _certificate_json, main

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (0, 1, 2)
# The CLI reports, each run as ``<command> <input flags> <flags>``.
REPORTS = {
    "detect": ("detect", "--json"),
    "measure": ("measure", "--json"),
    "project": ("project", "--all", "--json"),
    "oracle": ("oracle", "--compare", "--json"),
}
CLI_MAX_N = 8


def catalog_cases():
    """(name, state, CLI input flags) of every catalog entry at n = 2..8."""
    for n in range(2, 9):
        for key in ("GHZ", "W", *(f"DICKE({k})" for k in range(n + 1))):
            yield f"{key}(n={n})", named_state(key, n), ("--catalog", key, "--n", str(n))
    for key in ("PHI4", "EXAMPLE3_4Q", "WCLASS_3Q", "CLUSTER4"):
        yield key, named_state(key), ("--catalog", key)


def seeded_cases():
    """(name, state, CLI input flags) of the seeded dense states and
    two-block products; their CLI input is a text file in the working
    directory, written by ``golden``."""
    for n in range(5, 11):
        for seed in SEEDS:
            name = f"dense-n{n}-s{seed}"
            yield name, random_state(np.random.default_rng([1, n, seed]), n), ("--file", name)
            rng = np.random.default_rng([2, n, seed])
            labels = [int(q) for q in rng.permutation(n) + 1]
            cut = int(rng.integers(1, n))
            blocks = [sorted(labels[:cut]), sorted(labels[cut:])]
            name = f"product-n{n}-s{seed}"
            yield name, random_product_state(rng, blocks), ("--file", name)


def cli(*argv: str) -> tuple[int, str]:
    """Exit code and the SHA-256 of stdout, then stderr, of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue() + "\0" + err.getvalue()
    return code, hashlib.sha256(text.encode()).hexdigest()


def _pairs(values) -> list:
    return [[v.real, v.imag] for v in map(complex, values)]


def record(state, flags) -> dict:
    """The record of one case; a ``--file`` input must exist in the working directory."""
    verdict = detect(state)
    witness = verdict.witness and {
        "block_a": list(verdict.witness.partition.block_a),
        "block_b": list(verdict.witness.partition.block_b),
        "family": [_pairs(row) for row in verdict.witness.family],
    }
    rec = {
        "verdict": verdict.kind.value,
        "witness": witness,
        "certificate": _certificate_json(verdict.certificate),
    }
    if state.num_qubits <= CLI_MAX_N:
        rec["reports"] = {name: list(cli(argv[0], *flags, *argv[1:]))
                          for name, argv in REPORTS.items()}
    return rec


def golden() -> dict:
    """Every record, computed in a temporary working directory."""
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            for name, state, flags in [*catalog_cases(), *seeded_cases()]:
                if flags[0] == "--file":
                    Path(name).write_text(dumps_state(state))
                cases[name] = record(state, flags)
            tables = list(cli("tables", "--json"))
        finally:
            os.chdir(home)
    return {"cases": cases, "tables": tables}


def dumps(data: dict) -> str:
    """``data`` as JSON with one case a line."""
    compact = dict(separators=(",", ":"))
    lines = [f"{json.dumps(name)}:{json.dumps(rec, **compact)}"
             for name, rec in data["cases"].items()]
    return ('{"tables":' + json.dumps(data["tables"], **compact) + ',"cases":{\n'
            + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    GOLDEN.write_text(dumps(golden()))
    print(f"wrote {GOLDEN}")
