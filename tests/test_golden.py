"""The package's outputs on fixed valid inputs match ``tests/golden.json``.

The file pins each case's verdict, witness and certificate and the exit
code and SHA-256 of its CLI reports; ``make_golden.py`` lists the cases.
A failure here means an output on a valid input changed.  Regenerate the
file (``PYTHONPATH=src python tests/make_golden.py``) only in a change
that means to change verdicts or reports, such as a sounder rounding rule
for the exact leaf, and list each changed case in CHANGES.md.
"""

import json

import pytest

from make_golden import GOLDEN, golden

WANT = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def got():
    return golden()


def test_the_same_cases_and_tables_report(got):
    assert list(got["cases"]) == list(WANT["cases"])
    assert got["tables"] == WANT["tables"]


@pytest.mark.parametrize("name", list(WANT["cases"]))
def test_case_matches(got, name):
    assert got["cases"][name] == WANT["cases"][name]
