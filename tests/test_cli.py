import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitloss.catalog
import qubitloss.cli
import qubitloss.stateio
from qubitloss import (
    CATALOG_KEYS,
    MAX_QUBITS,
    StateVector,
    __version__,
    basis_state,
    dicke,
    dumps_state,
    ghz,
    loads_state,
    product_state,
    w_state,
)
from qubitloss.cli import main
from helpers import _NoAllocation, with_overflowing_moduli


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDetectCommand:
    def test_ghz5_exit_zero(self, capsys):
        code, out, _ = run(capsys, "detect", "--catalog", "GHZ", "--n", "5")
        assert code == 0
        assert "genuine" in out

    def test_four_qubit_literal_certificate(self, capsys):
        code, out, _ = run(capsys, "detect", "--catalog", "EXAMPLE3_4Q", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "genuine"
        root = report["certificate"]["nodes"][0]
        assert root["rule"] == "exact"
        assert root["qubits"] == [1, 2, 3, 4]

    def test_certificate_is_a_node_list(self, capsys):
        code, out, _ = run(capsys, "detect", "--catalog", "GHZ", "--n", "8", "--json")
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["format"] == "dag"
        nodes = cert["nodes"]
        assert nodes[0]["qubits"] == list(range(1, 9))
        # One entry per distinct subset; each child index names its parent
        # minus the lost qubit.
        assert len({tuple(node["qubits"]) for node in nodes}) == len(nodes) == 15
        for node in nodes:
            if node["rule"] == "exact":
                assert node["lost"] is None and node["children"] == []
                continue
            assert node["rule"] == "two-projections"
            for lost, child in zip(node["lost"], node["children"], strict=True):
                assert 0 < child < len(nodes)
                expected = [q for q in node["qubits"] if q != lost]
                assert nodes[child]["qubits"] == expected

    def test_text_certificate_prints_each_subset_once(self, capsys):
        code, out, _ = run(capsys, "detect", "--catalog", "GHZ", "--n", "7")
        assert code == 0
        lines = [line.strip() for line in out.splitlines() if line.lstrip().startswith("{")]
        subsets = [line.split()[0] for line in lines if not line.endswith("see above")]
        assert len(subsets) == len(set(subsets)) == 10
        assert "{4,5,6,7}  see above" in lines

    def test_product_file_exit_one_with_witness(self, capsys, tmp_path):
        s = product_state([((1,), basis_state("0")), ((2, 3), ghz(2))])
        path = tmp_path / "prod.state"
        path.write_text(dumps_state(s))
        code, out, _ = run(capsys, "detect", "--file", str(path), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "not-genuine"
        assert report["witness"] == {"block_a": [1], "block_b": [2, 3]}

    def test_inconclusive_exit_two(self, capsys, tmp_path):
        s = product_state([((1, 2), ghz(2)), ((3, 4, 5), ghz(3))])
        path = tmp_path / "prod5.state"
        path.write_text(dumps_state(s))
        code, out, _ = run(capsys, "detect", "--file", str(path), "--json")
        assert code == 2
        assert json.loads(out)["verdict"] == "inconclusive"

    @pytest.mark.parametrize("source, code, factorizations", [
        ("qubits: 3\n1 1 0\n2 1 0\n4 1 0\n7 1 0\n", 0, None),
        ("qubits: 3\n0 1 0\n1 1 0\n", 1, [([1], [2, 3]), ([2], [1, 3]), ([3], [1, 2])]),
        (("--catalog", "GHZ", "--n", "2"), 0, None),  # each projection is a lone qubit
    ], ids=["wclass-3q", "product", "ghz-2"])
    def test_exhaustive_adds_projection_row(self, capsys, tmp_path, source, code,
                                            factorizations):
        if isinstance(source, str):
            path = tmp_path / "in.state"
            path.write_text(source)
            source = ("--file", str(path))
        got, out, _ = run(capsys, "detect", *source, "--json", "--exhaustive")
        assert got == code
        report = json.loads(out)
        assert report["projection_row"] == ["product"] * report["num_qubits"]
        if factorizations is None:
            assert "factorizations" not in report
        else:
            assert report["factorizations"] == [
                {"block_a": a, "block_b": b} for a, b in factorizations
            ]

    def test_zero_state_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "zero.state"
        path.write_text("qubits: 2\n")
        code, _, err = run(capsys, "detect", "--file", str(path))
        assert code == 3
        assert "zero" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.state"
        path.write_text("qubits: two\n")
        code, _, err = run(capsys, "detect", "--file", str(path))
        assert code == 3

    def test_unknown_catalog(self, capsys):
        code, _, err = run(capsys, "detect", "--catalog", "NOPE")
        assert code == 3
        assert "unknown catalog" in err

    def test_requires_exactly_one_input(self, capsys):
        code, out, err = run(capsys, "detect")
        assert code == 3
        assert out == ""
        assert err == "qubitloss detect: error: one of the arguments --file --catalog is required\n"

    def test_usage_error_exits_three(self, capsys):
        code, _, err = run(capsys, "detect", "--n", "notanint", "--catalog", "GHZ")
        assert code == 3
        assert err.count("\n") == 1

    def test_overflowing_projection_exits_three_in_one_line(self, capsys, tmp_path):
        path = tmp_path / "huge.state"
        path.write_text(dumps_state(StateVector(6, np.full(64, 1e308))))
        with warnings.catch_warnings():  # a warning would be more stderr lines
            warnings.simplefilter("error")
            code, out, err = run(capsys, "detect", "--file", str(path))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("family", [ghz, w_state])
    def test_overflowing_moduli_decide_as_at_scale_one(self, capsys, tmp_path, family):
        path = tmp_path / "huge.state"
        path.write_text(dumps_state(with_overflowing_moduli(family(5))))
        assert run(capsys, "detect", "--file", str(path))[0] == 0
        code, out, err = run(capsys, "oracle", "--compare", "--file", str(path))
        assert (code, err) == (0, "")
        assert "detector:  genuine (consistent)" in out

    @pytest.mark.parametrize("argv, code", [
        (("detect",), 3),
        (("detect", "--exhaustive"), 3),
        (("measure",), 3),
        (("project", "--lose", "1,2"), 3),
        (("oracle", "--compare"), 3),
        (("project", "--all"), 0),
        (("project", "--lose", "2"), 0),
    ], ids=["detect", "detect-exhaustive", "measure", "project-lose-1,2", "oracle-compare",
            "project-all", "project-lose-2"])
    def test_overflowing_sums_exit_three_in_one_line(self, capsys, tmp_path, argv, code):
        # Once no projection vanishes, the walk reaches sums that overflow:
        # losing input qubit 1 is fine, losing qubit 2 after it is not.  A
        # command that loses one qubit at most exits 0 with no warning.
        path = tmp_path / "huge.state"
        path.write_text(dumps_state(with_overflowing_moduli(dicke(6, 2))))
        got, out, err = run(capsys, *argv, "--file", str(path))
        assert got == code
        if code:
            assert (out, err) == ("", (
                "qubitloss: error: losing qubit 2 from {2,3,4,5,6} gives amplitudes "
                "that are not finite (the sums overflow)\n"
            ))
        else:
            assert err == ""


_NOT_ASCII = "a text state document must be ASCII with no underscore"


class TestInputGuards:
    def test_nan_tolerance_exits_three(self, capsys, tmp_path):
        # Fully product |0000>(|0>+|1>): NaN made every leaf read entangled.
        plus = StateVector(1, [1, 1])
        s = product_state([((1, 2, 3, 4), basis_state("0000")), ((5,), plus)])
        path = tmp_path / "plus.state"
        path.write_text(dumps_state(s))
        code, out, err = run(capsys, "detect", "--file", str(path), "--tol", "nan")
        assert code == 3
        assert out == ""
        assert "tolerance" in err
        assert err.count("\n") == 1

    def test_infinite_tolerance_exits_three(self, capsys):
        # An infinite tolerance called GHZ(3) not genuine.
        code, _, err = run(capsys, "detect", "--catalog", "GHZ", "--n", "3",
                           "--tol", "inf")
        assert code == 3
        assert "tolerance" in err
        assert err.count("\n") == 1

    def test_zero_tolerance_accepted(self, capsys):
        code, out, _ = run(capsys, "detect", "--catalog", "GHZ", "--n", "3",
                           "--tol", "0", "--json")
        assert code == 0
        assert json.loads(out)["tolerance"] == 0.0

    @pytest.mark.parametrize("zero", ["-0", "-0.0", "-.0"])
    def test_negative_zero_tolerance_reports_as_zero(self, capsys, zero):
        # -0 is the same tolerance as 0 and must give the same report bytes.
        reports = [run(capsys, "detect", "--catalog", "GHZ", "--n", "3", "--tol", tol, "--json")
                   for tol in ("0", zero)]
        assert reports[0] == reports[1]
        assert '"tolerance": 0.0' in reports[1][1]

    def test_qubit_limit_on_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(qubitloss.stateio, "np", _NoAllocation())
        path = tmp_path / "wide.state"
        path.write_text("qubits: 40\n")
        code, _, err = run(capsys, "detect", "--file", str(path))
        assert code == 3
        assert f"MAX_QUBITS = {MAX_QUBITS}" in err

    def test_qubit_limit_on_catalog(self, capsys, monkeypatch):
        monkeypatch.setattr(qubitloss.catalog, "np", _NoAllocation())
        code, _, err = run(capsys, "detect", "--catalog", "GHZ", "--n", "40")
        assert code == 3
        assert f"MAX_QUBITS = {MAX_QUBITS}" in err

    def test_n_with_file_exits_three(self, capsys, tmp_path):
        # A file fixes its own qubit count; an ignored --n would hide a typo.
        path = tmp_path / "bell.state"
        path.write_text(dumps_state(ghz(2)))
        code, out, err = run(capsys, "detect", "--file", str(path), "--n", "7")
        assert code == 3
        assert out == ""
        assert "--n" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("project", "--catalog", "GHZ", "--n", "3", "--all", "--tol", "1e-9"),
        ("project", "--catalog", "GHZ", "--n", "3", "--all", "--timing"),
        ("tables", "--timing"),
        ("selftest", "--trials", "1", "--timing"),
    ], ids=["project-tol", "project-timing", "tables-timing", "selftest-timing"])
    def test_flag_the_command_does_not_read_exits_three(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "unrecognized arguments" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (("selftest", "--trials", "0"), "trial count"),
        (("selftest", "--trials", "-5"), "trial count"),
        (("project", "--catalog", "GHZ", "--n", "3", "--all", "--lose", "1"),
         "not allowed with"),
        (("detect", "--file", "x.state", "--catalog", "GHZ"),
         "argument --catalog: not allowed with argument --file"),
        (("project", "--catalog", "GHZ", "--n", "3", "--lose", "a"), "K[,K2,...]"),
        (("project", "--catalog", "GHZ", "--n", "4", "--lose", "1,1"), "repeated"),
        (("project", "--catalog", "GHZ", "--n", "4", "--lose", ",,1"), "K[,K2,...]"),
        (("selftest", "--seed", "-1"), "--seed"),
        (("selftest", "--trials", "abc"), "expected a positive trial count, got 'abc'"),
        (("detect", "--catalog", "GHZ", "--n", "1"), "GHZ needs at least two qubits"),
        (("detect", "--catalog", "W", "--n", "1"), "W needs at least two qubits"),
        (("detect", "--catalog", "DICKE(5)", "--n", "3"), "invalid Dicke parameters n=3, k=5"),
        (("detect", "--catalog", "DICKE(1)"), "DICKE(k) needs an explicit qubit count"),
        # Integers in text are ASCII digits alone: no other script, sign or underscore.
        (("detect", "--catalog", "GHZ", "--n", "٣"), "expected a qubit count >= 1, got '٣'"),
        (("detect", "--catalog", "GHZ", "--n", "+3"), "expected a qubit count >= 1, got '+3'"),
        (("detect", "--catalog", "GHZ", "--n", "3.0"), "expected a qubit count >= 1, got '3.0'"),
        (("detect", "--catalog", "PHI4", "--n", "0"), "expected a qubit count >= 1, got '0'"),
        (("project", "--catalog", "GHZ", "--n", "3", "--lose", "١"), "K[,K2,...]"),
        (("project", "--catalog", "GHZ", "--n", "3", "--lose", "1, 2"), "K[,K2,...]"),
        (("selftest", "--trials", "٢"), "expected a positive trial count, got '٢'"),
        (("selftest", "--seed", "1_0"), "expected a seed >= 0, got '1_0'"),
        (("detect", "--catalog", "DICKE(٢)", "--n", "4"), "unknown catalog state 'DICKE(٢)'"),
        # float() reads other scripts' digits, underscores and surrounding space too.
        *((("detect", "--catalog", "GHZ", "--n", "5", "--tol", tol),
           f"a tolerance must be ASCII with no underscore or space, got {tol!r}")
          for tol in ("١", "1_0", "٠.٥", " 1e-3")),
        (("detect", "--catalog", "DICKE(" + "9" * 5000 + ")", "--n", "4"),
         "an integer in text must have at most 4300 digits, got 5000"),
    ], ids=["trials-0", "trials-negative", "all-with-lose", "file-with-catalog",
            "lose-not-a-number", "lose-repeated", "lose-empty-entry", "seed-negative",
            "trials-not-a-number",
            "ghz-1", "w-1", "dicke-k-above-n", "dicke-without-n", "n-arabic-indic",
            "n-signed", "n-float", "n-0", "lose-arabic-indic", "lose-space", "trials-arabic-indic",
            "seed-underscore", "dicke-arabic-indic", "tol-arabic-indic", "tol-underscore",
            "tol-arabic-indic-point", "tol-space", "dicke-5000-digits"])
    def test_argument_value_exits_three(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, document, message", [
        ("oracle", "qubits: 1\n0 1 0\n", "need at least two qubits"),
        ("detect", '{"qubits": 1, "amplitudes": [[1, 0, 0], [0, 0]]}',
         "amplitude 0 is not a [re, im] pair"),
        ("detect", "qubits: 0\n",
         f"qubit count must be an integer in 1..MAX_QUBITS = {MAX_QUBITS}, got 0"),
        ("detect", "qubits: +2\n0 1 0\n",
         "an integer in text must be ASCII digits alone, got '+2'"),
        ("detect", "qubits: 2\n+0 1 0\n", "unparsable amplitude line '+0 1 0'"),
        ("detect", '{"qubits": 2.0, "amplitudes": []}',
         f"qubit count must be an integer in 1..MAX_QUBITS = {MAX_QUBITS}, got 2.0"),
        # float() reads other scripts' digits and underscores, so a text
        # document with either is refused whole.
        ("detect", "qubits: ٢\n0 1 0\n", _NOT_ASCII),
        ("detect", "qubits: 2\n٠ 1 0\n", _NOT_ASCII),
        ("detect", "qubits: 2\n0_3 1 0\n", _NOT_ASCII),
        ("detect", "qubits: 2\n0 ١.٥ 0\n", _NOT_ASCII),
        ("detect", "qubits: 2\n0 1_0 0\n", _NOT_ASCII),
        ("detect", "qubits: " + "9" * 5000 + "\n",
         "an integer in text must have at most 4300 digits, got 5000"),
    ], ids=["oracle-one-qubit", "json-triple", "text-count-0", "text-count-signed",
            "text-index-signed", "json-count-float", "text-count-arabic-indic",
            "text-index-arabic-indic", "text-index-underscore", "text-part-arabic-indic",
            "text-part-underscore", "text-count-5000-digits"])
    def test_state_file_exits_three(self, capsys, tmp_path, command, document, message):
        path = tmp_path / "in.state"
        path.write_text(document, encoding="utf-8")
        code, out, err = run(capsys, command, "--file", str(path))
        assert code == 3
        assert out == ""
        assert err == f"qubitloss: error: {message}\n"

    def test_unexpected_exception_exits_three_in_one_line(self, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 TiB\nfor an array")

        monkeypatch.setattr(qubitloss.cli, "detect", out_of_memory)
        code, out, err = run(capsys, "detect", "--catalog", "GHZ", "--n", "5")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "MemoryError" in err and "Traceback" not in err


class TestProjectCommand:
    def test_single_loss_round_trip(self, capsys):
        code, out, _ = run(capsys, "project", "--catalog", "GHZ", "--n", "4",
                           "--lose", "2")
        assert code == 0
        state = loads_state(out)
        np.testing.assert_allclose(state.amplitudes, ghz(3).amplitudes)

    def test_multi_loss_w_chain(self, capsys):
        code, out, _ = run(capsys, "project", "--catalog", "W", "--n", "5",
                           "--lose", "1,2,3")
        assert code == 0
        state = loads_state(out)
        expected = np.array([3, 1, 1, 0]) / math.sqrt(5)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_bell_file_single_qubit_output(self, capsys, tmp_path):
        path = tmp_path / "bell.state"
        path.write_text(dumps_state(ghz(2)))
        code, out, _ = run(capsys, "project", "--file", str(path), "--lose", "2")
        assert code == 0
        state = loads_state(out)
        np.testing.assert_allclose(state.amplitudes, [2**-0.5, 2**-0.5])

    def test_output_feeds_other_commands(self, capsys, tmp_path):
        code, out, _ = run(capsys, "project", "--catalog", "GHZ", "--n", "6",
                           "--lose", "3")
        path = tmp_path / "projected.state"
        path.write_text(out)
        code, out, _ = run(capsys, "detect", "--file", str(path))
        assert code == 0

    def test_json_state_document(self, capsys):
        code, out, _ = run(capsys, "project", "--catalog", "GHZ", "--n", "3",
                           "--lose", "1", "--json")
        assert code == 0
        state = loads_state(out)
        assert state.num_qubits == 2

    def test_all_projections(self, capsys):
        code, out, _ = run(capsys, "project", "--catalog", "W", "--n", "3",
                           "--all", "--json")
        assert code == 0
        doc = json.loads(out)
        assert [p["lost"] for p in doc["projections"]] == [1, 2, 3]

    def test_all_projections_text(self, capsys):
        code, out, _ = run(capsys, "project", "--catalog", "GHZ", "--n", "3", "--all")
        assert code == 0
        blocks = re.split(r"^lost: (\d+)\n", out, flags=re.M)
        assert blocks[0] == "" and blocks[1::2] == ["1", "2", "3"]
        for document in blocks[2::2]:
            np.testing.assert_allclose(loads_state(document).amplitudes, ghz(2).amplitudes)

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "project", "--catalog", "GHZ", "--n", "3",
                           "--lose", "9")
        assert code == 3

    def test_lose_required(self, capsys):
        code, _, err = run(capsys, "project", "--catalog", "GHZ", "--n", "3")
        assert code == 3


class TestMeasureCommand:
    def test_phi4(self, capsys):
        code, out, _ = run(capsys, "measure", "--catalog", "PHI4", "--json")
        assert code == 0
        m = json.loads(out)["measure"]
        assert m["value"] == 2
        assert m["per_qubit"] == ["genuine", "genuine", "not-genuine", "not-genuine"]
        assert not m["is_mes"]

    def test_w4_is_mes(self, capsys):
        code, out, _ = run(capsys, "measure", "--catalog", "W", "--n", "4", "--json")
        assert code == 0
        assert json.loads(out)["measure"]["is_mes"]

    def test_ghz3_is_mes(self, capsys):
        code, out, _ = run(capsys, "measure", "--catalog", "GHZ", "--n", "3", "--json")
        assert code == 0
        m = json.loads(out)["measure"]
        assert m["value"] == 3 and m["is_mes"] and m["exact"]

    @pytest.mark.parametrize("n, verdict, expected", [
        ("4", "not-genuine", 1), ("6", "inconclusive", 2),
    ])
    def test_exit_code_follows_verdict(self, capsys, n, verdict, expected):
        code, out, _ = run(capsys, "measure", "--catalog", "DICKE(0)", "--n", n, "--json")
        assert json.loads(out)["verdict"] == verdict
        assert code == expected


class TestTablesCommand:
    def test_tables_verify_and_exit_zero(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert "GHZ(3)" in out and "W(3)" in out
        assert "MISMATCH" not in out

    def test_tables_json(self, capsys):
        code, out, _ = run(capsys, "tables", "--json")
        report = json.loads(out)
        assert report["mismatches"] == []
        survey = {row["state"]: row["row"] for row in report["survey"]}
        assert survey["|000>"] == ["product", "product", "product"]
        assert survey["|0>|EPR>"] == ["entangled", "product", "product"]

    def test_huge_tolerance_reports_every_mismatch(self, capsys):
        # At --tol 1e3 every rank test passes: all projections read product.
        code, out, _ = run(capsys, "tables", "--tol", "1e3")
        assert code == 4
        tail = out.splitlines()[-7:]
        assert all(line.startswith("MISMATCH: ") for line in tail)
        assert [line.split()[1] for line in tail] == ["survey"] * 3 + ["compare"] * 4
        assert out.count("MISMATCH") == 7
        code, out, _ = run(capsys, "tables", "--tol", "1e3", "--json")
        assert code == 4
        assert json.loads(out)["mismatches"] == [line[len("MISMATCH: "):] for line in tail]


class TestOracleCommand:
    def test_ghz6(self, capsys):
        code, out, _ = run(capsys, "oracle", "--catalog", "GHZ", "--n", "6")
        assert code == 0

    def test_compare_on_product(self, capsys, tmp_path):
        s = product_state([((1, 2), ghz(2)), ((3, 4, 5), ghz(3))])
        path = tmp_path / "p.state"
        path.write_text(dumps_state(s))
        code, out, _ = run(capsys, "oracle", "--file", str(path), "--compare",
                           "--json")
        assert code == 1
        report = json.loads(out)
        assert report["oracle"]["genuine"] is False
        assert report["detector"]["agrees"] is True

    def test_wclass_oracle_genuine_but_shortcut_blind(self, capsys):
        code, out, _ = run(capsys, "oracle", "--catalog", "WCLASS_3Q", "--compare")
        assert code == 0
        assert "consistent" in out

    def test_contradiction_exits_four(self, capsys, tmp_path):
        # At 1e-2 the oracle calls this near-product state a product; the
        # detector's exact 2-qubit leaf does not.
        path = tmp_path / "near.state"
        path.write_text("qubits: 2\n0 1 0\n1 1 0\n2 1 0\n3 1.02 0\n")
        argv = ("oracle", "--file", str(path), "--compare", "--tol", "1e-2")
        code, out, _ = run(capsys, *argv)
        assert code == 4
        assert "detector:  genuine (CONTRADICTION)" in out.splitlines()
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 4
        assert json.loads(out)["detector"] == {"verdict": "genuine", "agrees": False}

    def test_too_many_qubits(self, capsys):
        code, _, err = run(capsys, "oracle", "--catalog", "GHZ", "--n", "13")
        assert code == 3


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("detect", "--catalog", "GHZ", "--n", "5", "--json"),
            ("measure", "--catalog", "PHI4", "--json"),
            ("tables", "--json"),
            ("oracle", "--catalog", "W", "--n", "4", "--compare", "--json"),
        ],
    )
    def test_reports_byte_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


@pytest.mark.parametrize("command", [("detect",), ("measure",), ("oracle", "--compare")])
def test_timing_is_the_last_key_and_only_on_request(capsys, command):
    argv = (*command, "--catalog", "GHZ", "--n", "5", "--json")
    _, out, _ = run(capsys, *argv, "--timing")
    report = json.loads(out)
    assert list(report)[-1] == "wall_time_ms"
    assert report["wall_time_ms"] >= 0
    _, out, _ = run(capsys, *argv)
    assert "wall_time_ms" not in json.loads(out)


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--trials", "40", "--seed", "1")
        assert code == 0
        assert "ok" in out

    def test_zero_tolerance_reports_failures(self, capsys):
        # At tol 0 rounding makes exact product tests fail on random products.
        code, out, _ = run(capsys, "selftest", "--tol", "0", "--trials", "5")
        assert code == 4
        assert any(line.startswith("  ") for line in out.splitlines())

    def test_dense_disagreement_exits_four(self, capsys, monkeypatch):
        # An oracle that calls everything a product contradicts every dense
        # state the detector certifies.
        monkeypatch.setattr(qubitloss.cli, "oracle_genuine", lambda state, tol: False)
        code, out, err = run(capsys, "selftest", "--trials", "2", "--seed", "1")
        assert (code, err) == (4, "")
        assert "  detector and oracle disagree on a dense state" in out.splitlines()


_SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestClosedOutput:
    """A report that cannot be written is an error (exit 3), never a verdict."""

    @pytest.mark.parametrize("argv, python_flags", [
        (("detect", "--catalog", "GHZ", "--n", "5"), ()),
        (("detect", "--catalog", "GHZ", "--n", "5"), ("-u",)),
        (("measure", "--catalog", "GHZ", "--n", "5"), ()),
        (("oracle", "--catalog", "GHZ", "--n", "5"), ()),
        (("project", "--catalog", "GHZ", "--n", "3", "--all"), ()),
        (("tables",), ()),
        (("selftest", "--trials", "1"), ()),
    ], ids=["detect", "detect-unbuffered", "measure", "oracle", "project", "tables",
            "selftest"])
    @pytest.mark.parametrize("stderr_closed", [True, False], ids=["both", "stdout"])
    def test_exits_three(self, argv, python_flags, stderr_closed):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = _SRC
        r, w = os.pipe()
        os.close(r)  # every write to w now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, *python_flags, "-m", "qubitloss.cli", *argv],
                stdout=w, stderr=w if stderr_closed else subprocess.PIPE,
                env=env, timeout=120,
            )
        finally:
            os.close(w)
        assert proc.returncode == 3
        if not stderr_closed:
            assert proc.stderr.count(b"\n") == 1
            assert proc.stderr.startswith(b"qubitloss: error: ")


class TestMisc:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0

    def test_one_version(self, capsys):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^version = "(.*)"$', pyproject, re.M)[1] == __version__
        assert run(capsys, "--version")[1] == f"qubitloss {__version__}\n"

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0


# One token of a valid state document is replaced by one of these: numbers
# that keep a header at 10 qubits or fewer, or put it past MAX_QUBITS (so it
# is refused before anything is allocated), syntax out of place, and
# nesting deeper than Python's recursion limit.
_TOKENS = (
    "", " ", "\n", "0", "-1", "1.5", "3", "10", "99", "9" * 400, "1e999",
    "NaN", "Infinity", "null", "true", '"1"', "[", "]", "{", "}", ",", ":",
    "qubits", "0x1", "[" * 100000, "+2", "1_0", "٢",
)

# Written to a file and read back in text mode, "\r" would become "\n".
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"))


@st.composite
def _mutated_documents(draw):
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)) * (rng.random(1 << n) < 0.5)
    doc = dumps_state(StateVector(n, amps), draw(st.sampled_from(["text", "json"])))
    tokens = re.findall(r"\s+|[^\s\[\]{},:]+|[\[\]{},:]", doc)
    tokens[rng.integers(len(tokens))] = draw(st.sampled_from(_TOKENS))  # uniform position
    return "".join(tokens)


@settings(max_examples=1000, deadline=None)
@given(
    text=st.one_of(
        _TEXT,
        _TEXT.map(lambda t: "{" + t),
        _TEXT.map(lambda t: "qubits: 2\n" + t),
        _mutated_documents(),
    )
)
def test_a_rejected_state_document_is_one_error_line(text):
    try:
        loads_state(text)
    except ValueError:
        pass
    else:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.state")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["detect", "--file", path])
    assert code == 3
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


def _command_flags(command):
    """The flags ``_COMMANDS`` gives a subcommand, its exactly-one-of groups flattened."""
    return [flag for entry in qubitloss.cli._COMMANDS[command][2]
            for flag in (entry if isinstance(entry, tuple) else (entry,))]


def test_readme_catalog_row_names_each_catalog_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    row = re.search(r"^\| `qubitloss\.catalog` \|(.*)\|$", readme, re.M).group(1)
    # A quoted name the module defines (CATALOG_KEYS itself) is not a key.
    keys = [name for name in re.findall(r"`([A-Z][\w()]*)`", row)
            if not hasattr(qubitloss.catalog, name)]
    assert keys == list(CATALOG_KEYS)


def test_readme_flag_table_names_each_commands_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(\w+)` \|(.*)\|$", readme, re.M))
    assert sorted(rows) == sorted(qubitloss.cli._COMMANDS)
    for command, row in rows.items():
        assert sorted(re.findall(r"--\w+", row)) == sorted(_command_flags(command)), command


# Argument vectors: a subcommand, then flags of every subcommand in any
# order, each with a value that fits it or one from a pool of odd text.  No
# count reaches past 8 qubits and selftest always ends on --trials of at
# most 3, so no draw runs long.  Commands and flags are read from the CLI's
# own table, and catalog keys from CATALOG_KEYS, so a new flag or catalog
# state cannot go unfuzzed.
_ARGV_VALUES = {
    "--catalog": (*(key.replace("(k)", "(2)") for key in CATALOG_KEYS), "DICKE(٢)", "NOPE"),
    "--n": ("1", "2", "3", "5", "8"),
    "--tol": ("0", "1e-9", "0.5"),
    "--lose": ("1", "3", "1,2", "2,,3", "9"),
    "--seed": ("0", "7"),
    "--trials": ("0", "1", "3"),
}
_ARGV_SWITCHES = (*(flag for flag, spec in qubitloss.cli._FLAGS.items()
                    if spec.get("action") == "store_true"), "--help", "-x")
_ARGV_ODD = ("", " ", "-1", "+2", "1_0", "٣", "²", "2.0", "nan", "1e999", "1, 2")


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Paths to small text and JSON states, a bad text file and a missing file."""
    root = tmp_path_factory.mktemp("argv")
    documents = {
        "ghz.state": dumps_state(ghz(3)),
        "w.json": dumps_state(w_state(3), "json"),
        "product.state": dumps_state(product_state([((1,), basis_state("0")), ((2, 3), ghz(2))])),
        "arabic-indic.state": "qubits: ٢\n0 1 0\n",
    }
    for name, text in documents.items():
        (root / name).write_text(text, encoding="utf-8")
    return tuple(str(root / name) for name in (*documents, "missing.state"))


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_every_argv_ends_in_a_verdict_or_one_error_line(argv_files, data):
    values = {**_ARGV_VALUES, "--file": argv_files}
    assert sorted(values) == sorted(flag for flag, spec in qubitloss.cli._FLAGS.items()
                                    if spec.get("action") != "store_true")
    pair = st.sampled_from(sorted(values)).flatmap(lambda flag: st.tuples(
        st.just(flag), st.sampled_from(values[flag]) | st.sampled_from(_ARGV_ODD)))
    items = data.draw(st.lists(pair | st.sampled_from(_ARGV_SWITCHES + _ARGV_ODD).map(
        lambda token: (token,)), max_size=5))
    command = data.draw(st.sampled_from(tuple(qubitloss.cli._COMMANDS)))
    argv = [command, *(token for item in items for token in item)]
    if command == "selftest":
        argv += ["--trials", data.draw(st.sampled_from(("1", "2", "3")))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in range(5)
    if code == 3:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""
