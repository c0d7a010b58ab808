"""Tests of the benchmark's own accounting, tracing and input generation.

    python3 -m pytest perfbench/tests
"""

import sys
import types
from dataclasses import replace

import numpy as np
import pytest

import accounting
import gen
import loop
import pace
import spans
from qubitloss import StateVector, Verdict, VerdictKind, detect


def _fake_package(detect_fn):
    return types.SimpleNamespace(
        StateVector=StateVector,
        detect=detect_fn,
        replay_certificate=lambda state, cert: True,
    )


def test_injected_wrong_verdict_fails_and_ranks_slowest():
    wrong = _fake_package(lambda state: Verdict(kind=VerdictKind.NOT_GENUINE))
    bad = loop.run_in_process(wrong, "dense-certify", gen.item("dense-certify", 1, 0))
    assert bad[0] is False and "not-genuine" in bad[2]

    samples = [(True, 0.010), (True, 0.030), (False, 0.001), (True, 0.020)]
    s = accounting.summarize(samples)
    assert (s["attempted"], s["failed"], s["error_rate"]) == (4, 1, 0.25)
    assert accounting.ranked_latencies(samples) == [0.010, 0.020, 0.030, 0.030]
    assert s["latency_p90_ms"] == pytest.approx(30.0)
    assert s["verdicts_per_s"] == pytest.approx(3 / 0.061)


def test_exception_in_package_is_a_failure_not_an_abort():
    def boom(state):
        raise MemoryError("too big")

    ok, elapsed, problem = loop.run_in_process(_fake_package(boom), "wide-genuine", gen.Item(0, 5, "dense", np.ones(32)))
    assert ok is False and elapsed >= 0 and "MemoryError" in problem


def test_real_verdicts_pass_their_checks():
    q = loop.checked_package()
    assert loop.run_in_process(q, "dense-certify", gen.item("dense-certify", 3, 0))[0]
    product = next(it for it in (gen.item("product-lattice", 3, i) for i in range(16)) if it.kind == "product")
    assert loop.run_in_process(q, "product-lattice", product)[0]


def test_self_time_subtracts_direct_children_only():
    S = spans.Span
    span_list = [
        S("detect", 0, 100, -1),
        S("projection", 10, 30, 0),
        S("base", 40, 90, 0),
        S("proportional", 50, 60, 2),
        S("proportional", 65, 75, 2),
        S("detect", 200, 210, -1),
    ]
    self_ns, total_ns, calls = spans.layer_times(span_list)
    assert self_ns == {"detect": 100 - 20 - 50 + 10, "projection": 20, "base": 50 - 20, "proportional": 20}
    assert total_ns["detect"] == 110 and total_ns["base"] == 50
    assert calls["proportional"] == 2 and calls["detect"] == 2


def test_hooks_wrap_restore_and_report_absent_layers():
    mod = types.ModuleType("perfbench_fake_layer")
    mod.outer = lambda: mod.inner() + 1
    mod.inner = lambda: 41
    original = mod.inner
    sys.modules[mod.__name__] = mod
    try:
        tracer = spans.Tracer()
        hooks = (
            (mod.__name__, "outer", "detect", None),
            (mod.__name__, "inner", "base", None),
            (mod.__name__, "renamed_away", "projection", None),
            ("perfbench_no_such_module", "f", "stateio", None),
        )
        with spans.hooked(tracer, hooks) as absent:
            assert mod.outer() == 42
        assert absent == ["projection", "stateio"]
        assert mod.inner is original
        recorded = tracer.drain()
        assert [(sp.layer, sp.parent) for sp in recorded] == [("detect", -1), ("base", 0)]
    finally:
        del sys.modules[mod.__name__]


def test_digest_stable_for_a_seed_and_changes_with_it():
    assert gen.digest("product-lattice", 7, 4) == gen.digest("product-lattice", 7, 4)
    assert gen.digest("product-lattice", 7, 4) != gen.digest("product-lattice", 8, 4)
    assert gen.digest("cli-files", 7, 4) != gen.digest("product-lattice", 7, 4)


def test_blocks_hold_every_qubit_count_and_one_special_item():
    period = len(gen.DENSE_CERTIFY_N)
    ns = [gen.item("dense-certify", 5, i).n for i in range(2 * period)]
    assert sorted(ns[:period]) == sorted(ns[period:]) == sorted(gen.DENSE_CERTIFY_N)
    kinds = [gen.item("cli-files", 5, i).kind for i in range(gen.CLI_PRODUCT_PERIOD)]
    assert kinds.count("product") == 1


def test_well_formed_accepts_detect_output_and_rejects_a_bad_tree():
    it = gen.item("dense-certify", 2, 0)
    cert = detect(StateVector(it.n, it.amps)).certificate
    assert loop.well_formed(cert, it.n)
    assert not loop.well_formed(replace(cert, qubits=cert.qubits[::-1]), it.n)
    bad_child = replace(cert.children[0], rule="exact")
    assert not loop.well_formed(replace(cert, children=(bad_child, cert.children[1])), it.n)


def test_at_pace_scales_each_operation_by_the_unit_timings_around_it():
    nominal = pace.NOMINAL_S
    # The machine runs at half speed for the first 100 s, then at nominal speed.
    marks = [(float(t), 2 * nominal if t < 100 else nominal) for t in range(0, 200, 2)]
    scaled = pace.at_pace([0.020, 0.010, 0.010], [10.0, 150.0, 199.0], marks, nominal)
    assert scaled == pytest.approx([0.010, 0.010, 0.010])
    assert pace.at_pace([0.004], [0.0], marks[:3], nominal) == pytest.approx([0.002])
