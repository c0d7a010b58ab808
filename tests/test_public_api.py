"""The package's public surface: every exported name resolves, the list
of names stays fixed, the walker module does no amplitude arithmetic,
and the walk reaches the leaf through the name a tracer wraps."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qubitloss

PUBLIC_NAMES = [
    "__version__", "BaseVerdict", "Bipartition", "CATALOG_KEYS", "Certificate",
    "DEFAULT_ZERO_RTOL", "FactorizationWitness", "MAX_QUBITS", "MAX_SCAN_QUBITS",
    "MeasureReport", "ProjectionResult", "StateVector", "SufficientCheck",
    "SweepReport", "TraceReport", "Verdict", "VerdictKind", "all_bipartitions",
    "all_factorizations", "all_projections", "basis_index", "basis_state",
    "cluster4", "coefficient_groups", "detect", "detect_2q", "detect_3q",
    "detect_4q", "detect_base", "detect_with_trace", "dicke", "dump_state",
    "dumps_state", "entanglement_measure", "equal_up_to_scale", "example3_4q",
    "family_proportional", "find_product_cut", "format_certificate", "ghz",
    "load_state", "loads_state", "lose_qubit", "lose_qubit_set",
    "max_cross_minor", "named_state", "numerical_rank", "oracle_genuine",
    "pair_proportional", "partial_trace", "phi4", "ppt_2qubit", "product_state",
    "random_product_state", "random_state", "replay_certificate",
    "sufficient_3q", "tensor", "unfold", "w_state", "wclass_3q",
]


def test_public_names_are_fixed_and_resolve():
    assert qubitloss.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(qubitloss, name) is not None, name


def test_walker_module_holds_no_numpy():
    # The walker decides from verdicts and cuts; states and base own every
    # pass over amplitudes.
    assert not hasattr(sys.modules["qubitloss.detect"], "np")


def test_the_walk_calls_the_leaf_through_the_detect_module(monkeypatch):
    # The benchmark's tracer times the leaf by wrapping this module
    # attribute; a walk that reached the leaf another way would read as
    # zero leaf calls, not as a failure.
    module = sys.modules["qubitloss.detect"]
    original, calls = module.detect_base, []

    def counted(*args):
        calls.append(args[0].num_qubits)
        return original(*args)

    monkeypatch.setattr(module, "detect_base", counted)
    state = qubitloss.random_state(np.random.default_rng(6), 6)
    assert qubitloss.detect(state).kind is qubitloss.VerdictKind.GENUINE
    assert calls and set(calls) == {4}


def test_importing_the_cli_builds_no_leaf_table():
    # The leaf's tables are built on first use, so a CLI process that
    # decides nothing pays nothing for them at import.
    code = "import qubitloss.cli, qubitloss.base as b; print(b._leaf_tables.cache_info().currsize)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.strip() == "0"


def test_the_loss_lives_in_states():
    states = sys.modules["qubitloss.states"]
    assert qubitloss.lose_qubit is states.lose_qubit
    assert sys.modules["qubitloss.detect"].lose_qubit is states.lose_qubit
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("qubitloss.projection")


def test_states_owns_the_rules_and_base_every_proportionality_test():
    # The tolerance and magnitude rules sit beside the integer rule, in the
    # module that imports nothing from the package.
    with pytest.raises(ImportError):
        importlib.import_module("qubitloss.proportional")
    states, base = sys.modules["qubitloss.states"], sys.modules["qubitloss.base"]
    assert "from ." not in inspect.getsource(states)
    assert states.DEFAULT_TOL == 1e-9
    for name in ("check_tolerance", "largest_modulus", "unit_scale"):
        assert getattr(states, name).__module__ == "qubitloss.states", name
    for name in ("max_cross_minor", "pair_proportional", "family_proportional",
                 "equal_up_to_scale"):
        assert getattr(qubitloss, name).__module__ == "qubitloss.base", name
