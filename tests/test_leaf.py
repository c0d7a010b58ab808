"""The exact 2/3/4-qubit leaf against a split-by-split reference.

``detect_base`` and ``all_factorizations`` test every candidate split in
one vectorized pass.  The reference below tests the splits one at a time
with ``coefficient_groups`` and ``family_proportional``, as the leaf did
before it was vectorized; the two must agree exactly (verdict, witness
partitions in reporting order, and families), at the default tolerance
and at tolerance 0.  The leaf's verdict must not depend on the scale of
the amplitudes, however large or tiny.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitloss import (
    BaseVerdict,
    Bipartition,
    FactorizationWitness,
    StateVector,
    VerdictKind,
    all_factorizations,
    basis_state,
    coefficient_groups,
    detect,
    detect_base,
    family_proportional,
    product_state,
    random_product_state,
    random_state,
    sufficient_3q,
)
from qubitloss.base import CANDIDATE_SPLITS

TOLERANCES = (1e-9, 0.0)


def reference_factorizations(state, tol):
    n = state.num_qubits
    amps = state.amplitudes
    if not amps.any():
        return []
    found = []
    for block in CANDIDATE_SPLITS[n]:
        vectors = [amps[g] for g in coefficient_groups(n, block)]
        if family_proportional(vectors, tol):
            found.append(
                FactorizationWitness(
                    partition=Bipartition.from_block(n, block),
                    family=tuple(tuple(map(complex, v)) for v in vectors),
                )
            )
    return found


def assert_leaf_matches_reference(state, tol):
    want = reference_factorizations(state, tol)
    assert all_factorizations(state, tol) == want
    assert detect_base(state, tol) == BaseVerdict(
        genuinely_entangled=not want and bool(state.amplitudes.any()),
        witness=want[0] if want else None,
    )


def split_product(rng, n, block):
    rest = tuple(q for q in range(1, n + 1) if q not in block)
    return product_state(
        [(block, random_state(rng, len(block))), (rest, random_state(rng, len(rest)))]
    )


def corpus(rng, n):
    """Dense states, products across every candidate split (exact and
    perturbed around the threshold), fully product states, every basis
    state, and states with one all-zero coefficient group."""
    states = [random_state(rng, n) for _ in range(40)]
    for block in CANDIDATE_SPLITS[n]:
        for _ in range(20):
            states.append(split_product(rng, n, block))
        for eps in (1e-7, 1e-9, 1e-11):
            noise = eps * random_state(rng, n).amplitudes
            states.append(StateVector(n, split_product(rng, n, block).amplitudes + noise))
        for group in coefficient_groups(n, block):
            amps = random_state(rng, n).amplitudes.copy()
            amps[group] = 0
            states.append(StateVector(n, amps))
    states += [
        product_state([((q,), random_state(rng, 1)) for q in range(1, n + 1)])
        for _ in range(10)
    ]
    states += [basis_state(format(i, f"0{n}b")) for i in range(1 << n)]
    return states


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("tol", TOLERANCES)
def test_seeded_corpus_matches_reference(n, tol):
    rng = np.random.default_rng(31 + n)
    for state in corpus(rng, n):
        assert_leaf_matches_reference(state, tol)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_two_qubit_products_compare_the_pivot_with_nothing(tol):
    # The pivot's self-minor p_0 p_1 - p_1 p_0 can round to a nonzero value,
    # which at tol 0 would turn these products genuine.
    rng = np.random.default_rng(7)
    for _ in range(400):
        state = split_product(rng, 2, (1,))
        assert_leaf_matches_reference(state, tol)


def test_first_of_tied_groups_is_the_pivot():
    # Across {1,2}|{3,4} the groups are (1, 0, 0, 0), (1, d, 0, 0),
    # (1, -d, 0, 0), (1, -d, 0, 0) with d = 3 tol / 4, all of largest modulus
    # 1.  Against the first every cross minor is d; against the last, the
    # second group's is 2d, more than tol.
    d = 0.75e-9
    state = StateVector(4, [1, 0, 0, 0, 1, d, 0, 0, 1, -d, 0, 0, 1, -d, 0, 0])
    assert (1, 2) in [w.partition.block_a for w in all_factorizations(state)]
    assert_leaf_matches_reference(state, 1e-9)


# Small Gaussian integers and their unit multiples: exact zeros, ties in
# the groups' largest moduli (the first maximum is the pivot) and exactly
# proportional groups all occur often.
entries = st.sampled_from([0, 0, 1, -1, 1j, -1j, 2, 1 + 1j, 3 - 2j, 0.5 - 0.25j])


def integer_states(draw, n):
    return StateVector(n, draw(st.lists(entries, min_size=1 << n, max_size=1 << n)))


@st.composite
def leaf_states(draw):
    """A state of small-integer amplitudes, or a product of two such
    factors across a candidate split."""
    n = draw(st.integers(2, 4))
    block = draw(st.sampled_from((None,) + CANDIDATE_SPLITS[n]))
    if block is None:
        return integer_states(draw, n)
    rest = tuple(q for q in range(1, n + 1) if q not in block)
    return product_state(
        [(block, integer_states(draw, len(block))), (rest, integer_states(draw, len(rest)))]
    )


def verdict_and_split(verdict):
    witness = verdict.witness
    return verdict.genuinely_entangled, witness and witness.partition


@settings(max_examples=300, deadline=None)
@given(
    state=leaf_states(),
    tol=st.sampled_from(TOLERANCES),
    exponent=st.integers(-300, 300),
)
def test_small_integer_states_match_reference(state, tol, exponent):
    assert_leaf_matches_reference(state, tol)
    # Rescaling rounds every amplitude, and at tol 0 rounding alone decides.
    if tol:
        scaled = StateVector(state.num_qubits, state.amplitudes * 10.0**exponent)
        assert verdict_and_split(detect_base(scaled, tol)) == verdict_and_split(
            detect_base(state, tol)
        )


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310, 5e-324])
def test_huge_and_tiny_two_qubit_states(scale):
    # Unscaled, the cross minors of such states overflow or underflow.
    assert detect_base(StateVector(2, np.array([1, 0, 0, 1]) * scale)).genuinely_entangled
    assert not detect_base(StateVector(2, np.array([1, 2, 3, 6]) * scale)).genuinely_entangled


def test_product_whose_moduli_overflow():
    # Both parts are finite, the modulus of each amplitude is not.
    state = StateVector(2, np.full(4, 1.5e308 + 1.5e308j))
    assert not detect_base(state).genuinely_entangled


@pytest.mark.parametrize("blocks", [[(1, 2), (3, 4)], [(1, 2, 3), (4, 5, 6)]])
def test_huge_products_are_not_certified(blocks):
    product = random_product_state(np.random.default_rng(0), blocks)
    state = StateVector(product.num_qubits, product.amplitudes * 1e160)
    assert detect(state).kind is not VerdictKind.GENUINE


def test_shortcut_does_not_certify_a_huge_product():
    product = random_product_state(np.random.default_rng(0), [(1,), (2, 3)])
    assert not sufficient_3q(StateVector(3, product.amplitudes * 1e160)).certified
