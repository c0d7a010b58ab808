import gc
import weakref

import numpy as np
import pytest

from qubitloss import (
    Bipartition,
    StateVector,
    VerdictKind,
    all_factorizations,
    all_projections,
    basis_state,
    cluster4,
    coefficient_groups,
    detect_2q,
    detect_3q,
    detect_4q,
    detect_base,
    entanglement_measure,
    example3_4q,
    family_proportional,
    ghz,
    numerical_rank,
    oracle_genuine,
    phi4,
    product_state,
    sufficient_3q,
    unfold,
    w_state,
    wclass_3q,
)
from qubitloss.base import CANDIDATE_SPLITS
from helpers import random_bipartition_blocks, random_dense, random_product

# Hand-enumerated index groupings for every candidate split, to pin the
# programmatic bit-mask generation against transcription errors.
HAND_GROUPS = {
    (2, (1,)): [(0, 1), (2, 3)],
    (3, (1,)): [(0, 1, 2, 3), (4, 5, 6, 7)],
    (3, (2,)): [(0, 1, 4, 5), (2, 3, 6, 7)],
    (3, (3,)): [(0, 2, 4, 6), (1, 3, 5, 7)],
    (4, (1,)): [tuple(range(8)), tuple(range(8, 16))],
    (4, (2,)): [(0, 1, 2, 3, 8, 9, 10, 11), (4, 5, 6, 7, 12, 13, 14, 15)],
    (4, (3,)): [(0, 1, 4, 5, 8, 9, 12, 13), (2, 3, 6, 7, 10, 11, 14, 15)],
    (4, (4,)): [(0, 2, 4, 6, 8, 10, 12, 14), (1, 3, 5, 7, 9, 11, 13, 15)],
    (4, (1, 2)): [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15)],
    (4, (1, 3)): [(0, 1, 4, 5), (2, 3, 6, 7), (8, 9, 12, 13), (10, 11, 14, 15)],
    # The {1,4}|{2,3} family is conventionally written grouped by the
    # complementary block {2,3}; both groupings are transposes of one
    # unfolding and decide the same rank-1 condition.
    (4, (2, 3)): [(0, 1, 8, 9), (2, 3, 10, 11), (4, 5, 12, 13), (6, 7, 14, 15)],
    (4, (1, 4)): [(0, 2, 4, 6), (1, 3, 5, 7), (8, 10, 12, 14), (9, 11, 13, 15)],
}


def test_generated_groups_match_hand_enumeration():
    for (n, block), expected in HAND_GROUPS.items():
        got = [tuple(g) for g in coefficient_groups(n, block)]
        assert got == [tuple(g) for g in expected], f"split {block} of {n}"


def test_mixed_pair_split_groupings_are_transposes():
    rows = [tuple(g) for g in coefficient_groups(4, (1, 4))]
    cols = [tuple(g) for g in coefficient_groups(4, (2, 3))]
    transposed = [tuple(row[j] for row in cols) for j in range(4)]
    assert rows == transposed


def test_groups_are_not_kept_after_use():
    # At n = 22 each split's index array takes 32 MiB; only the leaf's
    # gather tables, built from them once per qubit count, are cached.
    rows = coefficient_groups(12, (1,))
    assert not rows[0].flags.writeable
    held = weakref.ref(rows[0].base)
    del rows
    gc.collect()
    assert held() is None


class TestTwoQubits:
    def test_bell_entangled(self):
        assert detect_2q(StateVector(2, [1, 0, 0, 1])).genuinely_entangled

    def test_shifted_superposition_entangled(self):
        assert detect_2q(StateVector(2, [1, 1, 0, -1])).genuinely_entangled

    def test_uniform_plane_is_product(self):
        verdict = detect_2q(StateVector(2, [1, 1, 1, 1]))
        assert not verdict.genuinely_entangled
        assert verdict.witness.partition.block_a == (1,)
        assert verdict.witness.partition.block_b == (2,)

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            detect_2q(ghz(3))


class TestThreeQubits:
    def test_ghz_genuine(self):
        assert detect_3q(ghz(3)).genuinely_entangled

    def test_lone_qubit_times_bell(self):
        s = product_state([((1,), basis_state("0")), ((2, 3), ghz(2))])
        verdict = detect_3q(s)
        assert not verdict.genuinely_entangled
        assert verdict.witness.partition.block_a == (1,)

    def test_three_term_state_genuine(self):
        assert detect_3q(StateVector(3, [1, 0, 0, 1, 0, 0, 0, -1])).genuinely_entangled

    def test_wclass_genuine(self):
        assert detect_3q(wclass_3q()).genuinely_entangled


class TestFourQubits:
    def test_literal_three_term_state(self):
        assert detect_4q(example3_4q()).genuinely_entangled

    def test_phi4_and_cluster(self):
        assert detect_4q(phi4()).genuinely_entangled
        assert detect_4q(cluster4()).genuinely_entangled

    def test_interleaved_product_witness(self):
        bell = StateVector(2, [1, 0, 0, 1])
        flipped = StateVector(2, [0, 1, 1, 0])
        # Both factors entangled: only the {1,3}|{2,4} split separates.
        s = product_state([((1, 3), bell), ((2, 4), flipped)])
        verdict = detect_4q(s)
        assert not verdict.genuinely_entangled
        assert verdict.witness.partition.block_a == (1, 3)
        # the oracle confirms rank 1 on that bipartition
        assert numerical_rank(unfold(s, verdict.witness.partition)) == 1

    def test_basis_second_factor_reports_earliest_split(self):
        bell = StateVector(2, [1, 0, 0, 1])
        s = product_state([((1, 3), bell), ((2, 4), basis_state("01"))])
        verdict = detect_4q(s)
        # Qubit 2 is a lone |0> factor, so the single-qubit split comes
        # first in reporting order; the interleaved cut is still listed.
        assert verdict.witness.partition.block_a == (2,)
        blocks = [w.partition.block_a for w in all_factorizations(s)]
        assert (1, 3) in blocks and (2,) in blocks and (4,) in blocks

    def test_fully_product_reports_first_split_but_all_are_found(self):
        s = basis_state("0000")
        verdict = detect_4q(s)
        assert verdict.witness.partition.block_a == (1,)
        assert len(all_factorizations(s)) == 7

    def test_five_qubits_are_out_of_range(self):
        with pytest.raises(ValueError, match=r"^exact tests cover 2\.\.4 qubits, got 5$"):
            detect_base(ghz(5))


class TestAgainstOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dense_and_product_states(self, rng, n):
        for trial in range(1000):
            if trial % 2 == 0:
                s = random_dense(rng, n)
            else:
                blocks = random_bipartition_blocks(rng, n)
                s = random_product(rng, blocks)
            verdict = detect_base(s)
            assert verdict.genuinely_entangled == oracle_genuine(s)
            if verdict.witness is not None:
                assert numerical_rank(unfold(s, verdict.witness.partition)) == 1

    def test_catalog_states(self):
        for s in (ghz(3), ghz(4), w_state(3), w_state(4), phi4(), cluster4(),
                  wclass_3q(), example3_4q()):
            assert detect_base(s).genuinely_entangled == oracle_genuine(s)

    def test_verdict_scale_invariant(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            s = random_dense(rng, n) if rng.random() < 0.5 else random_product(
                rng, random_bipartition_blocks(rng, n)
            )
            lam = complex(rng.normal(), rng.normal())
            scaled = StateVector(n, s.amplitudes * lam)
            v1, v2 = detect_base(s), detect_base(scaled)
            assert v1.genuinely_entangled == v2.genuinely_entangled
            if v1.witness is not None:
                assert v1.witness.partition == v2.witness.partition


class TestZeroState:
    """The zero vector is 0 (x) psi across every cut, so the leaf's own rule
    finds every candidate split proportional, with an all-zero family."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_candidate_split_factors(self, n):
        found = all_factorizations(StateVector(n, np.zeros(1 << n)))
        assert [w.partition.block_a for w in found] == list(CANDIDATE_SPLITS[n])
        for w in found:
            assert not any(any(row) for row in w.family)
            assert family_proportional(w.family)

    @pytest.mark.parametrize("n, detect_n", [(2, detect_2q), (3, detect_3q), (4, detect_4q)])
    def test_not_genuine_with_the_first_split(self, n, detect_n):
        zero = StateVector(n, np.zeros(1 << n))
        first = all_factorizations(zero)[0]
        for verdict in (detect_base(zero), detect_n(zero)):
            assert not verdict.genuinely_entangled
            assert verdict.witness == first

    def test_sufficient_3q_certifies_nothing(self):
        check = sufficient_3q(StateVector(3, np.zeros(8)))
        assert check.table == ("zero", "zero", "zero")
        assert not check.certified
        assert check.verdict.kind is VerdictKind.NOT_GENUINE
        assert check.verdict.witness.partition == Bipartition((1,), (2, 3))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (0, 0), (0, 3), (3, 0)])
    def test_rank_of_a_zero_or_empty_matrix(self, shape):
        assert numerical_rank(np.zeros(shape)) == 0


class TestSufficientThreeQubit:
    def test_ghz_fully_certified(self):
        check = sufficient_3q(ghz(3))
        assert check.per_projection_entangled == (True, True, True)
        assert check.certified

    def test_wclass_not_certified_despite_being_genuine(self):
        check = sufficient_3q(wclass_3q())
        assert check.per_projection_entangled == (False, False, False)
        assert not check.certified
        assert detect_3q(wclass_3q()).genuinely_entangled

    def test_basis_state_not_certified(self):
        check = sufficient_3q(basis_state("000"))
        assert check.per_projection_entangled == (False, False, False)
        assert not check.certified

    def test_zero_state_not_certified(self):
        check = sufficient_3q(StateVector(3, np.zeros(8)))
        assert check.per_projection_entangled == (False, False, False)
        assert not check.certified

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            sufficient_3q(ghz(4))

    def test_matches_projection_then_two_qubit_test(self, rng):
        for _ in range(1000):
            s = random_dense(rng, 3)
            check = sufficient_3q(s)
            direct = tuple(
                detect_2q(res.state).genuinely_entangled
                for res in all_projections(s)
            )
            assert check.per_projection_entangled == direct
            measured = entanglement_measure(s).per_qubit
            assert check.per_projection_entangled == tuple(
                v.kind is VerdictKind.GENUINE for v in measured
            )
            if check.certified:
                assert detect_3q(s).genuinely_entangled

    @pytest.mark.parametrize("eps", [1e-13, 1e-14, 1e-15])
    def test_near_cancelling_product_not_certified(self, eps):
        # Each projection of |->|->|-> plus tiny noise is at most 2 eps:
        # it vanishes, and a vanished projection is a product.
        minus = np.array([1, -1]) / np.sqrt(2)
        product = np.kron(np.kron(minus, minus), minus)
        for seed in range(20):
            noise = np.random.default_rng(seed).random(8)
            s = StateVector(3, product + eps * noise)
            check = sufficient_3q(s)
            assert check.per_projection_entangled == (False, False, False)
            assert not check.certified
            assert entanglement_measure(s).genuine_count == 0

    def test_certified_implies_genuine_on_products_too(self, rng):
        for _ in range(300):
            blocks = random_bipartition_blocks(rng, 3)
            s = random_product(rng, blocks)
            if sufficient_3q(s).certified:
                assert detect_3q(s).genuinely_entangled
