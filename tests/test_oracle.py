import itertools

import numpy as np
import pytest

from qubitloss import (
    Bipartition,
    StateVector,
    basis_state,
    coefficient_groups,
    detect_base,
    dumps_state,
    find_product_cut,
    ghz,
    load_state,
    numerical_rank,
    oracle_genuine,
    partial_trace,
    ppt_2qubit,
    product_state,
    random_state,
    unfold,
    w_state,
)
from qubitloss.cli import main
from helpers import random_bipartition_blocks, random_product


class TestUnfold:
    def test_bell_identity_layout(self):
        m = unfold(StateVector(2, [1, 0, 0, 1]), (1,))
        np.testing.assert_array_equal(m, np.eye(2))

    def test_rows_are_the_grouped_coefficient_vectors(self, rng):
        # coefficient_groups is unfold of the index array; its rows must
        # pick out unfold's rows of the amplitudes.
        for n, blocks in ((3, [(1,), (2,), (3,)]), (4, [(1,), (2,), (1, 3), (1, 4)])):
            s = random_state(rng, n)
            for block in blocks:
                m = unfold(s, block)
                groups = coefficient_groups(n, block)
                for row, g in zip(m, groups):
                    np.testing.assert_array_equal(row, s.amplitudes[g])

    def test_transposing_the_partition_transposes_the_matrix(self, rng):
        s = random_state(rng, 5)
        for block_a, block_b in [((1,), (2, 3, 4, 5)), ((1, 3), (2, 4, 5))]:
            np.testing.assert_array_equal(
                unfold(s, block_a), unfold(s, block_b).T
            )

    def test_rejects_partition_not_covering_state(self):
        part = Bipartition((1,), (2,))
        with pytest.raises(ValueError):
            unfold(ghz(3), part)


class TestNumericalRank:
    def test_rank_counts(self):
        assert numerical_rank(np.eye(3)) == 3
        assert numerical_rank(np.zeros((2, 2))) == 0
        assert numerical_rank(np.outer([1, 2], [3, 4j])) == 1

    def test_threshold_is_relative(self):
        m = np.diag([1.0, 1e-12])
        assert numerical_rank(m, tol=1e-9) == 1
        assert numerical_rank(m, tol=1e-15) == 2


class TestOracle:
    def test_ghz_genuine(self):
        assert oracle_genuine(ghz(3))

    def test_lone_qubit_cut_found(self):
        s = product_state([((1,), basis_state("0")), ((2, 3), ghz(2))])
        cut = find_product_cut(s)
        assert cut is not None and cut.block_a == (1,)
        assert not oracle_genuine(s)

    def test_interleaved_product_cut_found(self, rng):
        s = product_state(
            [((1, 3), random_state(rng, 2)), ((2, 4), random_state(rng, 2))]
        )
        cut = find_product_cut(s)
        assert cut is not None
        assert cut.block_a in ((1, 3), (2, 4))

    def test_constructed_cut_is_rank_one(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            block_a, block_b = random_bipartition_blocks(rng, n)
            s = random_product(rng, [block_a, block_b])
            assert not oracle_genuine(s)
            part = Bipartition(block_a, block_b)
            assert numerical_rank(unfold(s, part)) == 1

    def test_agrees_with_exact_small_tests_both_ways(self, rng):
        for _ in range(400):
            n = int(rng.integers(2, 5))
            if rng.random() < 0.5:
                s = random_state(rng, n)
            else:
                s = random_product(rng, random_bipartition_blocks(rng, n))
            assert oracle_genuine(s) == detect_base(s).genuinely_entangled

    def test_size_gate(self):
        with pytest.raises(ValueError, match="gated"):
            oracle_genuine(ghz(13))

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            oracle_genuine(StateVector(2, [0, 0, 0, 0]))

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    @pytest.mark.parametrize("largest", [1e308, 1e-310])
    def test_extreme_scales(self, capsys, tmp_path, largest, tol):
        # At 1e308 the largest singular value overflowed: the scan called
        # this genuinely entangled state a product across {1}|{2,...,6}.
        s = random_state(np.random.default_rng(0), 6)
        path = tmp_path / "scaled.state"
        path.write_text(dumps_state(StateVector(6, s.amplitudes / np.abs(s.amplitudes).max() * largest)))
        assert find_product_cut(load_state(path), tol) is None
        assert main(["oracle", "--file", str(path), "--tol", str(tol)]) == 0
        assert capsys.readouterr().err == ""


class TestPartialTrace:
    def test_bell_reduction_is_maximally_mixed(self):
        rho = partial_trace(ghz(2), (1,))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_basis_state_reduction_is_pure(self):
        rho = partial_trace(basis_state("00"), (1,))
        np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-15)

    def test_ghz3_two_qubit_reduction(self):
        rho = partial_trace(ghz(3), (1, 2))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_density_matrix_properties(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            s = random_state(rng, n)
            size = int(rng.integers(1, n))
            keep = tuple(
                sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False))
            )
            rho = partial_trace(s, keep)
            assert np.abs(rho - rho.conj().T).max() < 1e-10
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_invalid_subsets(self):
        with pytest.raises(ValueError):
            partial_trace(ghz(3), ())
        with pytest.raises(ValueError):
            partial_trace(ghz(3), (1, 2, 3))


class TestPpt:
    def test_ghz3_reductions_separable(self):
        for keep in ((1, 2), (1, 3), (2, 3)):
            assert ppt_2qubit(partial_trace(ghz(3), keep))

    def test_w3_reductions_entangled(self):
        for keep in ((1, 2), (1, 3), (2, 3)):
            assert not ppt_2qubit(partial_trace(w_state(3), keep))

    def test_maximally_mixed_separable(self):
        assert ppt_2qubit(np.eye(4) / 4)

    def test_pure_bell_density_entangled(self):
        psi = ghz(2).amplitudes
        assert not ppt_2qubit(np.outer(psi, psi.conj()))

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            ppt_2qubit(bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ppt_2qubit(np.eye(8) / 8)

    @pytest.mark.parametrize("scale", [1e308, 1e-320, 5e-324])
    def test_extreme_scales_decide_as_scale_one(self, scale):
        # Unscaled, the trace of 1e308 times the Bell projector overflows and
        # rho / inf, the zero matrix, passes; 1e-320 I failed to converge.
        bell = np.zeros((4, 4))
        bell[np.ix_([0, 3], [0, 3])] = 1.0
        assert not ppt_2qubit(scale * bell)
        assert ppt_2qubit(scale * np.eye(4))


class TestPptHermiticityIsRelative:
    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-20, 1e20])
    def test_rejects_one_triangle_at_any_scale(self, scale):
        # With the scale floored at 1, 1e-12 of this matrix read separable.
        bad = np.eye(4)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="^density matrix is not Hermitian within tolerance$"):
            ppt_2qubit(scale * bad)

    def test_reductions_of_pure_states_pass_at_any_scale(self, rng):
        states = [ghz(n) for n in range(3, 7)] + [w_state(n) for n in range(3, 7)]
        for n in range(3, 7):
            for _ in range(8):
                states.append(random_state(rng, n))
                states.append(random_product(rng, random_bipartition_blocks(rng, n)))
        checked = 0
        for state in states:
            for keep in itertools.combinations(range(1, state.num_qubits + 1), 2):
                rho = partial_trace(state, keep)
                separable = ppt_2qubit(rho)
                # Powers of two scale exactly, so the answer cannot move.
                assert ppt_2qubit(2.0**-70 * rho) is separable
                assert ppt_2qubit(2.0**70 * rho) is separable
                checked += 1
        assert checked == 18 * (3 + 6 + 10 + 15)  # 18 states of each size


class TestNonFiniteMatrices:
    # An infinite entry read rank 0 (with a RuntimeWarning) and "separable";
    # a NaN entry raised LinAlgError.
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_numerical_rank_rejects(self, bad):
        m = np.array([[1, 0], [0, 1]], dtype=complex)
        m[0, 1] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            numerical_rank(m)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_ppt_rejects(self, bad):
        rho = np.eye(4, dtype=complex) / 4
        rho[2, 2] = bad
        with pytest.raises(ValueError, match="^density matrix entries must be finite$"):
            ppt_2qubit(rho)
        with pytest.raises(ValueError, match="^density matrix entries must be finite$"):
            ppt_2qubit(np.full((4, 4), bad))


class TestOracleTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_bad_tolerance_rejected(self, tol):
        # NaN made oracle_genuine(ghz(3)) read False.
        rho = partial_trace(ghz(3), (1, 2))
        with pytest.raises(ValueError, match="tolerance"):
            numerical_rank(np.eye(2), tol)
        with pytest.raises(ValueError, match="tolerance"):
            find_product_cut(ghz(3), tol)
        with pytest.raises(ValueError, match="tolerance"):
            oracle_genuine(ghz(3), tol)
        with pytest.raises(ValueError, match="tolerance"):
            ppt_2qubit(rho, tol)

    def test_zero_tolerance_accepted(self):
        assert numerical_rank(np.diag([1.0, 1e-300]), 0.0) == 2
        assert oracle_genuine(ghz(3), 0.0)
        assert find_product_cut(basis_state("000"), 0.0) is not None
        assert ppt_2qubit(np.eye(4) / 4, 0.0)
