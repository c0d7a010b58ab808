import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitloss import (
    DEFAULT_ZERO_RTOL,
    StateVector,
    all_projections,
    basis_state,
    detect,
    detect_2q,
    equal_up_to_scale,
    ghz,
    example3_4q,
    lose_qubit,
    lose_qubit_set,
    oracle_genuine,
    random_state,
    tensor,
    w_state,
    wclass_3q,
)
from qubitloss.states import largest_modulus, unit_scale
from helpers import project_by_bits, random_partition_blocks, random_product


class TestLoseQubit:
    def test_bell_loses_to_uniform_superposition(self):
        bell = StateVector(2, [1, 0, 0, 1])
        res = lose_qubit(bell, 2)
        np.testing.assert_allclose(res.state.amplitudes, [1, 1])
        assert not res.is_zero
        assert res.lost_qubit == 2

    def test_wclass_loses_to_product_plane(self):
        for k in (1, 2, 3):
            res = lose_qubit(wclass_3q(), k)
            np.testing.assert_allclose(res.state.amplitudes, [1, 1, 1, 1])

    def test_four_qubit_literal_lose_first(self):
        res = lose_qubit(example3_4q(), 1)
        np.testing.assert_allclose(res.state.amplitudes, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_four_qubit_literal_lose_others(self):
        expected = [1, 0, 0, 1, 0, 0, 0, -1]
        for k in (2, 3, 4):
            res = lose_qubit(example3_4q(), k)
            np.testing.assert_allclose(res.state.amplitudes, expected)

    def test_errors(self):
        with pytest.raises(ValueError):
            lose_qubit(basis_state("0"), 1)
        with pytest.raises(ValueError):
            lose_qubit(ghz(3), 0)
        with pytest.raises(ValueError):
            lose_qubit(ghz(3), 4)

    def test_overflowing_projection_is_rejected(self):
        huge = StateVector(6, np.full(64, 1e308))
        with np.errstate(over="ignore"):
            overflow = r"losing qubit 1 from \{1,2,3,4,5,6\} .* not finite \(the sums overflow\)"
            with pytest.raises(ValueError, match=overflow):
                lose_qubit(huge, 1)
            with pytest.raises(ValueError, match="finite"):
                detect(huge)

    def test_zero_detection_is_scale_relative(self):
        minus = StateVector(1, [1, -1])
        s = tensor(minus, StateVector(2, [1, 0, 0, 1]))
        assert lose_qubit(s, 1).is_zero
        big = StateVector(3, s.amplitudes * 1e30)
        assert lose_qubit(big, 1).is_zero
        assert not lose_qubit(s, 2).is_zero

    def test_matches_bit_splicing_reimplementation(self, rng):
        for n in range(2, 9):
            s = random_state(rng, n)
            for k in range(1, n + 1):
                np.testing.assert_array_equal(
                    lose_qubit(s, k).state.amplitudes, project_by_bits(s, k)
                )

    def test_linearity(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            s, t = random_state(rng, n), random_state(rng, n)
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            combo = StateVector(n, alpha * s.amplitudes + beta * t.amplitudes)
            k = int(rng.integers(1, n + 1))
            direct = lose_qubit(combo, k).state.amplitudes
            split = (
                alpha * lose_qubit(s, k).state.amplitudes
                + beta * lose_qubit(t, k).state.amplitudes
            )
            scale = np.abs(direct).max() + np.abs(split).max()
            assert np.abs(direct - split).max() <= 1e-12 * max(scale, 1.0)

    def test_losses_commute(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 7))
            s = random_state(rng, n)
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    if j == k:
                        continue
                    # Lose k first, then j in the reduced labeling.
                    j_after_k = j - 1 if j > k else j
                    k_after_j = k - 1 if k > j else k
                    a = lose_qubit(lose_qubit(s, k).state, j_after_k).state.amplitudes
                    b = lose_qubit(lose_qubit(s, j).state, k_after_j).state.amplitudes
                    assert np.abs(a - b).max() <= 1e-12 * max(np.abs(a).max(), 1.0)


class TestAllProjections:
    def test_ghz_projections_stay_ghz(self):
        for res in all_projections(ghz(3)):
            assert equal_up_to_scale(res.state, ghz(2))

    def test_basis_state_projections_are_products(self):
        for res in all_projections(basis_state("000")):
            assert not detect_2q(res.state).genuinely_entangled

    def test_w4_projection_formula(self):
        expected = math.sqrt(3 / 4) * w_state(3).amplitudes
        expected = expected + (1 / 2) * basis_state("000").amplitudes
        for res in all_projections(w_state(4)):
            assert equal_up_to_scale(res.state, StateVector(3, expected), tol=1e-12)

    def test_order_and_length(self, rng):
        s = random_state(rng, 5)
        results = all_projections(s)
        assert [r.lost_qubit for r in results] == [1, 2, 3, 4, 5]
        for k, r in enumerate(results, start=1):
            np.testing.assert_array_equal(
                r.state.amplitudes, lose_qubit(s, k).state.amplitudes
            )


class TestLoseQubitSet:
    def test_ghz5_down_to_bell(self):
        out = lose_qubit_set(ghz(5), {1, 3, 5})
        assert equal_up_to_scale(out, ghz(2))

    def test_w_chain_endpoint(self):
        # W(n) reduced to two qubits is |01> + |10> + (n-2)|00>, rescaled.
        for n in range(4, 9):
            out = lose_qubit_set(w_state(n), range(1, n - 1))
            expected = StateVector(2, [n - 2, 1, 1, 0])
            assert equal_up_to_scale(out, expected, tol=1e-12)

    def test_two_term_states_keep_their_two_terms(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            bits = rng.integers(0, 2, size=n)
            idx = int("".join(map(str, bits)), 2)
            comp = (1 << n) - 1 - idx
            alpha, beta = complex(1.3, -0.2), complex(-0.4, 0.9)
            amps = np.zeros(1 << n, dtype=complex)
            amps[idx], amps[comp] = alpha, beta
            keep = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            lose = [q for q in range(1, n + 1) if q not in keep]
            out = lose_qubit_set(StateVector(n, amps), lose)
            z = (bits[keep[0] - 1] << 1) | bits[keep[1] - 1]
            assert out.amplitudes[z] == alpha
            assert out.amplitudes[3 - z] == beta

    def test_order_independence_against_manual_orders(self, rng):
        s = random_state(rng, 6)
        via_set = lose_qubit_set(s, (2, 5, 3))
        # Apply the same losses in a different order by hand: 5, 2, 3
        # with explicit index remapping at each step.
        manual = lose_qubit(s, 5).state
        manual = lose_qubit(manual, 2).state
        manual = lose_qubit(manual, 2).state  # original 3 after losing 2 and 5
        np.testing.assert_allclose(manual.amplitudes, via_set.amplitudes, atol=1e-14)

    def test_errors(self):
        with pytest.raises(ValueError):
            lose_qubit_set(ghz(4), set())
        with pytest.raises(ValueError):
            lose_qubit_set(ghz(4), {1, 2, 3})
        with pytest.raises(ValueError):
            lose_qubit_set(ghz(4), {5})

    def test_overflow_names_the_input_label(self):
        # |00000> + |01010> at 1e308: the sums overflow once qubits 2 and 4
        # are both lost, and qubit 4 is then the third of {1,3,4,5}.
        huge = StateVector(5, np.isin(np.arange(32), (0b00000, 0b01010)) * 1e308)
        assert not lose_qubit(huge, 4).is_zero
        with np.errstate(over="ignore"):
            overflow = r"losing qubit 4 from \{1,3,4,5\} .* \(the sums overflow\)"
            with pytest.raises(ValueError, match=overflow):
                lose_qubit_set(huge, (2, 4))


class TestProductStateProjections:
    def test_at_most_one_genuine_projection(self, rng):
        # Projections of a product state: at most one can be genuinely
        # entangled (the one whose loss removes a lone-qubit factor).
        trials = 0
        while trials < 1000:
            n = int(rng.integers(3, 7))
            blocks = random_partition_blocks(rng, n)
            s = random_product(rng, blocks)
            trials += 1
            genuine = 0
            for res in all_projections(s):
                if res.is_zero:
                    continue
                if res.state.num_qubits >= 2 and oracle_genuine(res.state):
                    genuine += 1
            assert genuine <= 1, f"blocks {blocks}"

    def test_all_projections_product_without_lone_qubit_factor(self, rng):
        # If no factorization leaves a single qubit against a genuinely
        # entangled remainder, every projection is a product (or zero).
        for _ in range(300):
            n = int(rng.integers(4, 7))
            blocks = random_partition_blocks(rng, n, max_block=n - 2)
            s = random_product(rng, blocks)
            for res in all_projections(s):
                if res.is_zero or res.state.num_qubits < 2:
                    continue
                assert not oracle_genuine(res.state), f"blocks {blocks}"

    def test_lone_qubit_times_entangled_block_is_the_exception(self, rng):
        # The excluded pattern really does produce one genuine projection.
        for _ in range(20):
            n = int(rng.integers(4, 7))
            s = random_product(rng, [(1,), tuple(range(2, n + 1))])
            res = lose_qubit(s, 1)
            assert oracle_genuine(res.state)


# Scales of the largest modulus, up to a factor of two: subnormal, normal,
# huge, and close enough to the float maximum that one to four losses can
# overflow.
SCALES = (1e-310, 1.0, 1e300, 5e307, 1.7e308)


@st.composite
def loss_chains(draw):
    """A state and one to four qubit positions to lose from it in turn.

    Shapes: dense; equal moduli, so that many sums near the float maximum
    overflow; half the amplitudes zero; the first loss's first sum an
    exact zero, so the zero rule takes the largest moduli; and the first
    loss cancelling to 1e-14..1e-10 of the state, near the zero threshold.
    """
    n = draw(st.integers(2, 7))
    steps = draw(st.integers(1, min(4, n - 1)))
    positions = [draw(st.integers(1, n - j)) for j in range(steps)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    pairs = amps.reshape(1 << (positions[0] - 1), 2, -1)
    shape = draw(st.sampled_from(
        ["dense", "phases", "half-zero", "first-zero", "near-threshold"]
    ))
    if shape == "phases":
        amps = np.exp(2j * np.pi * rng.random(amps.size))
    elif shape == "half-zero":
        amps[rng.random(amps.size) < 0.5] = 0
    elif shape == "first-zero":
        pairs[0, 1, 0] = -pairs[0, 0, 0]
    elif shape == "near-threshold":
        # Unit moduli, so the first sum is as large as any and the zero rule's
        # screen, not its fallback, decides most of these.
        noise = np.exp(2j * np.pi * rng.random(pairs[:, 0].shape))
        pairs[:, 1] = -pairs[:, 0] + 10.0 ** draw(st.floats(-14, -10)) * noise
    amps *= unit_scale(largest_modulus(amps))  # largest modulus in [0.5, 1)
    amps *= draw(st.sampled_from(SCALES))
    return StateVector(n, amps), positions


@settings(max_examples=400, deadline=None)
@given(chain=loss_chains())
def test_kernel_matches_reference_projection_and_zero_rule(chain):
    state, positions = chain
    with np.errstate(over="ignore"):
        for k in positions:
            expected = project_by_bits(state, k)
            if not np.isfinite(expected.view(np.float64)).all():
                with pytest.raises(ValueError, match="the sums overflow"):
                    lose_qubit(state, k)
                return
            res = lose_qubit(state, k)
            assert np.array_equal(
                res.state.amplitudes.view(np.uint64), expected.view(np.uint64)
            )
            vanished = largest_modulus(expected) <= DEFAULT_ZERO_RTOL * largest_modulus(
                state.amplitudes
            )
            assert type(res.is_zero) is bool and res.is_zero == vanished
            state = res.state


def _near_cancelling(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Amplitudes on n qubits whose pairs across qubit k cancel to a relative
    1e-13..1e-11, one order per state, times a scale in 1e-300..1e300.  In
    one draw of two the first amplitude is the largest, at phase pi/4, so
    its modulus is sqrt(2) times the largest part and the screen settles
    near its threshold; in one of four the first pair cancels exactly, so
    the screen cannot settle it."""
    d = 1 << (n - 1)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    delta = 10.0 ** rng.uniform(-13, -11) * rng.uniform(0.5, 1, d)
    delta = delta * np.exp(2j * np.pi * rng.random(d))
    if rng.random() < 0.5:
        x[0] = 2 * np.abs(x).max() * np.exp(0.25j * np.pi)
    if rng.random() < 0.25:
        delta[0] = 0.0
    pairs = np.empty((1 << (k - 1), 2, 1 << (n - k)), dtype=complex)
    pairs[:, 0] = x.reshape(1 << (k - 1), -1)
    pairs[:, 1] = -(x * (1 + delta)).reshape(1 << (k - 1), -1)
    return pairs.reshape(-1) * 10.0 ** rng.uniform(-300, 300)


def test_zero_screen_matches_the_reference_rule():
    # A built state bounds its parts by its largest part, which may be
    # 1/sqrt(2) of its largest modulus, so its screen threshold is lower
    # than a modulus would give.  Every projection's is_zero must still be
    # the reference rule on the arrays themselves, for built states and
    # for projections of 1-qubit-larger states.
    rng = np.random.default_rng(7)
    outcomes, settled = set(), set()
    for _ in range(300):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        amps = _near_cancelling(rng, n, k)
        r = (rng.standard_normal(amps.size) + 1j * rng.standard_normal(amps.size)) * np.abs(amps)
        wider = StateVector(n + 1, np.stack([amps / 2 + r, amps / 2 - r], axis=-1))
        for state in (StateVector(n, amps), lose_qubit(wider, n + 1).state):
            for lost in range(1, n + 1):
                res = lose_qubit(state, lost)
                threshold = DEFAULT_ZERO_RTOL * largest_modulus(state.amplitudes)
                vanished = largest_modulus(res.state.amplitudes) <= threshold
                assert res.is_zero == vanished, (n, k, lost)
                if lost == k:
                    outcomes.add(vanished)
                    settled.add(res.state._max_abs is None)
    # Both answers occur on the near-cancelling qubit, and both the screen
    # and the fallback decide some of them.
    assert outcomes == {True, False} and settled == {True, False}
