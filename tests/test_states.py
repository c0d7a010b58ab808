import json
import math
import re

import numpy as np
import pytest

from qubitloss import (
    MAX_QUBITS,
    Bipartition,
    StateVector,
    all_bipartitions,
    all_projections,
    basis_index,
    basis_state,
    cluster4,
    detect,
    dicke,
    dump_state,
    dumps_state,
    equal_up_to_scale,
    example3_4q,
    family_proportional,
    ghz,
    load_state,
    loads_state,
    lose_qubit,
    lose_qubit_set,
    max_cross_minor,
    named_state,
    numerical_rank,
    partial_trace,
    phi4,
    ppt_2qubit,
    product_state,
    random_state,
    replay_certificate,
    tensor,
    unfold,
    w_state,
)
from qubitloss import states
from qubitloss.states import ProjectionOverflow, largest_modulus
from helpers import near_cancelling, with_overflowing_moduli

S2 = 1.0 / math.sqrt(2.0)


def _with_part(part: str, value: float) -> np.ndarray:
    """Four unit amplitudes, the third with its ``part`` set to ``value``."""
    amps = np.ones(4, dtype=complex)
    getattr(amps, part)[2] = value
    return amps


class TestConstruction:
    def test_bell_type(self):
        s = StateVector(2, [1, 0, 0, 1])
        assert s.num_qubits == 2
        np.testing.assert_array_equal(s.amplitudes, [1, 0, 0, 1])

    def test_single_qubit(self):
        s = StateVector(1, [1, 0])
        assert s.num_qubits == 1

    def test_three_qubit_literal(self):
        s = StateVector(3, [1, 0, 0, 1, 0, 0, 0, -1])
        assert s.amplitude("000") == 1
        assert s.amplitude("011") == 1
        assert s.amplitude("111") == -1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 8"):
            StateVector(3, [1, 0, 0, 1])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector(1, [1, np.nan])
        with pytest.raises(ValueError, match="finite"):
            StateVector(1, [np.inf, 0])

    @pytest.mark.parametrize("amps", [
        _with_part("real", np.nan),
        _with_part("imag", np.nan),
        _with_part("real", np.inf),
        _with_part("real", -np.inf),
        _with_part("imag", -np.inf),
        np.array([1, 2, float("nan"), 3], dtype=object),
        np.array([1, 2, complex(0, float("inf")), 3], dtype=object),
    ], ids=["nan-real", "nan-imag", "inf", "-inf", "-inf-imag", "object-nan", "object-inf-imag"])
    def test_any_nonfinite_part_rejected(self, amps):
        # The part bound is taken in the finiteness pass: a NaN or an
        # infinity in either part must still fail it.
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            StateVector(2, amps)
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            StateVector.from_amplitudes(amps)

    @pytest.mark.parametrize("amps, zero", [
        (np.zeros(4), True),
        (np.full(4, complex(-0.0, -0.0)), True),
        ([0, 0, 5e-324, 0], False),
        ([0, 0, 0, 5e-324j], False),
        ([0, -5e-324, 0, 0], False),
    ], ids=["zeros", "negative-zeros", "subnormal", "subnormal-imag", "negative-subnormal"])
    def test_is_zero_of_a_built_state(self, amps, zero):
        assert StateVector(2, amps).is_zero() is zero

    def test_is_zero_of_a_projection_that_cancels_exactly(self):
        # Its parts are bounded by 4, not 0, so the bound alone cannot
        # tell; the state must still read as zero, and its sibling not.
        state = StateVector(2, [1, -1, 2, -2])
        res = lose_qubit(state, 2)
        assert res.is_zero and res.state.is_zero()
        assert np.array_equal(res.state.amplitudes, [0, 0])
        assert not lose_qubit(state, 1).is_zero and not lose_qubit(state, 1).state.is_zero()

    def test_part_bound_is_zero_exactly_for_the_zero_state(self):
        # Every state's bound caps its parts and is 0.0 exactly when it is
        # zero, built or projected, so ``is_zero`` reads the bound alone.
        rng = np.random.default_rng(11)
        minus_ghz = tensor(StateVector(1, [1, -1]), ghz(3))
        vanished = lose_qubit(minus_ghz, 1)
        assert vanished.is_zero
        cases = [
            StateVector(2, np.zeros(4)),
            random_state(rng, 5),
            StateVector(3, random_state(rng, 3).amplitudes * 5e-324),
            with_overflowing_moduli(ghz(4)),
            *(res.state for res in all_projections(random_state(rng, 5))),
            lose_qubit(with_overflowing_moduli(ghz(4)), 1).state,
            vanished.state,
            lose_qubit(vanished.state, 1).state,
            lose_qubit_set(random_state(rng, 6), [2, 5]),
            lose_qubit_set(minus_ghz, [1, 3]),
        ]
        settled = set()
        for _ in range(200):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            state = lose_qubit(StateVector(n, near_cancelling(rng, n, k)), k).state
            settled.add(state._max_abs is None)
            cases.append(state)
        assert settled == {True, False}
        for state in cases:
            amps = state.amplitudes
            assert state.is_zero() == (not amps.any())
            assert (state._bound == 0.0) == state.is_zero()
            assert np.abs(amps.view(np.float64)).max() <= state._bound
            assert state._max_abs is None or state._max_abs == largest_modulus(amps)

    def test_is_zero_of_a_settled_projection_takes_no_modulus(self, monkeypatch):
        res = lose_qubit(ghz(4), 2)  # |out[0]| = 1/sqrt(2) settles the screen
        assert res.state._max_abs is None

        def no_modulus(values):
            raise AssertionError("largest_modulus taken")

        monkeypatch.setattr(states, "largest_modulus", no_modulus)
        assert res.state.is_zero() is False

    def test_overflowing_moduli_project_as_before(self):
        # Parts of 1.5e308 are finite, their moduli are not.  A sum of one
        # such amplitude and a zero stays finite; two of them overflow.
        big = 1.5e308 * (1 + 1j)
        state = StateVector(2, [big, big, 0, 0])
        assert not state.is_zero()
        res = lose_qubit(state, 1)
        assert not res.is_zero and np.array_equal(res.state.amplitudes, [big, big])
        with pytest.raises(ProjectionOverflow, match=re.escape(
            "losing qubit 2 from {1,2} gives amplitudes that are not finite (the sums overflow)"
        )):
            lose_qubit(state, 2)

    @pytest.mark.parametrize("family, outcome", [
        (lambda: ghz(6), "genuine"),
        (lambda: dicke(4, 2), "genuine"),
        (cluster4, "not-genuine"),
        (lambda: w_state(6), "losing qubit 2 from {2,3,4,5,6}"),
        (lambda: dicke(6, 2), "losing qubit 2 from {2,3,4,5,6}"),
    ], ids=["ghz-6", "dicke-4-2", "cluster-4", "w-6", "dicke-6-2"])
    def test_overflowing_moduli_decide_or_raise(self, family, outcome):
        state = with_overflowing_moduli(family())
        if outcome.startswith("losing"):
            with pytest.raises(ProjectionOverflow, match=re.escape(outcome)):
                detect(state)
            return
        verdict = detect(state)
        assert verdict.kind == outcome
        if verdict.certificate is not None:
            assert replay_certificate(state, verdict.certificate)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            StateVector(0, [1])

    def test_immutable(self):
        s = StateVector(1, [1, 0])
        with pytest.raises(AttributeError):
            s.num_qubits = 2
        with pytest.raises(ValueError):
            s.amplitudes[0] = 5

    def test_numeric_amplitudes_of_any_kind_pass(self):
        # Python and NumPy ints, floats and complex numbers, and ints past
        # int64, which NumPy holds in an object array.
        mixed = [1, 2.5, 3j, np.float32(0.5), np.int8(-2), np.complex64(1j), 2**70, 0]
        want = [1, 2.5, 3j, 0.5, -2, 1j, 2.0**70, 0]
        np.testing.assert_array_equal(StateVector(3, mixed).amplitudes, want)
        np.testing.assert_array_equal(StateVector.from_amplitudes(mixed).amplitudes, want)

    def test_from_amplitudes_infers_count(self):
        assert StateVector.from_amplitudes([1, 0, 0, 1]).num_qubits == 2
        with pytest.raises(ValueError):
            StateVector.from_amplitudes([1, 0, 0])

    @pytest.mark.parametrize("state, text", [
        (ghz(3), "StateVector((0.707+0j)|000> + (0.707+0j)|111>)"),
        (ghz(7), "StateVector(num_qubits=7)"),
        (StateVector(2, np.zeros(4)), "StateVector(0)"),
    ], ids=["ghz-3", "ghz-7", "zero"])
    def test_repr(self, state, text):
        assert repr(state) == text


class TestIndexConvention:
    def test_qubit_one_is_most_significant(self):
        # |b1 b2 b3> lives at b1*4 + b2*2 + b3
        for i in range(8):
            bits = format(i, "03b")
            assert basis_index(bits) == i
            assert basis_state(bits).amplitudes[i] == 1

    def test_roundtrip_random_strings(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            bits = [int(b) for b in rng.integers(0, 2, size=n)]
            idx = sum(b << (n - 1 - i) for i, b in enumerate(bits))
            assert basis_index(bits, n) == idx


class TestCatalog:
    def test_ghz3_amplitudes(self):
        np.testing.assert_allclose(
            named_state("GHZ", 3).amplitudes, [S2, 0, 0, 0, 0, 0, 0, S2]
        )

    def test_phi4_amplitudes(self):
        amps = named_state("PHI4").amplitudes
        assert {i for i, a in enumerate(amps) if a != 0} == {1, 2, 12, 15}
        np.testing.assert_allclose(amps[[1, 2, 12, 15]], 0.5)

    def test_wclass_unnormalized(self):
        np.testing.assert_array_equal(
            named_state("WCLASS_3Q").amplitudes, [0, 1, 1, 0, 1, 0, 0, 1]
        )

    def test_example3_literal(self):
        amps = example3_4q().amplitudes
        assert amps[0] == 1 and amps[7] == 1 and amps[15] == -1
        assert np.count_nonzero(amps) == 3

    def test_cluster4(self):
        amps = cluster4().amplitudes
        np.testing.assert_allclose(amps[[0, 3, 12]], 0.5)
        assert amps[15] == -0.5

    def test_dicke_matches_w_at_one_excitation(self):
        for n in (3, 4, 5):
            np.testing.assert_allclose(
                dicke(n, 1).amplitudes, w_state(n).amplitudes
            )

    def test_dicke_2_4(self):
        amps = dicke(4, 2).amplitudes
        weight2 = [i for i in range(16) if bin(i).count("1") == 2]
        np.testing.assert_allclose(amps[weight2], 1 / math.sqrt(6))
        assert np.count_nonzero(amps) == 6

    def test_named_state_parses_dicke(self):
        np.testing.assert_allclose(
            named_state("DICKE(2)", 4).amplitudes, dicke(4, 2).amplitudes
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown catalog"):
            named_state("BELLISH", 2)

    def test_inconsistent_qubit_count(self):
        with pytest.raises(ValueError, match="^PHI4 is a 4-qubit state, got n=3$"):
            named_state("PHI4", 3)
        with pytest.raises(ValueError, match="^WCLASS_3Q is a 3-qubit state, got n=4$"):
            named_state("WCLASS_3Q", 4)
        with pytest.raises(ValueError):
            named_state("GHZ")  # needs n

    def test_normalized_families(self):
        for n in range(2, 11):
            assert abs(ghz(n).norm() - 1.0) < 1e-12
            assert abs(w_state(n).norm() - 1.0) < 1e-12
        assert abs(phi4().norm() - 1.0) < 1e-12
        assert abs(cluster4().norm() - 1.0) < 1e-12


class TestNorm:
    def test_norm_value(self):
        assert StateVector(2, [1, 0, 0, 1]).norm() == pytest.approx(math.sqrt(2))

    def test_normalize(self):
        np.testing.assert_allclose(
            StateVector(1, [2, 0]).normalized().amplitudes, [1, 0]
        )

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError, match="zero"):
            StateVector(1, [0, 0]).normalized()

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310])
    def test_extreme_scales(self, scale):
        # Squared amplitudes overflowed at 1e200 (an infinite norm, an
        # all-zero normalized state) and underflowed at 1e-200 ("zero state").
        s = StateVector(3, ghz(3).amplitudes * scale)
        assert s.norm() == pytest.approx(scale, rel=1e-12)
        np.testing.assert_allclose(s.normalized().amplitudes, ghz(3).amplitudes, rtol=0, atol=1e-15)
        assert np.trace(partial_trace(s, (1,))) == pytest.approx(1.0, abs=1e-15)


class TestEqualUpToScale:
    def test_simple_scale(self):
        a = StateVector(2, [1, 0, 0, 1])
        b = StateVector(2, [2, 0, 0, 2])
        assert equal_up_to_scale(a, b)

    def test_sign_flip_differs(self):
        a = StateVector(2, [1, 0, 0, 1])
        b = StateVector(2, [1, 0, 0, -1])
        assert not equal_up_to_scale(a, b)

    def test_projected_ghz_is_smaller_ghz(self):
        proj = lose_qubit(ghz(4), 2).state
        assert equal_up_to_scale(proj, ghz(3))
        assert equal_up_to_scale(proj, StateVector(3, ghz(3).amplitudes * (0.3 - 2j)))

    def test_zero_conventions(self):
        zero = StateVector(2, [0, 0, 0, 0])
        bell = StateVector(2, [1, 0, 0, 1])
        assert equal_up_to_scale(zero, zero)
        assert not equal_up_to_scale(zero, bell)
        assert not equal_up_to_scale(bell, zero)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            equal_up_to_scale(ghz(2), ghz(3))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310])
    def test_extreme_scales(self, scale):
        # Unscaled cross minors overflow to NaN (Bell x1e200 unequal to
        # itself) or underflow to 0 (Bell x1e-200 equal to its sign flip).
        bell = StateVector(2, [1, 0, 0, 1])
        big = StateVector(2, bell.amplitudes * scale)
        flipped = StateVector(2, np.array([1, 0, 0, -1]) * scale)
        assert equal_up_to_scale(big, big)
        assert equal_up_to_scale(big, bell)
        assert not equal_up_to_scale(big, flipped)

    def test_reflexive_symmetric_scale_invariant(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            a = random_state(rng, n)
            b = random_state(rng, n)
            lam = complex(rng.normal(), rng.normal()) or 1.0
            scaled = StateVector(n, a.amplitudes * lam)
            assert equal_up_to_scale(a, a)
            assert equal_up_to_scale(a, scaled)
            assert equal_up_to_scale(scaled, a)
            assert equal_up_to_scale(a, b) == equal_up_to_scale(b, a)
            assert equal_up_to_scale(a, b) == equal_up_to_scale(scaled, b)


class TestTensorAndProducts:
    def test_tensor_orders_first_factor_high(self):
        s = tensor(basis_state("1"), basis_state("0"))
        assert s.amplitude("10") == 1

    def test_product_state_interleaved(self):
        # Bell pair on qubits (1, 3), |01> on qubits (2, 4).
        bell = StateVector(2, [1, 0, 0, 1])
        s = product_state([((1, 3), bell), ((2, 4), basis_state("01"))])
        expected = np.zeros(16, dtype=complex)
        expected[basis_index("0001")] = 1  # |0 0 0 1>
        expected[basis_index("1011")] = 1  # |1 0 1 1>
        np.testing.assert_allclose(s.amplitudes, expected)

    def test_product_state_contiguous_matches_tensor(self, rng):
        a = random_state(rng, 2)
        b = random_state(rng, 3)
        s1 = product_state([((1, 2), a), ((3, 4, 5), b)])
        np.testing.assert_allclose(s1.amplitudes, tensor(a, b).amplitudes)

    def test_product_state_bad_labels(self):
        with pytest.raises(ValueError, match="tile"):
            product_state([((1, 2), ghz(2)), ((2, 3), ghz(2))])


class TestBipartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Bipartition((1, 2), (2, 3))
        with pytest.raises(ValueError):
            Bipartition((), (1,))

    def test_from_block(self):
        p = Bipartition.from_block(4, (3, 1))
        assert p.block_a == (1, 3) and p.block_b == (2, 4)
        assert str(p) == "{1,3}|{2,4}"

    def test_count(self):
        for n in range(2, 8):
            assert len(list(all_bipartitions(n))) == 2 ** (n - 1) - 1

    def test_all_contain_qubit_one(self):
        assert all(p.block_a[0] == 1 for p in all_bipartitions(5))


class TestStateFiles:
    def test_text_roundtrip(self, rng, tmp_path):
        s = random_state(rng, 4)
        path = tmp_path / "state.txt"
        text = dumps_state(s, "text")
        assert text.isascii() and "_" not in text  # what the reader demands
        path.write_text(text)
        np.testing.assert_array_equal(load_state(path).amplitudes, s.amplitudes)

    def test_json_roundtrip(self, rng):
        s = random_state(rng, 3)
        back = loads_state(dumps_state(s, "json"))
        np.testing.assert_array_equal(back.amplitudes, s.amplitudes)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_dump_state_roundtrip(self, rng, tmp_path, fmt):
        s = random_state(rng, 3)
        dump_state(s, tmp_path / "state", fmt)
        np.testing.assert_array_equal(load_state(tmp_path / "state").amplitudes, s.amplitudes)

    def test_missing_indices_default_zero(self):
        s = loads_state("qubits: 2\n0 1 0\n3 0.5 -0.25\n")
        np.testing.assert_allclose(s.amplitudes, [1, 0, 0, 0.5 - 0.25j])

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            loads_state("nqubits: 2\n0 1 0\n")

    def test_duplicate_index(self):
        with pytest.raises(ValueError, match="duplicate"):
            loads_state("qubits: 1\n0 1 0\n0 2 0\n")

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            loads_state("qubits: 1\n2 1 0\n")

    def test_json_wrong_count(self):
        doc = {"qubits": 2, "amplitudes": [[1, 0], [0, 0]]}
        with pytest.raises(ValueError, match="exactly 4"):
            loads_state(json.dumps(doc))

    def test_json_bool_qubit_count(self):
        doc = {"qubits": True, "amplitudes": [[1, 0], [0, 0]]}
        with pytest.raises(ValueError, match="qubit count"):
            loads_state(json.dumps(doc))

    @pytest.mark.parametrize("entry", [
        [None, 0], [[1], 0], [True, 0], ["1e5", 0], [10**400, 0],
    ], ids=["null", "list", "bool", "string", "huge-int"])
    def test_json_amplitude_not_a_number_pair(self, entry):
        doc = {"qubits": 1, "amplitudes": [entry, [0, 0]]}
        with pytest.raises(ValueError, match="amplitude 0"):
            loads_state(json.dumps(doc))

    def test_json_int_and_float_amplitudes(self):
        doc = {"qubits": 1, "amplitudes": [[1, 0], [0.5, -2]]}
        np.testing.assert_array_equal(loads_state(json.dumps(doc)).amplitudes, [1, 0.5 - 2j])

    def test_deeply_nested_json(self):
        text = '{"qubits": 1, "amplitudes": ' + "[" * 100000 + "]" * 100000 + "}"
        with pytest.raises(ValueError, match="^bad JSON state document: "):
            loads_state(text)

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            loads_state("qubits: 1\n0 1\n")


_TOO_MANY_DIGITS = "an integer in text must have at most 4300 digits, got 5000"


def _not_numbers(dtype):
    return f"amplitudes must be ints, floats or complex numbers, got dtype {dtype}"


@pytest.mark.parametrize("call, message", [
    (lambda: dumps_state(ghz(2), "xml"), "unknown state format 'xml'"),
    (lambda: basis_index("012"), "bits must be 0/1, got '012'"),
    (lambda: basis_index("01", 3), "expected 3 bits, got 2"),
    (lambda: product_state([((1,), basis_state("0")), ((3,), basis_state("1"))]),
     "factor labels [1, 3] do not tile 1..2"),
    (lambda: Bipartition((1, 1), (2,)), "blocks contain repeated labels"),
    (lambda: Bipartition.from_block(3, (4,)), "labels (4,) out of range for 3 qubits"),
    (lambda: list(all_bipartitions(1)), "bipartitions need at least two qubits"),
    (lambda: product_state([((1, 2), basis_state("0"))]),
     "factor on (1, 2) has 1 qubits, expected 2"),
    (lambda: max_cross_minor([], []), "vectors must have at least one entry"),
    (lambda: family_proportional([[1, 2], [1]]), "family vectors must all have the same length"),
    (lambda: family_proportional([[], []]), "vectors must have at least one entry"),
    (lambda: family_proportional([[], [], []]), "vectors must have at least one entry"),
    (lambda: numerical_rank(5), "expected a 2-D matrix, got shape ()"),
    (lambda: numerical_rank([1, 2, 3]), "expected a 2-D matrix, got shape (3,)"),
    (lambda: numerical_rank(np.ones((2, 2, 2))), "expected a 2-D matrix, got shape (2, 2, 2)"),
    (lambda: ppt_2qubit(np.zeros((4, 4))), "density matrix trace must be positive, got 0j"),
    # More digits than int() reads from text by default.
    (lambda: loads_state("qubits: " + "9" * 5000), _TOO_MANY_DIGITS),
    (lambda: named_state("DICKE(" + "9" * 5000 + ")", 4), _TOO_MANY_DIGITS),
    # NumPy's complex cast would read these as 10, 1, 1 and 1.
    (lambda: StateVector(2, ["1_0", "0", "0", "1"]), _not_numbers("<U3")),
    (lambda: StateVector(2, ["١", "0", "0", "1"]), _not_numbers("<U1")),
    (lambda: StateVector(2, [" 1", "0", "0", "1 "]), _not_numbers("<U2")),
    (lambda: StateVector(2, [True, False, False, True]), _not_numbers("bool")),
    (lambda: StateVector(2, np.array(["1", 0, 0, 1], dtype=object)), _not_numbers("object")),
    (lambda: StateVector.from_amplitudes(["1_0", "0", "0", "1"]), _not_numbers("<U3")),
    (lambda: StateVector.from_amplitudes(np.ones(4, dtype=bool)), _not_numbers("bool")),
], ids=["format", "bits", "bit-count", "labels", "repeated", "out-of-range",
        "bipartitions", "factor-size", "empty-minor", "family-lengths", "empty-family-2",
        "empty-family-3", "rank-0d", "rank-1d", "rank-3d", "trace",
        "count-5000-digits", "dicke-5000-digits", "amp-underscore", "amp-arabic-digit",
        "amp-spaces", "amp-bools", "amp-object-text", "from-amp-underscore",
        "from-amp-bools"])
def test_bad_argument_raises(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def _not_an_integer(bad):
    return f"qubit numbers, labels and bits must be integers, got {bad}"


def _not_a_count(bad):
    return f"qubit count must be an integer in 1..MAX_QUBITS = {MAX_QUBITS}, got {bad}"


def _not_digits(bad):
    return f"an integer in text must be ASCII digits alone, got {bad}"


@pytest.mark.parametrize("call, message", [
    (lambda: lose_qubit_set(w_state(4), [1.5]), _not_an_integer("1.5")),
    (lambda: lose_qubit(ghz(3), 1.0), _not_an_integer("1.0")),
    (lambda: Bipartition.from_block(3, [1.5]), _not_an_integer("1.5")),
    (lambda: Bipartition((1.5,), (2,)), _not_an_integer("1.5")),
    (lambda: unfold(ghz(3), [2.9]), _not_an_integer("2.9")),
    (lambda: partial_trace(ghz(3), (1.7,)), _not_an_integer("1.7")),
    (lambda: basis_state([0.7, 1]), _not_an_integer("0.7")),
    (lambda: product_state([((1.5,), basis_state("0")), ((1,), basis_state("1"))]),
     _not_an_integer("1.5")),
    # A bool is not an integer here, though Python calls it one.
    (lambda: lose_qubit(ghz(3), True), _not_an_integer("True")),
    (lambda: Bipartition.from_block(3.0, (1,)), _not_an_integer("3.0")),
    (lambda: list(all_bipartitions(3.0)), _not_an_integer("3.0")),
    (lambda: basis_index("10", 2.0), _not_an_integer("2.0")),
    (lambda: dicke(4, 2.0), _not_an_integer("2.0")),
    # Qubit counts, which must also lie in 1..MAX_QUBITS.
    (lambda: ghz(3.0), _not_a_count("3.0")),
    (lambda: w_state(3.0), _not_a_count("3.0")),
    (lambda: dicke(4.0, 2), _not_a_count("4.0")),
    (lambda: named_state("GHZ", 3.0), _not_a_count("3.0")),
    (lambda: StateVector(2.0, [1, 0, 0, 1]), _not_a_count("2.0")),
    (lambda: StateVector(True, [1, 0]), _not_a_count("True")),
    (lambda: StateVector(0, [1]), _not_a_count("0")),
    (lambda: random_state(np.random.default_rng(0), 2.5), _not_a_count("2.5")),
    (lambda: basis_state(""), _not_a_count("0")),
    # Text: ASCII digits alone, not another script's digits.
    (lambda: basis_state("١٠"), _not_digits("'١'")),
    (lambda: basis_index("1٠", 2), _not_digits("'٠'")),
], ids=["lose-set", "lose", "from-block", "bipartition", "unfold", "partial-trace",
        "basis-state", "product-state", "lose-bool", "from-block-count",
        "bipartitions-count", "basis-index-count", "dicke-excitations", "ghz-count",
        "w-count", "dicke-count", "named-state-count", "state-vector-count",
        "state-vector-bool-count", "state-vector-no-qubits", "random-state-count",
        "basis-state-no-bits", "basis-state-arabic-indic", "basis-index-arabic-indic"])
def test_non_integer_qubit_numbers_are_rejected(call, message):
    # int() used to truncate these, so 1.5 silently named qubit 1.
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_numpy_integers_are_qubit_numbers():
    k = np.int64(2)
    assert lose_qubit(ghz(3), k).lost_qubit == 2
    assert np.array_equal(lose_qubit_set(w_state(4), [k, 3]).amplitudes, [1, 0.5, 0.5, 0])
    assert str(Bipartition.from_block(3, [np.int32(2)])) == "{2}|{1,3}"
    assert basis_state([np.int8(1), 0]).amplitude("10") == 1
    # A NumPy qubit count is read as a Python int.
    assert type(StateVector(np.int64(2), [1, 0, 0, 1]).num_qubits) is int
    assert np.array_equal(ghz(np.int32(3)).amplitudes, ghz(3).amplitudes)
