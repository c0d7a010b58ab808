import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitloss import (
    basis_state,
    coefficient_groups,
    family_proportional,
    max_cross_minor,
    pair_proportional,
    product_state,
    random_state,
)
import qubitloss.base as base
from qubitloss.base import equal_up_to_scale
from qubitloss.states import StateVector, largest_modulus, unit_scale

from helpers import all_minors_family_proportional, all_minors_pair_proportional


class TestPairs:
    def test_scalar_multiple(self):
        assert pair_proportional([1, 2], [2, 4])

    def test_orthogonal(self):
        assert not pair_proportional([1, 0], [0, 1])

    def test_bell_split_not_proportional(self):
        # |00> + |11> grouped by the first qubit: (1, 0) vs (0, 1).
        assert not pair_proportional([1, 0], [0, 1])
        assert max_cross_minor([1, 0], [0, 1]) == 1

    def test_zero_vector_is_proportional(self):
        assert pair_proportional([0, 0, 0], [1, 2, 3])
        assert pair_proportional([1, 2, 3], [0, 0, 0])
        assert pair_proportional([0, 0], [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pair_proportional([1, 2], [1, 2, 3])

    def test_negative_tolerance(self):
        with pytest.raises(ValueError):
            pair_proportional([1], [1], tol=-1e-3)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310])
    def test_extreme_scales(self, scale):
        # Unscaled, the minors and the threshold overflow (a NaN minor reads
        # "not proportional", an infinite threshold "proportional") or
        # underflow (a zero minor reads "proportional").
        assert pair_proportional([scale, 2 * scale], [2 * scale, 4 * scale])
        assert not pair_proportional([scale, 0], [0, scale])
        assert pair_proportional([scale, 2 * scale], [1, 2])
        assert not pair_proportional([scale, 0], [0, 1])

    @pytest.mark.parametrize("u, v, minor", [
        ([1e200, 1e200], [1e200, 1e200], 0.0),
        ([1e200 + 1e200j] * 2, [1e200 + 1e200j] * 2, 0.0),
        ([1e200, 1], [1, 1e200], np.inf),  # about 1e400
        ([1.7e308, 1.7e308], [-1e-300, 1e-300], 3.4e8),
    ], ids=["equal-real-1e200", "equal-complex-1e200", "past-the-range", "huge-times-tiny"])
    def test_minors_at_extreme_scales(self, u, v, minor):
        # Unscaled, the equal vectors' products overflow and their minors
        # read nan.  Scaled, a minor past the float range reads inf, and one
        # within it keeps its value however far apart the two scales are.
        assert max_cross_minor(u, v) == pytest.approx(minor, rel=1e-15, abs=0.0)


class TestFamilies:
    def test_family_with_zero_member(self):
        assert family_proportional([(1, 1), (2, 2), (0, 0)])

    def test_family_without_common_pivot(self):
        assert not family_proportional([(1, 0), (0, 1), (1, 1)])

    def test_all_zero_family(self):
        assert family_proportional([(0, 0), (0, 0), (0, 0)])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales(self, scale):
        # Unscaled, the threshold for the rows of Bell x1e200 overflows to
        # inf and Bell reads as a product.
        bell_rows = [(scale, 0), (0, scale)]
        assert not family_proportional(bell_rows)
        assert family_proportional([(scale, 2 * scale), (3 * scale, 6 * scale), (0, 0)])

    def test_single_vector_rejected(self):
        with pytest.raises(ValueError):
            family_proportional([(1, 2)])

    def test_grouped_vectors_follow_the_factored_cut(self):
        # A Bell pair on (1,3) times |01> on (2,4) is a product across
        # {1,3}|{2,4}: that grouping is proportional.  The same state is
        # entangled across {1,2}|{3,4}, and a Bell pair on (1,2) flips
        # both answers.
        bell = StateVector(2, [1, 0, 0, 1])
        interleaved = product_state([((1, 3), bell), ((2, 4), basis_state("01"))])
        adjacent = product_state([((1, 2), bell), ((3, 4), basis_state("01"))])
        for state, block, expected in [
            (interleaved, (1, 3), True),
            (interleaved, (1, 2), False),
            (adjacent, (1, 2), True),
            (adjacent, (1, 3), False),
        ]:
            vectors = [state.amplitudes[g] for g in coefficient_groups(4, block)]
            assert family_proportional(vectors) is expected


finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, min_magnitude=0, max_magnitude=1e6
)
# Fixed generic scalars keep the invariance check away from the float
# rounding of the decision boundary itself.
nonzero_complex = st.sampled_from(
    [u * p for u in (1, -1, 1j, -1j, 0.6 + 0.8j, 3 - 2j) for p in (2.0**-9, 1.0, 2.0**10)]
)


@pytest.mark.parametrize("d", [300, 512])
def test_blocked_minors_match_the_whole_matrix_bitwise(d):
    # d = 300 and 512 need two and four blocks of rows.
    rng = np.random.default_rng(d)
    u = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = (0.3 - 2j) * u + 1e-12 * (rng.normal(size=d) + 1j * rng.normal(size=d))
    outer = np.outer(u, v)
    assert max_cross_minor(u, v) == float(np.abs(outer - outer.T).max())


def test_equal_up_to_scale_memory_stays_flat_at_11_qubits():
    # The whole 2048 x 2048 minor matrix would take 64 MiB per complex
    # temporary; the minors against one pivot take a few hundred KiB.
    rng = np.random.default_rng(11)
    a, b = random_state(rng, 11), random_state(rng, 11)
    tracemalloc.start()
    try:
        assert not equal_up_to_scale(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


@st.composite
def vector_families(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=2, max_value=4))
    return [
        [draw(finite_complex) for _ in range(d)] for _ in range(m)
    ]


@settings(max_examples=150, deadline=None)
@given(family=vector_families(), scalar=nonzero_complex, index=st.integers(0, 3))
def test_scale_invariance(family, scalar, index):
    scaled = [list(v) for v in family]
    pos = index % len(scaled)
    scaled[pos] = [scalar * x for x in scaled[pos]]
    assert family_proportional(family) == family_proportional(scaled)


@settings(max_examples=150, deadline=None)
@given(family=vector_families(), seed=st.integers(0, 2**31 - 1))
def test_permutation_invariance(family, seed):
    perm = np.random.default_rng(seed).permutation(len(family))
    shuffled = [family[i] for i in perm]
    assert family_proportional(family) == family_proportional(shuffled)


def _sympy_rank(vectors) -> int:
    cols = [
        [sympy.Integer(int(x.real)) + sympy.I * sympy.Integer(int(x.imag)) for x in v]
        for v in vectors
    ]
    return sympy.Matrix(cols).T.rank()


def test_exact_on_integer_families_matches_rank(rng):
    # With tol 0 and small Gaussian-integer entries every float product is
    # exact, so proportionality must coincide with matrix rank <= 1.
    for trial in range(120):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2, 5))
        if trial % 3 == 0:
            base = rng.integers(-3, 4, size=d) + 1j * rng.integers(-3, 4, size=d)
            family = [base * int(rng.integers(-3, 4)) for _ in range(m)]
        else:
            family = [
                rng.integers(-3, 4, size=d) + 1j * rng.integers(-3, 4, size=d)
                for _ in range(m)
            ]
        got = family_proportional(family, tol=0.0)
        want = _sympy_rank([np.asarray(v, dtype=complex) for v in family]) <= 1
        assert got == want, f"family {family}"


def test_two_entry_pairs_reduce_to_the_single_minor(rng):
    for _ in range(200):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        minor = abs(u[0] * v[1] - u[1] * v[0])
        tol = 10 ** rng.uniform(-12, 0)
        scale = np.abs(u).max() * np.abs(v).max()
        assert pair_proportional(u, v, tol) == (minor <= tol * scale)


def test_each_vector_is_read_once(monkeypatch):
    a = random_state(np.random.default_rng(3), 3)
    b = StateVector(3, a.amplitudes * (0.3 - 2j))
    reads, numbers = [], base._numbers

    def counted(values, what):
        reads.append(what)
        return numbers(values, what)

    monkeypatch.setattr(base, "_numbers", counted)
    assert pair_proportional([1, 2], [2, 4])
    assert reads == ["vector entries"] * 2
    reads.clear()
    assert family_proportional([(1, 2), (0, 0), (3, 6), (-1j, -2j)])
    assert reads == ["vector entries"] * 4
    reads.clear()
    assert equal_up_to_scale(a, b)
    assert reads == []


def test_sixteen_qubit_states_form_no_quadratic_minors(monkeypatch):
    # Every cross minor of two 2^16-entry vectors took about a minute.
    def quadratic(u, v):
        raise AssertionError("decided through every cross minor")

    monkeypatch.setattr(base, "max_cross_minor", quadratic)
    rng = np.random.default_rng(16)
    a, b = random_state(rng, 16), random_state(rng, 16)
    assert equal_up_to_scale(a, StateVector(16, a.amplitudes * (0.3 - 2j)))
    assert not equal_up_to_scale(a, b)
    assert pair_proportional(a.amplitudes, 1e-300 * a.amplitudes)
    assert not family_proportional([a.amplitudes, a.amplitudes, b.amplitudes])


def _noisy_family(rng, members):
    """``members`` vectors lambda_k u + eps_k noise with one u of 2..128
    complex Gaussian entries, eps_k from 1e-14 to 1e-4."""
    d = int(rng.integers(2, 129))
    u = rng.normal(size=d) + 1j * rng.normal(size=d)
    return [
        complex(*rng.normal(size=2)) * u
        + 10 ** rng.uniform(-14, -4) * (rng.normal(size=d) + 1j * rng.normal(size=d))
        for _ in range(members)
    ]


def _largest_minor_over_threshold(family, tol):
    """The all-minors reference's largest cross minor against the family's
    pivot over its threshold, for the member where that ratio is largest."""
    vs = [np.asarray(v) * unit_scale(largest_modulus(v)) for v in family]
    pivot = int(np.argmax([largest_modulus(v) for v in family]))
    return max(
        max_cross_minor(vs[pivot], v) / (tol * largest_modulus(vs[pivot]) * largest_modulus(v))
        for i, v in enumerate(vs) if i != pivot
    )


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_the_pivot_test_flips_only_false_to_true_within_twice_the_threshold(tol):
    # The minors against the pivot, P, and all the cross minors, A, satisfy
    # P <= A <= 2P, so where the all-minors rule says True the pivot test
    # does, and where they differ A lies in (T, 2T] of the threshold T.
    rng = np.random.default_rng(round(-np.log10(tol)))
    for trial in range(3000):
        members = 2 if trial < 2000 else int(rng.integers(2, 5))
        family = _noisy_family(rng, members)
        if members == 2:
            got, want = pair_proportional(*family, tol), all_minors_pair_proportional(*family, tol)
        else:
            got, want = family_proportional(family, tol), all_minors_family_proportional(family, tol)
        assert got or not want
        if got != want:
            assert 1.0 < _largest_minor_over_threshold(family, tol) <= 2.0
