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
from qubitloss.base import equal_up_to_scale
from qubitloss.states import StateVector


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
    # temporary; formed a block of rows at a time it takes a few MiB.
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
