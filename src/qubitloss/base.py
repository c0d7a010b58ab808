"""Every product test: the exact 2/3/4-qubit decisions, the walker's
test of one cut on a larger state, and the proportionality of vectors.

A family of vectors is proportional when some nonzero member scales onto
every other one, and a pure state is a product across a bipartition
exactly when the coefficient vectors obtained by grouping amplitudes over
the first block's bit patterns are.  For n <= 4 it suffices to test a
fixed list of candidate splits: the single split for two qubits, the
three 1-vs-2 splits for three qubits, and the four 1-vs-3 plus three
2-vs-2 splits for four qubits; a state is genuinely entangled iff no
candidate family is proportional.  One kernel, ``_proportional_masks``,
tests them all for a stack of states in one vectorized pass, by every
cross minor against each split's group with the largest entry.

Every other test is ``_rank_one``: rows scaled exactly, and their
2x2 cross minors against the largest entry, so zero entries need no
special casing.  ``_product_across`` applies it to a cut's unfolding,
``pair_proportional`` and ``family_proportional`` to two vectors, each read
once with ``states._numbers``, and ``equal_up_to_scale`` to two states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .states import (
    DEFAULT_TOL, Bipartition, StateVector, _matricize, _numbers, check_tolerance,
    largest_modulus, unit_scale,
)

# Candidate splits in reporting order: single-qubit blocks first, then
# two-qubit blocks containing qubit 1.
CANDIDATE_SPLITS = {
    2: ((1,),),
    3: ((1,), (2,), (3,)),
    4: ((1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)),
}


@dataclass(frozen=True)
class FactorizationWitness:
    """A bipartition found separable, with the proportional family that shows it."""

    partition: Bipartition
    family: Tuple[Tuple[complex, ...], ...]


@dataclass(frozen=True)
class BaseVerdict:
    genuinely_entangled: bool
    witness: FactorizationWitness | None = None


def coefficient_groups(num_qubits: int, block_a: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
    """Amplitude index groups for a candidate split: the rows of the
    basis indices laid out as ``unfold`` lays out amplitudes.

    One group per bit pattern of ``block_a`` (patterns ascending), each
    listing basis indices in ascending order of the complementary
    block's bits.  The family of a state's amplitudes over these groups
    is proportional iff the state is a product across the split.
    """
    part = Bipartition.from_block(num_qubits, block_a)
    n = len(part.qubits)
    rows = _matricize(np.arange(1 << n, dtype=np.intp), n, part.block_a)
    rows.flags.writeable = False
    return tuple(rows)


class _LeafTables(NamedTuple):
    """Flat gather tables for the candidate splits of one qubit count.

    Groups are numbered split by split, in ``coefficient_groups`` order.
    ``members`` lists every group's indices in turn, the group g starting
    at ``group_starts[g]``.  For every ordered pair (p, v) of distinct
    groups of a split, p-major, and every column pair i < j, one of the K
    minors: minor k is ``x[left[k]] * x[right[k]] - x[left[K + k]] *
    x[right[K + k]]``, that is p_i v_j - p_j v_i, between groups
    ``pivot[k]`` and ``other[k]``; the minors with pivot g start at
    ``pivot_starts[g]``.  Row s of ``split_groups`` lists split s's
    groups, padded with its first, which ``argmax`` (the first maximum)
    never takes from the padding.
    """

    members: np.ndarray
    group_starts: np.ndarray
    left: np.ndarray
    right: np.ndarray
    pivot: np.ndarray
    other: np.ndarray
    pivot_starts: np.ndarray
    split_groups: np.ndarray


@lru_cache(maxsize=None)
def _leaf_tables(num_qubits: int) -> _LeafTables:
    """The tables of ``num_qubits`` qubits, built on first use."""
    groups, splits = [], []
    for block in CANDIDATE_SPLITS[num_qubits]:
        rows = coefficient_groups(num_qubits, block)
        splits.append(range(len(groups), len(groups) + len(rows)))
        groups.extend(rows)
    pairs = [(p, v) for split in splits for p in split for v in split if p != v]
    columns = {size: np.triu_indices(size, 1) for size in {g.size for g in groups}}
    terms = []  # p_i, v_j, p_j, v_i of each pair
    for p, v in pairs:
        i, j = columns[groups[p].size]
        terms.append((groups[p][i], groups[v][j], groups[p][j], groups[v][i]))
    p_i, v_j, p_j, v_i = (np.concatenate(term) for term in zip(*terms))
    pivot, other = (np.repeat(ends, [term[0].size for term in terms]) for ends in zip(*pairs))
    width = max(map(len, splits))
    tables = _LeafTables(
        members=np.concatenate(groups),
        group_starts=np.cumsum([0] + [g.size for g in groups[:-1]]),
        left=np.concatenate((p_i, p_j)),
        right=np.concatenate((v_j, v_i)),
        pivot=pivot,
        other=other,
        pivot_starts=np.searchsorted(pivot, np.arange(len(groups))),
        split_groups=np.array([list(s) + [s[0]] * (width - len(s)) for s in splits]),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


# Witness partitions are immutable, so each split's is built once.
_partition = lru_cache(maxsize=None)(Bipartition.from_block)


def _proportional_masks(states: Sequence[StateVector], tol: float) -> np.ndarray:
    """For each state of a stack with one qubit count, and each candidate
    split, whether the split's family is proportional (rows of the result
    in stack order, columns in reporting order).

    Each state is scaled by ``unit_scale`` of its largest modulus, which is
    exact, so the products below neither overflow nor underflow.  The
    pivot of a split is its group with the largest modulus (the first on
    ties), nonzero for a nonzero state because the groups cover every
    amplitude.  Every minor p_i v_j - p_j v_i of another group v against
    the pivot must be at most ``tol * (pivot max * v max)``.  A zero
    state passes every split.
    """
    t = _leaf_tables(states[0].num_qubits)
    x = np.array([state.amplitudes for state in states])
    x *= np.array([unit_scale(state._largest()) for state in states])[:, None]
    group_max = np.maximum.reduceat(np.abs(x).take(t.members, axis=1), t.group_starts, axis=1)
    products = x.take(t.left, axis=1) * x.take(t.right, axis=1)
    half = t.pivot.size
    minors = np.abs(products[:, :half] - products[:, half:])
    # The pivot's self-minors are never formed: p_i p_j - p_j p_i need not
    # round to 0, as complex multiplication is not bitwise commutative
    # where it uses fused multiply-add.
    bound = tol * (group_max.take(t.pivot, axis=1) * group_max.take(t.other, axis=1))
    holds = np.logical_and.reduceat(minors <= bound, t.pivot_starts, axis=1)
    pivots = group_max.take(t.split_groups, axis=1).argmax(axis=2) + t.split_groups[:, 0]
    return holds[np.arange(len(states))[:, None], pivots]


def _rank_one(m: np.ndarray, tol: float) -> bool:
    """Whether the rows of ``m``, scaled by ``unit_scale`` whole or row by
    row, are proportional: with M_rc the largest entry, every
    |M_ij M_rc - M_ic M_rj| is at most ``tol * |M_rc| * max_j |M_ij|``.
    Linear; the largest cross minor of all is at most twice theirs."""
    moduli = np.abs(m)
    r, c = np.unravel_index(moduli.argmax(), m.shape)
    minors = np.abs(m * m[r, c] - np.outer(m[:, c], m[r]))
    # Row r's minors are M_rj M_rc - M_rc M_rj, zero but for the operand
    # order, which complex multiplication need not ignore bitwise.
    minors[r] = 0.0
    return bool((minors <= tol * moduli[r, c] * moduli.max(axis=1)[:, None]).all())


def _product_across(state: StateVector, block: Tuple[int, ...], tol: float) -> bool:
    """Whether ``state`` is a product across sorted ``block`` and the rest."""
    m = _matricize(state.amplitudes, state.num_qubits, block) * unit_scale(state._largest())
    return _rank_one(m, tol)


def _read_pair(u, v) -> Tuple[np.ndarray, np.ndarray]:
    """u and v, each read once and flattened, of one nonzero length."""
    u, v = (_numbers(x, "vector entries")[0].reshape(-1) for x in (u, v))
    if u.size != v.size:
        raise ValueError(f"vector lengths differ: {u.size} vs {v.size}")
    if u.size == 0:
        raise ValueError("vectors must have at least one entry")
    return u, v


def max_cross_minor(u, v) -> float:
    """Largest |u_i v_j - u_j v_i| over all index pairs.

    Zero exactly when one vector is a scalar multiple of the other (the
    zero multiple too).  Quadratic in the length; no test decides by it.
    Each vector is scaled by its ``unit_scale`` first, which is exact, so no
    product overflows; scaled back once, the result is inf past the float
    range and 0.0 below it.
    """
    u, v = _read_pair(u, v)
    su, sv = (unit_scale(largest_modulus(x)) for x in (u, v))
    u, v = u * su, v * sv
    # Blocks of at most 2^16 minors keep memory flat in d; each minor keeps the
    # operand order of u_i v_j - u_j v_i, so no bit depends on the block height.
    height = max(1, (1 << 16) // u.size)
    minor = max(
        float(np.abs(np.outer(u[r : r + height], v) - np.outer(u, v[r : r + height]).T).max())
        for r in range(0, u.size, height)
    )
    try:  # times 1 / (su sv) at once: dividing by each in turn can overflow midway
        return math.ldexp(minor, 2 - math.frexp(su)[1] - math.frexp(sv)[1])
    except OverflowError:
        return math.inf


def pair_proportional(u, v, tol: float = DEFAULT_TOL) -> bool:
    """True when u and v are proportional within a relative tolerance.

    Each is scaled by ``unit_scale`` of its largest modulus, so the
    threshold scales with max|u| * max|v| (the answer is invariant under
    rescaling either vector) and the minors neither overflow nor underflow.
    A numerically zero vector counts as proportional to anything.
    """
    check_tolerance(tol)
    u, v = _read_pair(u, v)
    return _rank_one(np.array([x * unit_scale(largest_modulus(x)) for x in (u, v)]), tol)


def family_proportional(vectors: Sequence, tol: float = DEFAULT_TOL) -> bool:
    """True when every vector is proportional, as ``pair_proportional``
    tests, to a common nonzero pivot: the member with the largest entry in
    modulus, the first on ties.  An all-zero family is proportional."""
    check_tolerance(tol)
    vs = [_numbers(v, "vector entries")[0].reshape(-1) for v in vectors]
    if len(vs) < 2:
        raise ValueError("a family needs at least two vectors")
    if any(v.size != vs[0].size for v in vs):
        raise ValueError("family vectors must all have the same length")
    if vs[0].size == 0:
        raise ValueError("vectors must have at least one entry")
    maxes = [largest_modulus(v) for v in vs]
    pivot = int(np.argmax(maxes))
    if maxes[pivot] == 0.0:
        return True
    vs = [v * unit_scale(m) for v, m in zip(vs, maxes)]
    return all(
        _rank_one(np.array((vs[pivot], v)), tol) for i, v in enumerate(vs) if i != pivot
    )


def equal_up_to_scale(a: StateVector, b: StateVector, tol: float = DEFAULT_TOL) -> bool:
    """True when a = lambda * b for some nonzero complex lambda.

    Decided as ``pair_proportional`` decides the amplitudes, with no new
    read, so the answer is invariant under rescaling either state.  Two
    zero states are equal; a zero and a nonzero state are not.
    """
    check_tolerance(tol)
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return _rank_one(np.array([s.amplitudes * unit_scale(s._largest()) for s in (a, b)]), tol)


def _proportional_splits(state: StateVector, tol: float) -> Iterator[FactorizationWitness]:
    """Witness for each candidate split that tests proportional, in
    reporting order; none for the zero state."""
    n = state.num_qubits
    if n not in CANDIDATE_SPLITS:
        raise ValueError(f"exact tests cover 2..4 qubits, got {n}")
    check_tolerance(tol)
    if state.is_zero():
        return
    for s in np.flatnonzero(_proportional_masks([state], tol)[0]):
        block = CANDIDATE_SPLITS[n][s]
        rows = _matricize(state.amplitudes, n, block).tolist()
        yield FactorizationWitness(
            partition=_partition(n, block), family=tuple(map(tuple, rows))
        )


def _detect_n(state: StateVector, tol: float, expected_n: int) -> BaseVerdict:
    if state.num_qubits != expected_n:
        raise ValueError(f"expected a {expected_n}-qubit state, got {state.num_qubits} qubits")
    return detect_base(state, tol)


def detect_2q(state: StateVector, tol: float = DEFAULT_TOL) -> BaseVerdict:
    """Two qubits: entangled iff (c0, c1) and (c2, c3) are not proportional."""
    return _detect_n(state, tol, 2)


def detect_3q(state: StateVector, tol: float = DEFAULT_TOL) -> BaseVerdict:
    """Three qubits: product iff one of the three 1-vs-2 splits is proportional."""
    return _detect_n(state, tol, 3)


def detect_4q(state: StateVector, tol: float = DEFAULT_TOL) -> BaseVerdict:
    """Four qubits: product iff one of the seven candidate splits is proportional."""
    return _detect_n(state, tol, 4)


def detect_base(state: StateVector, tol: float = DEFAULT_TOL) -> BaseVerdict:
    """Exact decision for 2, 3 or 4 qubits: genuine iff no candidate split
    is proportional.  The zero state is not genuine and has no witness."""
    witness = next(_proportional_splits(state, tol), None)
    return BaseVerdict(
        genuinely_entangled=witness is None and not state.is_zero(),
        witness=witness,
    )


def all_factorizations(
    state: StateVector, tol: float = DEFAULT_TOL
) -> List[FactorizationWitness]:
    """Every candidate split that tests proportional (fully product states
    report several)."""
    return list(_proportional_splits(state, tol))
