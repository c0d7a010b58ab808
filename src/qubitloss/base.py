"""Exact product/genuine-entanglement decisions for 2, 3 and 4 qubits.

A pure state is a product across a given bipartition exactly when the
coefficient vectors obtained by grouping amplitudes over the first
block's bit patterns are proportional.  For n <= 4 it suffices to test a
fixed list of candidate splits: the single split for two qubits, the
three 1-vs-2 splits for three qubits, and the four 1-vs-3 plus three
2-vs-2 splits for four qubits.  A state is genuinely entangled iff no
candidate family is proportional.

All candidate splits of a state are tested in one vectorized pass over a
padded gather table, with the pivot and threshold rule of
``family_proportional``, which stays as the reference the tests check
the pass against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

from .projection import all_projections
from .proportional import check_tolerance
from .states import Bipartition, StateVector, _matricize

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


@dataclass(frozen=True)
class SufficientCheck:
    """Outcome of the three-qubit shortcut on its projections."""

    per_projection_entangled: Tuple[bool, bool, bool]
    certified: bool


@lru_cache(maxsize=None)
def coefficient_groups(num_qubits: int, block_a: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
    """Amplitude index groups for a candidate split: the rows of the
    basis indices laid out as ``unfold`` lays out amplitudes.

    One group per bit pattern of ``block_a`` (patterns ascending), each
    listing basis indices in ascending order of the complementary
    block's bits.  The family of a state's amplitudes over these groups
    is proportional iff the state is a product across the split.
    """
    n = num_qubits
    block_a = Bipartition.from_block(n, block_a).block_a
    rows = _matricize(np.arange(1 << n, dtype=np.intp), n, block_a)
    rows.flags.writeable = False
    return tuple(rows)


@lru_cache(maxsize=None)
def _split_table(num_qubits: int) -> np.ndarray:
    """Gather table of shape (splits, rows, cols) for the candidate splits.

    Entry [s, r] lists group r of split s as ``coefficient_groups`` gives
    it.  Shorter groups and missing rows are padded with index 2^n, which
    points at one zero appended to the amplitudes, so padding adds only
    zero entries and zero minors.
    """
    splits = [coefficient_groups(num_qubits, block) for block in CANDIDATE_SPLITS[num_qubits]]
    rows = max(len(groups) for groups in splits)
    cols = max(groups[0].size for groups in splits)
    table = np.full((len(splits), rows, cols), 1 << num_qubits, dtype=np.intp)
    for s, groups in enumerate(splits):
        table[s, : len(groups), : groups[0].size] = groups
    table.flags.writeable = False
    return table


_PAD = np.zeros(1, dtype=complex)

# Witness partitions are immutable, so each split's is built once.
_partition = lru_cache(maxsize=None)(Bipartition.from_block)


def _proportional_mask(state: StateVector, tol: float) -> np.ndarray:
    """Per candidate split of a nonzero state, whether ``family_proportional``
    holds for its family.

    The pivot of each split is its group with the largest modulus (the
    first on ties), nonzero because the groups cover every amplitude.
    Every other group's largest cross minor against the pivot must be at
    most ``tol * (pivot max * group max)``.
    """
    table = _split_table(state.num_qubits)
    splits = np.arange(len(table))
    # Scaling by 2^-e, with e the exponent of the largest modulus, is exact
    # and puts that modulus in [0.5, 1), so the products below neither
    # overflow for huge states nor underflow for tiny ones.  The clamps keep
    # e finite when the modulus overflows and 2^-e finite when it is subnormal.
    exponent = math.frexp(min(state._largest(), sys.float_info.max))[1]
    m = np.concatenate((state.amplitudes, _PAD))
    m *= math.ldexp(1.0, -max(exponent, -1023))
    m = m[table]
    row_max = np.abs(m).max(axis=2)
    pivot = row_max.argmax(axis=1)
    outer = m[splits, pivot][:, None, :, None] * m[:, :, None, :]  # p_i v_j
    minor = np.abs(outer - outer.swapaxes(2, 3)).max(axis=(2, 3))
    ok = minor <= tol * (row_max[splits, pivot][:, None] * row_max)
    # The pivot's self-minor p_i p_j - p_j p_i need not round to 0: complex
    # multiplication is not bitwise commutative where it uses fused
    # multiply-add.  The reference never compares the pivot with itself.
    ok[splits, pivot] = True
    return ok.all(axis=1)


def _proportional_splits(state: StateVector, tol: float) -> Iterator[FactorizationWitness]:
    """Witness for each candidate split that tests proportional, in
    reporting order; none for the zero state."""
    n = state.num_qubits
    if n not in CANDIDATE_SPLITS:
        raise ValueError(f"exact tests cover 2..4 qubits, got {n}")
    check_tolerance(tol)
    if state.is_zero():
        return
    for s in np.flatnonzero(_proportional_mask(state, tol)):
        block = CANDIDATE_SPLITS[n][s]
        rows = _matricize(state.amplitudes, n, block).tolist()
        yield FactorizationWitness(
            partition=_partition(n, block), family=tuple(map(tuple, rows))
        )


def _detect_n(state: StateVector, tol: float, expected_n: int) -> BaseVerdict:
    if state.num_qubits != expected_n:
        raise ValueError(f"expected a {expected_n}-qubit state, got {state.num_qubits} qubits")
    return detect_base(state, tol)


def detect_2q(state: StateVector, tol: float = 1e-9) -> BaseVerdict:
    """Two qubits: entangled iff (c0, c1) and (c2, c3) are not proportional."""
    return _detect_n(state, tol, 2)


def detect_3q(state: StateVector, tol: float = 1e-9) -> BaseVerdict:
    """Three qubits: product iff one of the three 1-vs-2 splits is proportional."""
    return _detect_n(state, tol, 3)


def detect_4q(state: StateVector, tol: float = 1e-9) -> BaseVerdict:
    """Four qubits: product iff one of the seven candidate splits is proportional."""
    return _detect_n(state, tol, 4)


def detect_base(state: StateVector, tol: float = 1e-9) -> BaseVerdict:
    """Exact decision for 2, 3 or 4 qubits: genuine iff no candidate split
    is proportional.  The zero state is not genuine and has no witness."""
    witness = next(_proportional_splits(state, tol), None)
    return BaseVerdict(
        genuinely_entangled=witness is None and not state.is_zero(),
        witness=witness,
    )


def all_factorizations(state: StateVector, tol: float = 1e-9) -> List[FactorizationWitness]:
    """Every candidate split that tests proportional (fully product states
    report several)."""
    return list(_proportional_splits(state, tol))


def sufficient_3q(state: StateVector, tol: float = 1e-9) -> SufficientCheck:
    """Certify a three-qubit state genuine from its projections alone.

    Each of the three two-qubit projections gets the exact two-qubit
    test; two entangled projections certify genuine entanglement.
    Sufficient, not necessary: ``wclass_3q()`` is genuinely entangled yet
    certifies nothing here.
    """
    n = state.num_qubits
    if n != 3:
        raise ValueError(f"expected a 3-qubit state, got {n} qubits")
    flags = tuple(
        detect_2q(p.state, tol).genuinely_entangled for p in all_projections(state)
    )
    return SufficientCheck(
        per_projection_entangled=flags, certified=sum(flags) >= 2
    )
