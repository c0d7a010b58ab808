"""Exact product/genuine-entanglement decisions for 2, 3 and 4 qubits.

A pure state is a product across a given bipartition exactly when the
coefficient vectors obtained by grouping amplitudes over the first
block's bit patterns are proportional.  For n <= 4 it suffices to test a
fixed list of candidate splits: the single split for two qubits, the
three 1-vs-2 splits for three qubits, and the four 1-vs-3 plus three
2-vs-2 splits for four qubits.  A state is genuinely entangled iff no
candidate family is proportional.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

from .proportional import check_tolerance, family_proportional, pair_proportional
from .states import Bipartition, StateVector

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
    """Outcome of the three-qubit shortcut on coefficient sums."""

    per_projection_entangled: Tuple[bool, bool, bool]
    certified: bool


@lru_cache(maxsize=None)
def coefficient_groups(num_qubits: int, block_a: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
    """Amplitude index groups for a candidate split.

    One group per bit pattern of ``block_a`` (patterns ascending), each
    listing basis indices in ascending order of the complementary
    block's bits.  The family of a state's amplitudes over these groups
    is proportional iff the state is a product across the split.
    """
    n = num_qubits
    block_a = tuple(sorted(block_a))
    if not block_a or not all(1 <= q <= n for q in block_a) or len(block_a) >= n:
        raise ValueError(f"bad block {block_a} for {n} qubits")
    groups: List[List[int]] = [[] for _ in range(1 << len(block_a))]
    for idx in range(1 << n):
        pattern = 0
        for q in block_a:
            pattern = (pattern << 1) | (idx >> (n - q)) & 1
        groups[pattern].append(idx)
    arrays = tuple(np.array(g, dtype=np.intp) for g in groups)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _proportional_splits(state: StateVector, tol: float) -> Iterator[FactorizationWitness]:
    """Witness for each candidate split that tests proportional, in
    reporting order; none for the zero state."""
    n = state.num_qubits
    if n not in CANDIDATE_SPLITS:
        raise ValueError(f"exact tests cover 2..4 qubits, got {n}")
    check_tolerance(tol)
    amps = state.amplitudes
    if not amps.any():
        return
    for block in CANDIDATE_SPLITS[n]:
        vectors = [amps[g] for g in coefficient_groups(n, block)]
        if family_proportional(vectors, tol):
            yield FactorizationWitness(
                partition=Bipartition.from_block(n, block),
                family=tuple(tuple(map(complex, v)) for v in vectors),
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
        genuinely_entangled=witness is None and bool(state.amplitudes.any()),
        witness=witness,
    )


def all_factorizations(state: StateVector, tol: float = 1e-9) -> List[FactorizationWitness]:
    """Every candidate split that tests proportional (fully product states
    report several)."""
    return list(_proportional_splits(state, tol))


def sufficient_3q(state: StateVector, tol: float = 1e-9) -> SufficientCheck:
    """Certify a three-qubit state genuine from coefficient sums alone.

    For each lost qubit the projected two-qubit state is written directly
    as sums of amplitude pairs and tested for entanglement; two entangled
    projections certify genuine entanglement.  Sufficient, not necessary:
    ``wclass_3q()`` is genuinely entangled yet certifies nothing here.
    """
    n = state.num_qubits
    if n != 3:
        raise ValueError(f"expected a 3-qubit state, got {n} qubits")
    c = state.amplitudes
    projected = (
        (c[0] + c[4], c[1] + c[5], c[2] + c[6], c[3] + c[7]),  # losing qubit 1
        (c[0] + c[2], c[1] + c[3], c[4] + c[6], c[5] + c[7]),  # losing qubit 2
        (c[0] + c[1], c[2] + c[3], c[4] + c[5], c[6] + c[7]),  # losing qubit 3
    )
    flags = tuple(
        not pair_proportional(d[:2], d[2:], tol) for d in projected
    )
    return SufficientCheck(
        per_projection_entangled=flags, certified=sum(flags) >= 2
    )
