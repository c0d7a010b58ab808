"""The qubit-loss projection.

Losing qubit k maps an n-qubit state to the (n-1)-qubit state obtained by
summing, for every remaining bit pattern, the two amplitudes that differ
only in qubit k's bit.  With ell = 2^(n-k), the output amplitude at index
m*ell + i is a[2m*ell + i] + a[(2m+1)*ell + i], which is a plain
reshape-and-sum over the lost axis.

The projection is linear, projections for different qubits commute (after
index remapping), and the result is a pure state, unlike a partial trace.
Results are never renormalized; downstream tests are scale invariant and
a projection may legitimately vanish, which callers treat as "product".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from .states import StateVector

# A projection counts as vanished when its largest amplitude is below this
# fraction of the input's largest amplitude.
DEFAULT_ZERO_RTOL = 1e-12


@dataclass(frozen=True)
class ProjectionResult:
    state: StateVector
    lost_qubit: int
    is_zero: bool


def lose_qubit(
    state: StateVector, k: int, zero_rtol: float = DEFAULT_ZERO_RTOL
) -> ProjectionResult:
    """Project out qubit k (1-based), returning the (n-1)-qubit state."""
    n = state.num_qubits
    if n < 2:
        raise ValueError("cannot lose a qubit from a single-qubit state")
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    ell = 1 << (n - k)
    out = state.amplitudes.reshape(1 << (k - 1), 2, ell).sum(axis=1).reshape(-1)
    out_max = float(np.abs(out).max())
    # The sums can overflow.  A modulus can overflow while both parts stay
    # finite, and such a state is valid, so only then are the parts checked.
    if not math.isfinite(out_max) and not np.isfinite(out.view(np.float64)).all():
        raise ValueError(
            f"losing qubit {k} gives amplitudes that are not finite (the sums overflow)"
        )
    return ProjectionResult(
        state=StateVector._adopt(n - 1, out, out_max),
        lost_qubit=k,
        is_zero=out_max <= zero_rtol * state._largest(),
    )


def all_projections(
    state: StateVector, zero_rtol: float = DEFAULT_ZERO_RTOL
) -> List[ProjectionResult]:
    """The n single-qubit-loss projections, in qubit order."""
    if state.num_qubits < 2:
        raise ValueError("cannot lose a qubit from a single-qubit state")
    return [lose_qubit(state, k, zero_rtol) for k in range(1, state.num_qubits + 1)]


def lose_qubit_set(state: StateVector, qubits: Iterable[int]) -> StateVector:
    """Project out several qubits (set semantics, order independent).

    At least two qubits must remain.
    """
    ks = sorted(set(int(q) for q in qubits))
    n = state.num_qubits
    if not ks:
        raise ValueError("no qubits to lose")
    if ks[0] < 1 or ks[-1] > n:
        raise ValueError(f"qubit indices {ks} out of range 1..{n}")
    if n - len(ks) < 2:
        raise ValueError(
            f"losing {len(ks)} of {n} qubits leaves fewer than two"
        )
    # Ascending original order; each earlier loss shifts later indices down.
    current = state
    for lost_so_far, k in enumerate(ks):
        current = lose_qubit(current, k - lost_so_far).state
    return current
