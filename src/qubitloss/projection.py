"""The qubit-loss projection.

Losing qubit k maps an n-qubit state to the (n-1)-qubit state obtained by
summing, for every remaining bit pattern, the two amplitudes that differ
only in qubit k's bit.  With ell = 2^(n-k), the output amplitude at index
m*ell + i is a[2m*ell + i] + a[(2m+1)*ell + i]: viewed as an array of
shape (2^(k-1), 2, ell), one add of its two halves along the middle axis.

That add is the only pass over the amplitudes.  Every state carries an
upper bound on its real and imaginary parts (the largest modulus at the
root, twice the input's bound for a projection), which proves that the
sums cannot overflow and, from the first amplitude alone, settles the
zero rule whenever it is not close; only then is a largest modulus taken.

The projection is linear, projections for different qubits commute (after
index remapping), and the result is a pure state, unlike a partial trace.
Results are never renormalized; downstream tests are scale invariant and
a projection may legitimately vanish, which callers treat as "product".
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from .states import StateVector

# A projection counts as vanished when its largest amplitude is at most this
# fraction of the input's largest amplitude.  The rule is fixed.
DEFAULT_ZERO_RTOL = 1e-12


class ProjectionOverflow(ValueError):
    """A projection whose sums leave the float range, naming the lost qubit
    and the qubits it was lost from by their labels."""

    def __init__(self, lost: int, labels: Sequence[int]) -> None:
        subset = "{" + ",".join(map(str, labels)) + "}"
        super().__init__(
            f"losing qubit {lost} from {subset} gives amplitudes that are not "
            "finite (the sums overflow)"
        )


@dataclass(frozen=True)
class ProjectionResult:
    state: StateVector
    lost_qubit: int
    is_zero: bool


def lose_qubit(state: StateVector, k: int) -> ProjectionResult:
    """Project out qubit k (1-based), returning the (n-1)-qubit state."""
    n = state.num_qubits
    if n < 2:
        raise ValueError("cannot lose a qubit from a single-qubit state")
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    pairs = state.amplitudes.reshape(1 << (k - 1), 2, 1 << (n - k))
    out = (pairs[:, 0] + pairs[:, 1]).reshape(-1)
    # Two parts of at most B round to a sum of at most 2B, so only a bound
    # past the float maximum lets a sum overflow.
    bound = 2.0 * state._part_bound()
    if bound > sys.float_info.max and not np.isfinite(out.view(np.float64)).all():
        raise ProjectionOverflow(k, range(1, n + 1))
    projected = StateVector._adopt(n - 1, out, bound)
    # The zero rule compares largest moduli.  |out[0]| is at least its larger
    # part and the input's largest modulus is at most sqrt(2) times its own
    # bound, below ``bound``: a part of out[0] above the threshold at
    # ``bound`` settles "not zero" with no pass over either state.
    first = complex(out[0])
    settled = max(abs(first.real), abs(first.imag)) > DEFAULT_ZERO_RTOL * bound
    is_zero = not settled and projected._largest() <= DEFAULT_ZERO_RTOL * state._largest()
    return ProjectionResult(state=projected, lost_qubit=k, is_zero=is_zero)


def all_projections(state: StateVector) -> List[ProjectionResult]:
    """The n single-qubit-loss projections, in qubit order."""
    return [lose_qubit(state, k) for k in range(1, state.num_qubits + 1)]


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
    # Ascending original order; ``labels`` names the qubits still present.
    current, labels = state, tuple(range(1, n + 1))
    for k in ks:
        try:
            current = lose_qubit(current, labels.index(k) + 1).state
        except ProjectionOverflow:
            raise ProjectionOverflow(k, labels) from None
        labels = tuple(q for q in labels if q != k)
    return current
