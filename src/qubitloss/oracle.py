"""Brute-force ground truth for verification.

A pure state is genuinely entangled iff none of its 2^(n-1) - 1
bipartition unfoldings has numerical rank <= 1.  This scans them all with
SVDs, independent of the proportionality route, so the two can check each
other.  Cost is exponential; the scan is gated to 12 qubits.

Also provides the partial trace and the exact positive-partial-transpose
separability test for two-qubit reductions, for contrasting the
qubit-loss projection (a pure state) with tracing a qubit out (generally
a mixed state).  Both matrix readers take their entries through
``states._numbers``; the Hermiticity test is relative to the largest modulus.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .states import (
    DEFAULT_TOL, Bipartition, StateVector, _numbers, all_bipartitions, as_int,
    check_tolerance, largest_modulus, unfold, unit_scale,
)

MAX_SCAN_QUBITS = 12


def numerical_rank(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above tol times the largest one."""
    check_tolerance(tol)
    m = _numbers(matrix, "matrix entries")[0]
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    # Scaled exactly so that no singular value overflows or underflows.
    sigma = np.linalg.svd(m * unit_scale(largest_modulus(m)), compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > tol * sigma[0]))


def find_product_cut(state: StateVector, tol: float = DEFAULT_TOL) -> Optional[Bipartition]:
    """First bipartition (if any) across which the state is a product."""
    check_tolerance(tol)
    n = state.num_qubits
    if n < 2:
        raise ValueError("need at least two qubits")
    if n > MAX_SCAN_QUBITS:
        raise ValueError(
            f"bipartition scan is gated to {MAX_SCAN_QUBITS} qubits, got {n}"
        )
    if state.is_zero():
        raise ValueError("cannot classify the zero state")
    for part in all_bipartitions(n):
        if numerical_rank(unfold(state, part), tol) <= 1:
            return part
    return None


def oracle_genuine(state: StateVector, tol: float = DEFAULT_TOL) -> bool:
    """True iff every bipartition unfolding has rank >= 2."""
    return find_product_cut(state, tol) is None


def partial_trace(state: StateVector, keep: Iterable[int]) -> np.ndarray:
    """Reduced density matrix on the kept qubits (state normalized first).

    With M the unfolding of the normalized state across keep|rest, the
    reduction is M M^dagger: Hermitian, positive semidefinite, trace 1.
    """
    n = state.num_qubits
    keep = tuple(sorted(map(as_int, keep)))
    if not keep or len(keep) >= n:
        raise ValueError(f"kept qubits {keep} must be a nonempty proper subset")
    m = unfold(state.normalized(), keep)
    return m @ m.conj().T


def ppt_2qubit(rho: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Exact separability of a two-qubit density matrix (True = separable).

    Transposes the second qubit's indices and checks the smallest
    eigenvalue against -tol.  The input is scaled exactly to unit trace;
    non-Hermitian input (beyond 1e-10 relative) is rejected.
    """
    check_tolerance(tol)
    rho = _numbers(rho, "density matrix entries")[0]
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {rho.shape}")
    rho = rho * unit_scale(largest_modulus(rho))  # exact; the trace cannot overflow
    if float(np.abs(rho - rho.conj().T).max()) > 1e-10 * largest_modulus(rho):
        raise ValueError("density matrix is not Hermitian within tolerance")
    trace = complex(np.trace(rho))
    if trace.real <= 0.0:
        raise ValueError(f"density matrix trace must be positive, got {trace}")
    rho = rho / trace.real
    transposed = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    smallest = float(np.linalg.eigvalsh(transposed)[0])
    return smallest >= -tol
