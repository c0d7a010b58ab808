"""Named reference states.

Conventional families (GHZ, W, Dicke, the four-qubit cluster state and
Osterloh's PHI4) are returned normalized.  EXAMPLE3_4Q and WCLASS_3Q are
fixed literal amplitude patterns and stay unnormalized; every consumer in
this package is scale invariant, so the distinction is cosmetic.
"""

from __future__ import annotations

import math
import re
from itertools import combinations

import numpy as np

from .states import StateVector, as_int, check_qubit_count, int_text

def ghz(num_qubits: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if check_qubit_count(num_qubits) < 2:
        raise ValueError("GHZ needs at least two qubits")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(num_qubits, amps)


def w_state(num_qubits: int) -> StateVector:
    """Uniform superposition of the Hamming-weight-1 basis states."""
    if check_qubit_count(num_qubits) < 2:
        raise ValueError("W needs at least two qubits")
    return dicke(num_qubits, 1)


def dicke(num_qubits: int, excitations: int) -> StateVector:
    """Uniform superposition of the Hamming-weight-k basis states, normalized."""
    n, k = check_qubit_count(num_qubits), as_int(excitations)
    if not 0 <= k <= n:
        raise ValueError(f"invalid Dicke parameters n={n}, k={k}")
    amps = np.zeros(1 << n, dtype=complex)
    count = math.comb(n, k)
    for positions in combinations(range(n), k):
        idx = sum(1 << (n - 1 - p) for p in positions)
        amps[idx] = 1.0 / math.sqrt(count)
    return StateVector(n, amps)


def phi4() -> StateVector:
    """(|0001> + |0010> + |1100> + |1111>)/2."""
    amps = np.zeros(16, dtype=complex)
    amps[[1, 2, 12, 15]] = 0.5
    return StateVector(4, amps)


def example3_4q() -> StateVector:
    """|0000> + |0111> - |1111>, unnormalized."""
    amps = np.zeros(16, dtype=complex)
    amps[0] = amps[7] = 1.0
    amps[15] = -1.0
    return StateVector(4, amps)


def wclass_3q() -> StateVector:
    """|001> + |010> + |100> + |111>, unnormalized.

    Genuinely entangled, yet all three of its single-qubit-loss
    projections are product states; the canonical witness that two
    genuinely entangled projections are sufficient but not necessary.
    """
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4, 7]] = 1.0
    return StateVector(3, amps)


def cluster4() -> StateVector:
    """Linear cluster state (|0000> + |0011> + |1100> - |1111>)/2."""
    amps = np.zeros(16, dtype=complex)
    amps[[0, 3, 12]] = 0.5
    amps[15] = -0.5
    return StateVector(4, amps)


# Each catalog key is declared once, here.  A family takes a qubit count
# (DICKE(k) takes its k too, written in the key); a fixed entry takes none.
_FAMILIES = {"GHZ": ghz, "W": w_state, "DICKE(k)": dicke}
_FIXED = {"PHI4": phi4, "EXAMPLE3_4Q": example3_4q, "WCLASS_3Q": wclass_3q, "CLUSTER4": cluster4}
CATALOG_KEYS = (*_FAMILIES, *_FIXED)


def named_state(name: str, num_qubits: int | None = None) -> StateVector:
    """Look up a catalog state by one of ``CATALOG_KEYS``, in any case.

    A family needs ``num_qubits`` (``DICKE(k)`` is asked for with its k in
    ASCII digits, as ``DICKE(2)``); a fixed entry refuses a ``num_qubits``
    other than its own size.
    """
    key = name.strip().upper()
    if num_qubits is not None:
        num_qubits = check_qubit_count(num_qubits)
    if key in _FIXED:
        state = _FIXED[key]()
        if num_qubits is not None and num_qubits != state.num_qubits:
            raise ValueError(f"{key} is a {state.num_qubits}-qubit state, got n={num_qubits}")
        return state
    # The upper-cased literal "DICKE(K)" matches no family, so it is unknown.
    dicke_k = re.fullmatch(r"DICKE\(([0-9]+)\)", key)
    family = "DICKE(k)" if dicke_k else key
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown catalog state {name!r}; known: {', '.join(CATALOG_KEYS)}"
        )
    if num_qubits is None:
        raise ValueError(f"{family} needs an explicit qubit count")
    params = map(int_text, dicke_k.groups()) if dicke_k else ()
    return _FAMILIES[family](num_qubits, *params)
