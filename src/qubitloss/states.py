"""Pure n-qubit state vectors.

Amplitude index i spells the bit string b1 b2 ... bn with qubit 1 as the
most significant bit, so the amplitude of |b1...bn> sits at
sum(b_k * 2**(n-k)).  States are deliberately kept unnormalized: every
detection test in this package is invariant under global rescaling, and
projected states come out unnormalized anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .proportional import pair_proportional

# Largest state read from a file or built by name: 2^24 amplitudes take
# 256 MiB, and the detector holds a few such arrays at once.
MAX_QUBITS = 24


def check_qubit_count(num_qubits: int) -> None:
    """Raise ValueError above MAX_QUBITS; call it before allocating."""
    if num_qubits > MAX_QUBITS:
        raise ValueError(
            f"{num_qubits} qubits exceeds the limit of MAX_QUBITS = {MAX_QUBITS}"
        )


class StateVector:
    """Immutable amplitude vector of a pure n-qubit state (not normalized)."""

    __slots__ = ("num_qubits", "amplitudes", "_max_abs")

    def __init__(self, num_qubits: int, amplitudes) -> None:
        if num_qubits < 1:
            raise ValueError(f"need at least one qubit, got {num_qubits}")
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size != 1 << num_qubits:
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} "
                f"qubits, got {amps.size}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_max_abs", None)

    @classmethod
    def _adopt(cls, num_qubits: int, amps: np.ndarray, max_abs: float) -> "StateVector":
        """Wrap a fresh complex array of 2^n finite amplitudes and its
        largest modulus, with no copy and no checks; the array becomes
        read-only and must not be shared."""
        self = object.__new__(cls)
        amps.flags.writeable = False
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_max_abs", max_abs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def _largest(self) -> float:
        """Largest amplitude modulus, computed at most once per state."""
        if self._max_abs is None:
            object.__setattr__(self, "_max_abs", float(np.abs(self.amplitudes).max()))
        return self._max_abs

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "StateVector":
        """Build a state from a length-2^n vector, inferring n."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = amps.size.bit_length() - 1
        if amps.size != 1 << n or amps.size < 2:
            raise ValueError(f"length {amps.size} is not a power of two >= 2")
        return cls(n, amps)

    def amplitude(self, bits) -> complex:
        """Amplitude of the basis state given as a bit string or sequence."""
        return complex(self.amplitudes[basis_index(bits, self.num_qubits)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return StateVector(self.num_qubits, self.amplitudes / n)

    def is_zero(self) -> bool:
        return self._largest() == 0.0

    def __repr__(self) -> str:
        n = self.num_qubits
        if n > 6:
            return f"StateVector(num_qubits={n})"
        terms = []
        for i, a in enumerate(self.amplitudes):
            if a != 0:
                terms.append(f"({a:.3g})|{i:0{n}b}>")
        body = " + ".join(terms) if terms else "0"
        return f"StateVector({body})"


def basis_index(bits, num_qubits: int | None = None) -> int:
    """Index of the basis state |b1...bn>, qubit 1 most significant."""
    if isinstance(bits, str):
        seq = [int(c) for c in bits]
    else:
        seq = [int(b) for b in bits]
    if any(b not in (0, 1) for b in seq):
        raise ValueError(f"bits must be 0/1, got {bits!r}")
    if num_qubits is not None and len(seq) != num_qubits:
        raise ValueError(f"expected {num_qubits} bits, got {len(seq)}")
    idx = 0
    for b in seq:
        idx = (idx << 1) | b
    return idx


def basis_state(bits) -> StateVector:
    """The computational basis state |b1...bn>."""
    seq = bits if not isinstance(bits, str) else list(bits)
    n = len(seq)
    amps = np.zeros(1 << n, dtype=complex)
    amps[basis_index(bits, n)] = 1.0
    return StateVector(n, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; a's qubits become the leading (most significant) ones."""
    return StateVector(
        a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes)
    )


def product_state(factors: Sequence[Tuple[Sequence[int], StateVector]]) -> StateVector:
    """Assemble a product state from factors living on given qubit labels.

    ``factors`` is a sequence of ``(labels, state)`` pairs whose labels
    must tile 1..n exactly.  Labels may interleave freely, e.g. a Bell
    pair on qubits (1, 3) times another factor on (2, 4).
    """
    label_seq: list[int] = []
    arr = np.ones(1, dtype=complex)
    for labels, st in factors:
        labels = tuple(int(q) for q in labels)
        if len(labels) != st.num_qubits:
            raise ValueError(
                f"factor on {labels} has {st.num_qubits} qubits, "
                f"expected {len(labels)}"
            )
        label_seq.extend(labels)
        arr = np.kron(arr, st.amplitudes)
    n = len(label_seq)
    if sorted(label_seq) != list(range(1, n + 1)):
        raise ValueError(f"factor labels {label_seq} do not tile 1..{n}")
    perm = [label_seq.index(q) for q in range(1, n + 1)]
    full = arr.reshape((2,) * n).transpose(perm).reshape(-1)
    return StateVector(n, full)


def equal_up_to_scale(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """True when a = lambda * b for some nonzero complex lambda.

    Decided by ``pair_proportional``, so the answer is invariant under
    rescaling either state.  Two zero states are equal; a zero and a
    nonzero state are not (lambda would have to vanish).
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}"
        )
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return pair_proportional(a.amplitudes, b.amplitudes, tol)


@dataclass(frozen=True)
class Bipartition:
    """A split of qubit labels into two disjoint nonempty blocks."""

    block_a: Tuple[int, ...]
    block_b: Tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(self.block_a))
        b = tuple(sorted(self.block_b))
        if not a or not b:
            raise ValueError("both blocks must be nonempty")
        if set(a) & set(b):
            raise ValueError(f"blocks overlap: {a} and {b}")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("blocks contain repeated labels")
        object.__setattr__(self, "block_a", a)
        object.__setattr__(self, "block_b", b)

    @classmethod
    def from_block(cls, num_qubits: int, block_a: Iterable[int]) -> "Bipartition":
        a = tuple(sorted(int(q) for q in block_a))
        if not all(1 <= q <= num_qubits for q in a):
            raise ValueError(f"labels {a} out of range for {num_qubits} qubits")
        b = tuple(q for q in range(1, num_qubits + 1) if q not in set(a))
        return cls(a, b)

    @property
    def qubits(self) -> Tuple[int, ...]:
        return tuple(sorted(self.block_a + self.block_b))

    def __str__(self) -> str:
        fa = ",".join(map(str, self.block_a))
        fb = ",".join(map(str, self.block_b))
        return f"{{{fa}}}|{{{fb}}}"


def _matricize(array: np.ndarray, num_qubits: int, block_a: Tuple[int, ...]) -> np.ndarray:
    """``unfold`` for any array of 2^n entries, one per basis state;
    ``block_a`` must be sorted, nonempty and proper, and is not checked."""
    rest = [q for q in range(1, num_qubits + 1) if q not in block_a]
    axes = [q - 1 for q in block_a] + [q - 1 for q in rest]
    cube = array.reshape((2,) * num_qubits)
    return cube.transpose(axes).reshape(1 << len(block_a), -1)


def unfold(state: StateVector, partition) -> np.ndarray:
    """Matricize a state across a bipartition.

    Entry (r, c) is the amplitude of the basis state whose block-A bits
    spell r and block-B bits spell c, each block read in ascending qubit
    order.  ``partition`` is a Bipartition or an iterable giving block A.
    Rank 1 here is exactly "product across this cut".
    """
    n = state.num_qubits
    if isinstance(partition, Bipartition):
        part = partition
    else:
        part = Bipartition.from_block(n, partition)
    if part.qubits != tuple(range(1, n + 1)):
        raise ValueError(f"partition {part} does not cover qubits 1..{n}")
    return _matricize(state.amplitudes, n, part.block_a)


def all_bipartitions(num_qubits: int) -> Iterator[Bipartition]:
    """All 2^(n-1) - 1 bipartitions of qubits 1..n, block A containing qubit 1."""
    if num_qubits < 2:
        raise ValueError("bipartitions need at least two qubits")
    rest = list(range(2, num_qubits + 1))
    for mask in range(1 << (num_qubits - 1)):
        block_a = (1,) + tuple(q for i, q in enumerate(rest) if mask >> i & 1)
        if len(block_a) == num_qubits:
            continue
        yield Bipartition.from_block(num_qubits, block_a)


def random_state(rng: np.random.Generator, num_qubits: int) -> StateVector:
    """Dense state with independent complex-Gaussian amplitudes."""
    d = 1 << num_qubits
    return StateVector(num_qubits, rng.standard_normal(d) + 1j * rng.standard_normal(d))


def random_product_state(
    rng: np.random.Generator, blocks: Sequence[Sequence[int]]
) -> StateVector:
    """Product of complex-Gaussian factors on the given label blocks."""
    return product_state(
        [(tuple(b), random_state(rng, len(tuple(b)))) for b in blocks]
    )
