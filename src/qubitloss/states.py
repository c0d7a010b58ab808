"""Pure n-qubit state vectors: their index layout, their magnitudes and
the qubit-loss projection.

Amplitude index i spells the bit string b1 b2 ... bn with qubit 1 as the
most significant bit, so the amplitude of |b1...bn> sits at
sum(b_k * 2**(n-k)).  States are deliberately kept unnormalized: every
detection test in this package is invariant under global rescaling, and
projected states come out unnormalized anyway.  One integer rule reads
every qubit count, number, label and bit: ``as_int``, or ``int_text`` for text.

Losing qubit k adds, for every remaining bit pattern, the two amplitudes
that differ only in qubit k's bit: viewed as an array of shape
(2^(k-1), 2, 2^(n-k)), one add of its two halves along the middle axis,
the only pass over the amplitudes.  Every state carries an upper bound on
its real and imaginary parts (its largest modulus when built directly,
twice the input's bound for a projection), which proves that the sums
cannot overflow and, from the first amplitude alone, settles the zero
rule whenever it is not close; only then is a largest modulus taken.
The projection is linear, losses of different qubits commute, and the
result is a pure state, unlike a partial trace.  It is never
renormalized, and one that vanishes counts as a product.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .proportional import (
    DEFAULT_TOL, check_tolerance, largest_modulus, pair_proportional, unit_scale,
)

# Largest state read from a file or built by name: 2^24 amplitudes take
# 256 MiB, and the detector holds a few such arrays at once.
MAX_QUBITS = 24

# A projection counts as vanished when its largest amplitude is at most this
# fraction of the input's largest amplitude.  The rule is fixed.
DEFAULT_ZERO_RTOL = 1e-12


def as_int(value) -> int:
    """A qubit count, number, label or bit as an int; Python and NumPy
    integers pass, anything else (a bool, a float, text) raises ValueError."""
    try:
        if not isinstance(value, bool):  # True is an int to ``operator.index``
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"qubit numbers, labels and bits must be integers, got {value!r}")


def int_text(text: str) -> int:
    """``as_int`` for text: ASCII digits alone, no sign, underscore or space."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"an integer in text must be ASCII digits alone, got {text!r}")
    if len(text) > 4300:  # Python's default limit, which raises its own message
        raise ValueError(f"an integer in text must have at most 4300 digits, got {len(text)}")
    return int(text)


def check_qubit_count(num_qubits) -> int:
    """The count as an int if ``as_int`` reads it in 1..MAX_QUBITS; call before allocating."""
    try:
        if 1 <= (n := as_int(num_qubits)) <= MAX_QUBITS:
            return n
    except ValueError:
        pass
    raise ValueError(
        f"qubit count must be an integer in 1..MAX_QUBITS = {MAX_QUBITS}, got {num_qubits!r}"
    )


class StateVector:
    """Immutable amplitude vector of a pure n-qubit state (not normalized)."""

    __slots__ = ("num_qubits", "amplitudes", "_max_abs", "_bound")

    def __init__(self, num_qubits: int, amplitudes) -> None:
        num_qubits = check_qubit_count(num_qubits)
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
        object.__setattr__(self, "_bound", None)

    @classmethod
    def _adopt(cls, num_qubits: int, amps: np.ndarray, bound: float) -> "StateVector":
        """Wrap a fresh complex array of 2^n finite amplitudes, with no copy
        and no checks, and ``bound``, at least every real and imaginary part
        of them; the array becomes read-only and must not be shared.  Its
        ``largest_modulus`` is taken only when something asks for it."""
        self = object.__new__(cls)
        amps.flags.writeable = False
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_max_abs", None)
        object.__setattr__(self, "_bound", bound)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def _largest(self) -> float:
        """``largest_modulus`` of the amplitudes, computed at most once per state."""
        if self._max_abs is None:
            object.__setattr__(self, "_max_abs", largest_modulus(self.amplitudes))
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

    # Both scale by ``unit_scale`` first, which is exact, so that squaring
    # neither overflows for huge amplitudes nor underflows for tiny ones.
    def norm(self) -> float:
        scale = unit_scale(self._largest())
        return float(np.linalg.norm(self.amplitudes * scale)) / scale

    def normalized(self) -> "StateVector":
        scaled = self.amplitudes * unit_scale(self._largest())
        n = float(np.linalg.norm(scaled))
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return StateVector(self.num_qubits, scaled / n)

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
    seq = list(map(int_text if isinstance(bits, str) else as_int, bits))
    if any(b not in (0, 1) for b in seq):
        raise ValueError(f"bits must be 0/1, got {bits!r}")
    if num_qubits is not None and len(seq) != as_int(num_qubits):
        raise ValueError(f"expected {num_qubits} bits, got {len(seq)}")
    idx = 0
    for b in seq:
        idx = (idx << 1) | b
    return idx


def basis_state(bits) -> StateVector:
    """The computational basis state |b1...bn>."""
    n = check_qubit_count(len(bits))
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
        labels = tuple(as_int(q) for q in labels)
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


def equal_up_to_scale(a: StateVector, b: StateVector, tol: float = DEFAULT_TOL) -> bool:
    """True when a = lambda * b for some nonzero complex lambda.

    Decided by ``pair_proportional``, so the answer is invariant under
    rescaling either state.  Two zero states are equal; a zero and a
    nonzero state are not (lambda would have to vanish).
    """
    check_tolerance(tol)
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
        a = tuple(sorted(map(as_int, self.block_a)))
        b = tuple(sorted(map(as_int, self.block_b)))
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
        num_qubits = as_int(num_qubits)
        a = tuple(sorted(as_int(q) for q in block_a))
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
    num_qubits = as_int(num_qubits)
    if num_qubits < 2:
        raise ValueError("bipartitions need at least two qubits")
    rest = list(range(2, num_qubits + 1))
    for mask in range(1 << (num_qubits - 1)):
        block_a = (1,) + tuple(q for i, q in enumerate(rest) if mask >> i & 1)
        if len(block_a) == num_qubits:
            continue
        yield Bipartition.from_block(num_qubits, block_a)


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
    k = as_int(k)
    n = state.num_qubits
    if n < 2:
        raise ValueError("cannot lose a qubit from a single-qubit state")
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    pairs = state.amplitudes.reshape(1 << (k - 1), 2, 1 << (n - k))
    out = (pairs[:, 0] + pairs[:, 1]).reshape(-1)
    # A state not adopted bounds its parts by its largest modulus.  Two parts
    # of at most B round to a sum of at most 2B, so only a bound past the
    # float maximum lets a sum overflow.
    bound = 2.0 * (state._largest() if state._bound is None else state._bound)
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
    ks = sorted(set(as_int(q) for q in qubits))
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


def random_state(rng: np.random.Generator, num_qubits: int) -> StateVector:
    """Dense state with independent complex-Gaussian amplitudes."""
    d = 1 << check_qubit_count(num_qubits)
    return StateVector(num_qubits, rng.standard_normal(d) + 1j * rng.standard_normal(d))


def random_product_state(
    rng: np.random.Generator, blocks: Sequence[Sequence[int]]
) -> StateVector:
    """Product of complex-Gaussian factors on the given label blocks."""
    return product_state(
        [(tuple(b), random_state(rng, len(tuple(b)))) for b in blocks]
    )
