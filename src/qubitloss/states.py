"""Pure n-qubit state vectors: their index layout, their magnitudes and
the qubit-loss projection.

Amplitude index i spells the bit string b1 b2 ... bn with qubit 1 as the
most significant bit, so the amplitude of |b1...bn> sits at
sum(b_k * 2**(n-k)).  States are deliberately kept unnormalized: every
detection test in this package is invariant under global rescaling, and
projected states come out unnormalized anyway.  Each input rule has one
owner here: ``as_int`` (``int_text`` for text) reads every qubit number,
label and bit; ``check_qubit_count`` every qubit count, before anything is
sized by it; ``_numbers`` every array of numbers (amplitudes, vectors,
matrices); ``check_tolerance`` every tolerance.  ``largest_modulus`` (with
``unit_scale``, its exact power of two) gives every scale and threshold.

Losing qubit k adds, for every remaining bit pattern, the two amplitudes
that differ only in qubit k's bit: viewed as an array of shape
(2^(k-1), 2, 2^(n-k)), one add of its two halves along the middle axis,
the only pass over the amplitudes.  Every state carries a bound on its
real and imaginary parts, 0.0 exactly when it is zero (a built state's
largest part, taken in ``_numbers``'s finiteness pass; a projection's
twice its input's, or 0.0), which proves the sums cannot overflow and,
from the first amplitude alone, settles the zero rule whenever it is
not close; only then is a largest modulus taken.
The projection is linear, losses of different qubits commute, and the
result is a pure state, unlike a partial trace.  It is never
renormalized, and one that vanishes counts as a product.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

# Largest state read from a file or built by name: 2^24 amplitudes take
# 256 MiB, and the detector holds a few such arrays at once.
MAX_QUBITS = 24

# A projection counts as vanished when its largest amplitude is at most this
# fraction of the input's largest amplitude.  The rule is fixed.
DEFAULT_ZERO_RTOL = 1e-12

DEFAULT_TOL = 1e-9  # the relative tolerance of every test when none is given


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


def check_tolerance(tol: float) -> float:
    """Return ``tol`` if it is a finite nonnegative Python or NumPy int or
    float (not a bool), else raise ValueError.

    A NaN threshold makes every comparison false (every family reads
    entangled) and an infinite one makes every family proportional, so
    either would fake a verdict.  Zero is allowed: exact arithmetic.  A
    bool is not a tolerance: ``True`` would run at 1.0.
    """
    if isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating)):
        raise ValueError(f"tolerance must be a real number, got {tol!r}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


def largest_modulus(values) -> float:
    """Largest modulus of the entries, 0.0 for none; a modulus that overflows
    while both its parts stay finite counts as the largest finite float."""
    return min(float(np.abs(values).max(initial=0.0)), sys.float_info.max)


def unit_scale(largest: float) -> float:
    """The power of two 2^-e, with e the exponent of a ``largest_modulus``.

    Scaling by it is exact and puts a modulus of ``largest`` in [0.5, 1),
    so products of scaled entries neither overflow for huge vectors nor
    underflow for tiny ones.  The clamp keeps 2^-e finite when ``largest``
    is subnormal; zero gives 1.
    """
    return math.ldexp(1.0, -max(math.frexp(largest)[1], -1023))


def _numbers(values, what: str) -> Tuple[np.ndarray, float]:
    """``values``, named ``what`` in errors, as a new complex array of their
    shape, and its largest real or imaginary part.  No bools or text, which
    NumPy's cast would read; the bound is taken in the one pass that checks
    finiteness, as a NaN or an infinity fails its comparison."""
    a = np.asarray(values)  # an object array: ints past int64, or mixed types
    if a.dtype.kind not in "iufc" and not (a.dtype.kind == "O" and all(
            isinstance(x, numbers.Number) and not isinstance(x, bool) for x in a.flat)):
        raise ValueError(f"{what} must be ints, floats or complex numbers, got dtype {a.dtype}")
    try:
        z = np.array(a, dtype=complex, order="C")
    except OverflowError:  # an int past the float range
        raise ValueError(f"{what} must be finite") from None
    parts = z.reshape(-1).view(np.float64)
    bound = max(float(parts.max(initial=0.0)), -float(parts.min(initial=0.0)))
    if not bound <= sys.float_info.max:
        raise ValueError(f"{what} must be finite")
    return z, bound


class StateVector:
    """Immutable amplitude vector of a pure n-qubit state (not normalized)."""

    __slots__ = ("num_qubits", "amplitudes", "_max_abs", "_bound")

    def __init__(self, num_qubits: int, amplitudes) -> None:
        num_qubits = check_qubit_count(num_qubits)
        amps, bound = _numbers(amplitudes, "amplitudes")
        if amps.size != 1 << num_qubits:
            raise ValueError(f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
                             f"got {amps.size}")
        _fill(self, num_qubits, amps.reshape(-1), bound, None)

    @classmethod
    def _adopt(cls, num_qubits: int, amps: np.ndarray, bound: float,
               largest: float | None) -> "StateVector":
        """Wrap a fresh complex array of 2^n finite amplitudes, with no copy
        and no checks (it becomes read-only and must not be shared); ``bound``
        caps every part and ``largest`` is their ``largest_modulus``, or None
        if they are not all 0, so the state's bound is 0.0 exactly when it is zero."""
        self = object.__new__(cls)
        _fill(self, num_qubits, amps, 0.0 if largest == 0.0 else bound, largest)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def _largest(self) -> float:
        """``largest_modulus`` of the amplitudes, computed at most once per state."""
        if self._max_abs is None:
            _SET_MAX_ABS(self, largest_modulus(self.amplitudes))
        return self._max_abs

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "StateVector":
        """Build a state from a length-2^n vector, inferring n."""
        amps = np.asarray(amplitudes)  # read once; ``__init__`` checks the entries
        n = amps.size.bit_length() - 1
        if amps.size < 2 or amps.size != 1 << n:
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
        """Whether every amplitude is 0: the part bound is 0.0 exactly then."""
        return self._bound == 0.0

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


# The slots' own setters, which ``__setattr__`` does not block.
_SET_QUBITS, _SET_AMPS, _SET_MAX_ABS, _SET_BOUND = (
    StateVector.__dict__[name].__set__ for name in StateVector.__slots__
)


def _fill(state: StateVector, num_qubits: int, amps: np.ndarray, bound: float,
          max_abs: float | None):
    """Set every slot of a new state; ``amps`` becomes read-only."""
    amps.setflags(write=False)
    _SET_QUBITS(state, num_qubits)
    _SET_AMPS(state, amps)
    _SET_MAX_ABS(state, max_abs)
    _SET_BOUND(state, bound)


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
    n = check_qubit_count(a.num_qubits + b.num_qubits)
    return StateVector(n, np.kron(a.amplitudes, b.amplitudes))


def product_state(factors: Sequence[Tuple[Sequence[int], StateVector]]) -> StateVector:
    """Assemble a product state from factors living on given qubit labels.

    ``factors`` is a sequence of ``(labels, state)`` pairs whose labels
    must tile 1..n exactly.  Labels may interleave freely, e.g. a Bell
    pair on qubits (1, 3) times another factor on (2, 4).
    """
    label_seq: list[int] = []
    kets = []
    for labels, st in factors:
        labels = tuple(as_int(q) for q in labels)
        if len(labels) != st.num_qubits:
            raise ValueError(f"factor on {labels} has {st.num_qubits} qubits, "
                             f"expected {len(labels)}")
        label_seq.extend(labels)
        kets.append(st.amplitudes)
    n = len(label_seq)
    if sorted(label_seq) != list(range(1, n + 1)):
        raise ValueError(f"factor labels {label_seq} do not tile 1..{n}")
    check_qubit_count(n)
    arr = reduce(np.kron, kets, np.ones(1, dtype=complex))
    perm = [label_seq.index(q) for q in range(1, n + 1)]
    full = arr.reshape((2,) * n).transpose(perm).reshape(-1)
    return StateVector(n, full)


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
        num_qubits = check_qubit_count(as_int(num_qubits))
        a = tuple(sorted(as_int(q) for q in block_a))
        if not all(1 <= q <= num_qubits for q in a):
            raise ValueError(f"labels {a} out of range for {num_qubits} qubits")
        b = tuple(q for q in range(1, num_qubits + 1) if q not in a)
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
    if (num_qubits := check_qubit_count(as_int(num_qubits))) < 2:
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


class ProjectionResult(NamedTuple):
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
    # Two parts of at most B round to a sum of at most 2B, so only a bound past
    # the float maximum lets a sum overflow, and ProjectionOverflow reports it.
    bound = 2.0 * state._bound
    if bound <= sys.float_info.max:
        out = (pairs[:, 0] + pairs[:, 1]).ravel()
    else:
        with np.errstate(over="ignore"):
            out = (pairs[:, 0] + pairs[:, 1]).ravel()
        if not np.isfinite(out.view(np.float64)).all():
            raise ProjectionOverflow(k, range(1, n + 1))
    # The zero rule compares largest moduli.  The input's bound is at least
    # each of its parts, so its largest modulus is at most sqrt(2) times
    # that, below ``bound``, while |out[0]| is at least its larger part: a
    # part of out[0] above the threshold at ``bound`` settles "not zero"
    # with no pass over either state.
    first = out.item(0)
    close = max(abs(first.real), abs(first.imag)) <= DEFAULT_ZERO_RTOL * bound
    largest = largest_modulus(out) if close else None
    is_zero = largest is not None and largest <= DEFAULT_ZERO_RTOL * state._largest()
    return ProjectionResult(StateVector._adopt(n - 1, out, bound, largest), k, is_zero)


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
        raise ValueError(f"losing {len(ks)} of {n} qubits leaves fewer than two")
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


def random_product_state(rng: np.random.Generator, blocks: Sequence[Sequence[int]]) -> StateVector:
    """Product of complex-Gaussian factors on the given label blocks."""
    blocks = [tuple(b) for b in blocks]
    check_qubit_count(sum(map(len, blocks)))
    return product_state([(b, random_state(rng, len(b))) for b in blocks])
