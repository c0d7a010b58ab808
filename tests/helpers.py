"""Shared test utilities: a numpy stand-in that fails on any use, random
partitions, product states, states whose projection nearly cancels, an
independent bit-string reimplementation of the qubit-loss projection, a
memo-free reimplementation of the detector's recursion, the canonical
certificate's leaves formed one projection at a time, and the all-minors
proportionality rule that the exact leaf's kernel implements."""

from __future__ import annotations

import numpy as np

from qubitloss import (
    Bipartition,
    Certificate,
    FactorizationWitness,
    StateVector,
    Verdict,
    VerdictKind,
    detect_base,
    lose_qubit,
    max_cross_minor,
    random_product_state,
    random_state,
)
from qubitloss.detect import _project
from qubitloss.states import (
    DEFAULT_TOL, _numbers, check_tolerance, largest_modulus, unit_scale,
)


class _NoAllocation:
    """Stands in for numpy where a test must never reach an allocation."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached before the qubit limit")


def random_bipartition_blocks(rng: np.random.Generator, n: int):
    """A uniformly random proper bipartition of labels 1..n."""
    mask = int(rng.integers(1, (1 << n) - 1))
    block_a = tuple(q for q in range(1, n + 1) if mask >> (q - 1) & 1)
    block_b = tuple(q for q in range(1, n + 1) if q not in block_a)
    return block_a, block_b


def random_partition_blocks(
    rng: np.random.Generator, n: int, max_block: int | None = None
):
    """A random partition of labels 1..n into >= 2 blocks.

    ``max_block`` caps block sizes (used to avoid single-qubit x (n-1)
    factorizations).
    """
    while True:
        num_blocks = int(rng.integers(2, n + 1))
        assignment = rng.integers(0, num_blocks, size=n)
        blocks = [
            tuple(q for q in range(1, n + 1) if assignment[q - 1] == b)
            for b in range(num_blocks)
        ]
        blocks = [b for b in blocks if b]
        if len(blocks) < 2:
            continue
        if max_block is not None and any(len(b) > max_block for b in blocks):
            continue
        return blocks


def random_blocks(rng: np.random.Generator, n: int, count: int):
    """Labels 1..n in random order, cut into ``count`` nonempty blocks."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=count - 1, replace=False))
    return [tuple(sorted(int(q) for q in part)) for part in np.split(rng.permutation(n) + 1, cuts)]


def hadamard_ghz(n: int) -> StateVector:
    """H^n GHZ(n) = (|+...+> + |-...->)/sqrt(2): genuine, yet each of its
    projections is |+...+> times a scalar, a product."""
    plus, minus = np.ones(1 << n), np.ones(1)
    for _ in range(n):
        minus = np.kron(minus, [1, -1])
    return StateVector(n, (plus + minus) / 2 ** ((n + 1) / 2))


def random_product(rng: np.random.Generator, blocks) -> StateVector:
    return random_product_state(rng, blocks)


def random_dense(rng: np.random.Generator, n: int) -> StateVector:
    return random_state(rng, n)


def with_overflowing_moduli(state: StateVector) -> StateVector:
    """``state`` with every nonzero amplitude set to 1.5e308(1+i): both parts
    are finite, the modulus is not."""
    amps = np.where(state.amplitudes != 0, 1.5e308 * (1 + 1j), 0)
    return StateVector(state.num_qubits, amps)


def near_cancelling(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Amplitudes on n qubits whose pairs across qubit k cancel to a relative
    1e-13..1e-11, one order per state, times a scale in 1e-300..1e300.  In
    one draw of two the first amplitude is the largest, at phase pi/4, so
    its modulus is sqrt(2) times the largest part and the screen settles
    near its threshold; in one of four the first pair cancels exactly, so
    the screen cannot settle it."""
    d = 1 << (n - 1)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    delta = 10.0 ** rng.uniform(-13, -11) * rng.uniform(0.5, 1, d)
    delta = delta * np.exp(2j * np.pi * rng.random(d))
    if rng.random() < 0.5:
        x[0] = 2 * np.abs(x).max() * np.exp(0.25j * np.pi)
    if rng.random() < 0.25:
        delta[0] = 0.0
    pairs = np.empty((1 << (k - 1), 2, 1 << (n - k)), dtype=complex)
    pairs[:, 0] = x.reshape(1 << (k - 1), -1)
    pairs[:, 1] = -(x * (1 + delta)).reshape(1 << (k - 1), -1)
    return pairs.reshape(-1) * 10.0 ** rng.uniform(-300, 300)


def project_by_bits(state: StateVector, k: int) -> np.ndarray:
    """Qubit-loss projection recomputed from bit strings.

    For every output index, splice a 0 and then a 1 into position k of
    its bit string and add the two source amplitudes.  Deliberately
    avoids the reshape-and-sum layout used by the library.
    """
    n = state.num_qubits
    amps = state.amplitudes
    out = np.zeros(1 << (n - 1), dtype=complex)
    for idx in range(1 << (n - 1)):
        bits = format(idx, f"0{n - 1}b")
        with0 = int(bits[: k - 1] + "0" + bits[k - 1 :], 2)
        with1 = int(bits[: k - 1] + "1" + bits[k - 1 :], 2)
        out[idx] = amps[with0] + amps[with1]
    return out


def reference_detect(state: StateVector, labels=None, tol: float = 1e-9) -> Verdict:
    """``detect`` recomputed with no subset cache.

    Every projection is recomputed from its parent; a state of up to four
    qubits gets ``detect_base`` (witness blocks mapped back to the
    original labels), a larger one the first two certified projections in
    label order, a vanished projection counts as a product.
    """
    labels = tuple(range(1, state.num_qubits + 1)) if labels is None else labels
    if len(labels) <= 4:
        base = detect_base(state, tol)
        if base.genuinely_entangled:
            return Verdict(VerdictKind.GENUINE, certificate=Certificate(labels, "exact"))
        part = base.witness.partition
        block_a, block_b = (
            tuple(labels[q - 1] for q in block) for block in (part.block_a, part.block_b)
        )
        witness = FactorizationWitness(Bipartition(block_a, block_b), base.witness.family)
        return Verdict(VerdictKind.NOT_GENUINE, witness=witness)
    certified = []
    for pos, label in enumerate(labels, start=1):
        proj = lose_qubit(state, pos)
        if proj.is_zero:
            continue
        child = reference_detect(proj.state, labels[: pos - 1] + labels[pos:], tol)
        if child.kind is VerdictKind.GENUINE:
            certified.append((label, child.certificate))
        if len(certified) == 2:
            lost, children = zip(*certified)
            return Verdict(
                VerdictKind.GENUINE,
                certificate=Certificate(labels, "two-projections", lost, children),
            )
    return Verdict(VerdictKind.INCONCLUSIVE)


def descent_by_projection(state):
    """The walk's first descent as (state, labels) pairs, one
    ``lose_qubit(state, 1)`` at a time: ``state`` on labels 1..n, then each
    state with its first label lost, down to four qubits, stopping before a
    projection that vanishes; an overflow raises the walk's message."""
    labels = tuple(range(1, state.num_qubits + 1))
    chain = [(state, labels)]
    while len(labels) > 4:
        state = _project(state, labels, 1)
        if state is None:
            break
        labels = labels[1:]
        chain.append((state, labels))
    return chain


def canonical_leaves_by_column(chain):
    """The leaves of the canonical certificate below the states of a
    descent, formed column by column as the walk forms them: each state,
    last first, loses its second label one projection at a time until four
    qubits remain, and is dropped once its leaf is formed.  None if a
    projection vanishes; ``chain`` is emptied."""
    leaves = []
    while chain:
        current, labels = chain.pop()
        while len(labels) > 4:
            current = _project(current, labels, 2)
            if current is None:
                return None
            labels = labels[:1] + labels[2:]
        leaves.append(current)
    return leaves


def all_minors_pair_proportional(u, v, tol: float = DEFAULT_TOL) -> bool:
    """Whether u and v are proportional by every cross minor: the largest,
    ``max_cross_minor`` of the two each scaled by ``unit_scale`` of its
    largest modulus, is at most tol * max|u| * max|v| of the scaled pair.
    A numerically zero vector counts as proportional to anything."""
    check_tolerance(tol)
    u, v = (_numbers(x, "vector entries")[0].reshape(-1) for x in (u, v))
    u, v = (x * unit_scale(largest_modulus(x)) for x in (u, v))
    scale = largest_modulus(u) * largest_modulus(v)
    return max_cross_minor(u, v) <= tol * scale


def all_minors_family_proportional(vectors, tol: float = DEFAULT_TOL) -> bool:
    """Whether every vector is proportional, by every cross minor, to the
    member with the largest entry in modulus (the first on ties): the rule
    of the exact leaf's kernel.  An all-zero family is proportional."""
    check_tolerance(tol)
    vs = [_numbers(v, "vector entries")[0].reshape(-1) for v in vectors]
    if len(vs) < 2:
        raise ValueError("a family needs at least two vectors")
    if any(v.size != vs[0].size for v in vs):
        raise ValueError("family vectors must all have the same length")
    maxes = [largest_modulus(v) for v in vs]
    pivot = int(np.argmax(maxes))
    if maxes[pivot] == 0.0:
        return True
    return all(
        all_minors_pair_proportional(vs[pivot], v, tol) for i, v in enumerate(vs) if i != pivot
    )
