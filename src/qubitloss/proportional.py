"""Proportionality of complex coefficient vectors.

A family of vectors is proportional when some nonzero member scales onto
every other one.  Decided through 2x2 cross minors instead of division,
so zero entries need no special casing and the test is symmetric.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-9


def check_tolerance(tol: float) -> float:
    """Return ``tol`` if it is finite and nonnegative, else raise ValueError.

    A NaN threshold makes every comparison false (every family reads
    entangled) and an infinite one makes every family proportional, so
    either would fake a verdict.  Zero is allowed: exact arithmetic.
    """
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


def max_cross_minor(u, v) -> float:
    """Largest |u_i v_j - u_j v_i| over all index pairs.

    Zero exactly when one vector is a scalar multiple of the other
    (including the zero multiple).
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if u.size != v.size:
        raise ValueError(f"vector lengths differ: {u.size} vs {v.size}")
    if u.size == 0:
        raise ValueError("vectors must have at least one entry")
    # Blocks of at most 2^16 minors keep memory flat in d; each minor keeps the
    # operand order of u_i v_j - u_j v_i, so no bit depends on the block height.
    height = max(1, (1 << 16) // u.size)
    return float(reduce(np.maximum, (  # np.maximum, not max: NaN propagates
        np.abs(np.outer(u[r : r + height], v) - np.outer(u, v[r : r + height]).T).max()
        for r in range(0, u.size, height)
    )))


def pair_proportional(u, v, tol: float = DEFAULT_TOL) -> bool:
    """True when u and v are proportional within a relative tolerance.

    The threshold scales with max|u| * max|v|, so the answer is invariant
    under rescaling either vector; each is first scaled by ``unit_scale``
    of its largest modulus, so the minors neither overflow nor underflow
    at extreme scales.  A numerically zero vector counts as proportional
    to anything (scaling factor zero).
    """
    check_tolerance(tol)
    u, v = (np.asarray(x, dtype=complex).reshape(-1) for x in (u, v))
    u, v = (x * unit_scale(largest_modulus(x)) for x in (u, v))
    scale = largest_modulus(u) * largest_modulus(v)
    return max_cross_minor(u, v) <= tol * scale


def family_proportional(vectors: Sequence, tol: float = DEFAULT_TOL) -> bool:
    """True when every vector is proportional to a common nonzero pivot.

    The pivot is the member with the largest entry in modulus.  An
    all-zero family is proportional by convention.
    """
    vs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if len(vs) < 2:
        raise ValueError("a family needs at least two vectors")
    d = vs[0].size
    if any(v.size != d for v in vs):
        raise ValueError("family vectors must all have the same length")
    maxes = [largest_modulus(v) for v in vs]
    pivot = int(np.argmax(maxes))
    if maxes[pivot] == 0.0:
        return True
    return all(
        pair_proportional(vs[pivot], v, tol) for i, v in enumerate(vs) if i != pivot
    )
