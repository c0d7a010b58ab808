"""Seeded input generation for the benchmark workloads.

Item ``i`` of a workload is a pure function of ``(seed, workload, i)``, so
two commits measured with one seed see identical inputs however many items
each gets through in its time.  Qubit counts and the share of products in
``cli-files`` are stratified: every block of consecutive items holds each
entry of the qubit-count table (and exactly one product) once, in a seeded
order.
A run of a few hundred items therefore has almost the same mix whatever the
seed, which keeps the latency percentiles from jumping between qubit-count
classes.

Only numpy is used here; the package under test receives the finished
amplitude arrays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import reduce

import numpy as np

# Stable small integers that separate the random streams of the workloads.
WORKLOAD_IDS = {
    "dense-certify": 1,
    "product-lattice": 2,
    "wide-genuine": 3,
    "cli-files": 4,
}
WORKLOADS = tuple(WORKLOAD_IDS)

# 10, 11 and 12 twice per block: classes then fill the shares [0.4, 0.6] and
# [0.8, 1.0] of a run sorted by latency (replay doubles with each qubit), so
# p50 and p90 sit in the middle of one class rather than at its edge, where
# a few faster seconds of the machine would move them most.
DENSE_CERTIFY_N = (6, 7, 8, 9, 10, 10, 11, 11, 12, 12)
PRODUCT_LATTICE_N = (8, 9, 10)
WIDE_GENUINE_N = (18, 19, 20)
CLI_DENSE_N = (10, 11, 12, 13, 14)
CLI_PRODUCT_N = (6, 7, 8)
CLI_PRODUCT_PERIOD = 4  # one small product in every 4 files

# Tags for the independent stratified draws.
_TAG_N, _TAG_SPECIAL, _TAG_ITEM = 11, 12, 13


@dataclass(frozen=True)
class Item:
    """One generated input.

    ``kind`` is "dense" or "product".  ``fmt`` is the state file format
    for ``cli-files`` and None elsewhere.
    """

    index: int
    n: int
    kind: str
    amps: np.ndarray
    fmt: str | None = None


def _stratified(seed: int, workload: str, tag: int, index: int, period: int) -> int:
    """Position of ``index`` in a seeded permutation of its block of ``period`` items."""
    block, pos = divmod(index, period)
    perm = np.random.default_rng([seed, WORKLOAD_IDS[workload], tag, block]).permutation(period)
    return int(perm[pos])


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex-Gaussian amplitudes, filled in place so a 2^20 state holds one extra real array at most."""
    amps = np.empty(1 << n, dtype=complex)
    amps.real = rng.standard_normal(1 << n)
    amps.imag = rng.standard_normal(1 << n)
    return amps


def _place(factors: list[np.ndarray], labels: list[int]) -> np.ndarray:
    """Tensor the factors and move their qubits (in order) onto ``labels`` (1-based)."""
    arr = reduce(np.kron, factors)
    n = len(labels)
    return arr.reshape((2,) * n).transpose(np.argsort(labels)).reshape(-1)


def _two_block_product(rng: np.random.Generator, n: int) -> np.ndarray:
    labels = [int(x) for x in rng.permutation(n) + 1]
    k = int(rng.integers(2, n - 1))
    return _place([_gaussian(rng, k), _gaussian(rng, n - k)], labels)


def item(workload: str, seed: int, index: int) -> Item:
    """Item ``index`` of ``workload`` for ``seed``."""
    if workload not in WORKLOAD_IDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], _TAG_ITEM, index])

    def pick(values):
        return values[_stratified(seed, workload, _TAG_N, index, len(values))]

    def special(period):
        return _stratified(seed, workload, _TAG_SPECIAL, index, period) == 0

    if workload == "dense-certify":
        n = pick(DENSE_CERTIFY_N)
        return Item(index, n, "dense", _gaussian(rng, n))
    if workload == "product-lattice":
        n = pick(PRODUCT_LATTICE_N)
        return Item(index, n, "product", _two_block_product(rng, n))
    if workload == "wide-genuine":
        n = pick(WIDE_GENUINE_N)
        return Item(index, n, "dense", _gaussian(rng, n))
    fmt = "text" if index % 2 == 0 else "json"
    if special(CLI_PRODUCT_PERIOD):
        n = pick(CLI_PRODUCT_N)
        return Item(index, n, "product", _two_block_product(rng, n), fmt)
    n = pick(CLI_DENSE_N)
    return Item(index, n, "dense", _gaussian(rng, n), fmt)


class InputDigest:
    """SHA-256 over the first ``limit`` items (qubit count, kind, format, amplitude bytes).

    A fixed prefix rather than every item attempted, so that a faster
    commit, which gets through more items, still reports the same digest.
    """

    def __init__(self, limit: int = 16) -> None:
        self.limit = limit
        self.items = 0
        self._sha = hashlib.sha256()

    def add(self, it: Item) -> None:
        if self.items >= self.limit:
            return
        self._sha.update(f"{it.n}:{it.kind}:{it.fmt}:".encode())
        self._sha.update(np.ascontiguousarray(it.amps).tobytes())
        self.items += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def digest(workload: str, seed: int, count: int) -> str:
    """Digest of the first ``count`` items of a workload."""
    d = InputDigest(count)
    for i in range(count):
        d.add(item(workload, seed, i))
    return d.hexdigest()
