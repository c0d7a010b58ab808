"""Recursive detection of genuine multipartite entanglement.

For up to four qubits the candidate-split tests are exact.  Above that,
a state with at least two genuinely entangled single-qubit-loss
projections is itself genuinely entangled, so the detector recurses on
projections until the exact regime is reached.  The criterion is
one-sided: fewer than two certified projections proves nothing, and the
verdict is then inconclusive (``wclass_3q()`` shows why: genuinely
entangled, all projections product).

The source paper's first theorem bounds the search: every projection of
a product is a product, except a lone qubit's factor times a genuine
rest, so a state that is a product across some cut has at most one
certified projection.  A child that is not certified may carry such a
cut (its exact leaf's witness, or one it verified itself); the walker
tries it on the parent, with the lost qubit on either side, and a parent
that passes is inconclusive at once, without visiting its other children.

Successful detections carry a replayable certificate DAG.  One walker
serves ``detect``, ``entanglement_measure``, ``detect_with_trace`` and
``sufficient_3q``; it is memoized on the subset of surviving qubit
labels, which is sound because projections for different qubits commute.
The walker does no amplitude arithmetic: ``states.lose_qubit`` projects,
and ``base`` decides every product test, the leaf and the cut alike.

A state whose every node certifies with its first two children gets the
canonical certificate (``_canonical``): each inner node loses its first
two labels, so its n - 3 leaves are known before any is decided.
``detect`` and ``replay_certificate`` form those leaves along the walk's
own projections (``_descent``, ``_canonical_leaves``) and decide them in
one call of the leaf kernel; anything else takes the walk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .base import (
    CANDIDATE_SPLITS, FactorizationWitness, _product_across, _proportional_masks, detect_base,
)
from .states import (
    DEFAULT_TOL, Bipartition, ProjectionOverflow, StateVector, check_tolerance, lose_qubit,
)


class VerdictKind(str, enum.Enum):
    GENUINE = "genuine"
    NOT_GENUINE = "not-genuine"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Certificate:
    """Proof behind a genuine verdict, a DAG whose parents may share children.

    A leaf ("exact") records that the exact small-system test fired on
    the remaining qubits.  An inner node ("two-projections") names the
    two lost qubits whose projections were certified; ``children`` holds
    their certificates in the same order.
    """

    qubits: Tuple[int, ...]
    rule: str
    lost: Optional[Tuple[int, int]] = None
    children: Tuple["Certificate", ...] = ()


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    witness: Optional[FactorizationWitness] = None
    certificate: Optional[Certificate] = None


_EXACT_MAX = max(CANDIDATE_SPLITS)

# The verdict of a child whose projection vanished (a product).
_VANISHED = Verdict(kind=VerdictKind.NOT_GENUINE)

# A product cut of a subset's state, as the labels of one side.
_Cut = Tuple[int, ...]

# The walker's memo: for each subset of surviving qubit labels, an entry of
# its verdict and a product cut of its state, if one is known.
_Entry = Tuple[Verdict, Optional[_Cut]]
_Cache = Dict[Tuple[int, ...], _Entry]

# States with the labels of their qubits, as ``detect``'s first descent forms them.
_Chain = List[Tuple[StateVector, Tuple[int, ...]]]

_ROW_ENTRY = {
    VerdictKind.GENUINE: "entangled",
    VerdictKind.NOT_GENUINE: "product",
    VerdictKind.INCONCLUSIVE: "inconclusive",
}


@dataclass(frozen=True)
class SweepReport:
    """The verdicts on a state's single-qubit-loss projections, in qubit
    order (``_VANISHED`` where one vanished), and the state's own verdict,
    the one ``detect`` returns, from the same walk; the repr shows
    ``per_qubit`` only.  ``genuine_count`` is exact in the exact regime
    (n - 1 <= 4) and otherwise a certified lower bound; ``table`` spells
    each verdict "entangled", "product", "zero" or "inconclusive".
    """

    per_qubit: Tuple[Verdict, ...]
    verdict: Verdict = field(repr=False)

    @property
    def per_projection_entangled(self) -> Tuple[bool, ...]:
        return tuple(v.kind is VerdictKind.GENUINE for v in self.per_qubit)

    @property
    def genuine_count(self) -> int:
        return sum(self.per_projection_entangled)

    @property
    def count_is_exact(self) -> bool:
        return len(self.per_qubit) - 1 <= _EXACT_MAX

    @property
    def is_mes(self) -> bool:
        return self.genuine_count == len(self.per_qubit)

    @property
    def certified(self) -> bool:
        return self.genuine_count >= 2

    @property
    def table(self) -> Tuple[str, ...]:
        return tuple("zero" if v is _VANISHED else _ROW_ENTRY[v.kind] for v in self.per_qubit)


# The report's names as the measure, the trace and the 3-qubit shortcut.
MeasureReport = TraceReport = SufficientCheck = SweepReport


def _leaf(state: StateVector, labels: Tuple[int, ...], tol: float) -> _Entry:
    """The exact test on 2..4 qubits as the walker's memo entry: the verdict,
    with its witness in ``labels``, and the witness's first block as the
    product cut.  A lone qubit is a product with no witness."""
    if len(labels) < 2:
        return Verdict(kind=VerdictKind.NOT_GENUINE), None
    base = detect_base(state, tol)
    if base.genuinely_entangled:
        return Verdict(VerdictKind.GENUINE, certificate=Certificate(labels, "exact")), None
    part = base.witness.partition
    cut, rest = (tuple(labels[q - 1] for q in block) for block in (part.block_a, part.block_b))
    witness = FactorizationWitness(Bipartition(cut, rest), base.witness.family)
    return Verdict(VerdictKind.NOT_GENUINE, witness=witness), cut


def _project(state: StateVector, labels: Tuple[int, ...], pos: int) -> Optional[StateVector]:
    """``lose_qubit(state, pos)``'s state, or None where the zero rule says
    it vanished; an overflow names the lost qubit and the qubits it is lost
    from by their labels."""
    try:
        proj = lose_qubit(state, pos)
    except ProjectionOverflow:
        raise ProjectionOverflow(labels[pos - 1], labels) from None
    return None if proj.is_zero else proj.state


def _child(
    state: StateVector, labels: Tuple[int, ...], pos: int, tol: float, cache: _Cache
) -> _Entry:
    """Verdict on ``state`` with its ``pos``-th qubit lost, and a product cut
    of that projection if one is known, memoized in ``cache`` by the
    surviving labels; ``_VANISHED`` if the projection vanishes."""
    child_labels = labels[: pos - 1] + labels[pos:]
    if child_labels not in cache:
        proj = _project(state, labels, pos)
        if proj is None:
            cache[child_labels] = _VANISHED, None
        else:
            _walk(proj, child_labels, tol, cache)
    return cache[child_labels]


def _verified_cut(
    state: StateVector, labels: Tuple[int, ...], lost: int, cut: _Cut, tol: float
) -> Optional[_Cut]:
    """A child's ``cut``, with its ``lost`` qubit joined to one side and then
    to the other: the first across which ``state`` is a product, if any."""
    for side in (tuple(sorted(cut + (lost,))), cut):
        block = tuple(pos for pos, q in enumerate(labels, start=1) if q in side)
        if _product_across(state, block, tol):
            return side
    return None


def _walk(state: StateVector, labels: Tuple[int, ...], tol: float, cache: _Cache) -> Verdict:
    """Verdict on ``state``, whose qubits carry ``labels``, stored in
    ``cache`` by those labels with a product cut of ``state`` when one is
    known.  Up to four qubits that is the exact leaf and its witness's cut.
    Above, the children (one qubit lost each) are visited in label order
    until two certify, and the certificate cites those two; but when a
    child that is not certified carries a cut that ``state`` verifies
    (``_verified_cut``), the walk stops there, inconclusive, and records
    that cut."""
    if len(labels) <= _EXACT_MAX:
        verdict, cut = _leaf(state, labels, tol)
    else:
        cut = None
        certified: List[Tuple[int, Certificate]] = []
        for pos, lost in enumerate(labels, start=1):
            child, child_cut = _child(state, labels, pos, tol, cache)
            if child.kind is VerdictKind.GENUINE:
                certified.append((lost, child.certificate))
                if len(certified) == 2:
                    break
            elif child_cut is not None:
                cut = _verified_cut(state, labels, lost, child_cut, tol)
                if cut is not None:
                    break
        verdict = Verdict(kind=VerdictKind.INCONCLUSIVE)
        if len(certified) == 2:
            lost, children = zip(*certified)
            verdict = Verdict(
                kind=VerdictKind.GENUINE,
                certificate=Certificate(labels, "two-projections", lost, children),
            )
    cache[labels] = verdict, cut
    return verdict


def _sweep(state: StateVector, tol: float) -> SweepReport:
    """The verdicts on all the state's single-qubit-loss projections and
    its own verdict, all from one cache, so the state's walk re-projects
    none of its children."""
    labels = tuple(range(1, state.num_qubits + 1))
    cache: _Cache = {}
    row = tuple(_child(state, labels, pos, tol, cache)[0] for pos in range(1, len(labels) + 1))
    return SweepReport(per_qubit=row, verdict=_walk(state, labels, tol, cache))


def _check_input(state: StateVector, min_qubits: int, what: str, tol: float) -> None:
    if state.num_qubits < min_qubits:
        raise ValueError(f"{what} needs at least {min_qubits} qubits")
    if state.is_zero():
        raise ValueError("cannot classify the zero state")
    check_tolerance(tol)


@lru_cache(maxsize=None)
def _canonical(num_qubits: int) -> Certificate:
    """The certificate ``_walk`` gives a state on ``num_qubits`` > 4 qubits
    whose every node certifies with its first two children: each inner node
    loses its first two labels, and the nodes on one subset are one object,
    shared by every verdict that cites it."""
    nodes: Dict[Tuple[int, ...], Certificate] = {}

    def node(labels: Tuple[int, ...]) -> Certificate:
        if labels not in nodes:
            nodes[labels] = Certificate(labels, "exact") if len(labels) <= _EXACT_MAX else (
                Certificate(labels, "two-projections", labels[:2],
                            (node(labels[1:]), node(labels[:1] + labels[2:]))))
        return nodes[labels]

    return node(tuple(range(1, num_qubits + 1)))


def _descent(state: StateVector, labels: Tuple[int, ...]) -> _Chain:
    """The walk's first descent as (state, labels) pairs: ``state`` on
    ``labels``, then each state with its first label lost, down to four
    qubits, stopping before a projection that vanishes."""
    chain = [(state, labels)]
    while len(labels) > _EXACT_MAX:
        state = _project(state, labels, 1)
        if state is None:
            break
        labels = labels[1:]
        chain.append((state, labels))
    return chain


def _canonical_leaves(chain: _Chain) -> Optional[List[StateVector]]:
    """The leaves of ``_canonical`` below the states of a ``_descent``,
    emptying ``chain``: each state with its second label lost until four
    qubits remain.  They are formed in the walk's order, last state first,
    by the walk's projections, and each state is dropped once its leaf is
    formed; None if a projection vanishes."""
    leaves = []
    while chain:
        current, labels = chain.pop()
        while len(labels) > _EXACT_MAX:
            current = _project(current, labels, 2)
            if current is None:
                return None
            labels = labels[:1] + labels[2:]
        leaves.append(current)
    return leaves


def detect(state: StateVector, tol: float = DEFAULT_TOL) -> Verdict:
    """Decide genuine entanglement of a pure nonzero state.

    Exact for 2..4 qubits (verdict genuine or not-genuine with a
    factorization witness).  For five or more, genuine verdicts carry a
    certificate and the only other outcome is inconclusive.

    The walk's first descent runs as a loop, and ``_walk`` then takes the
    descent's states bottom-up, each finding its first child cached.  When
    the 5-qubit state certifies by its first two children, the rest of the
    canonical leaves are decided in one batch instead, and if none is a
    product the verdict cites the shared ``_canonical`` certificate; if one
    is, or a projection on the way vanishes or overflows, ``_walk`` decides
    the state with the same cache.
    """
    _check_input(state, 2, "detection", tol)
    root = tuple(range(1, state.num_qubits + 1))
    cache: _Cache = {}
    chain = _descent(state, root)
    last = chain[-1][1]
    if len(last) > _EXACT_MAX:  # the descent's next projection vanished
        cache[last[1:]] = _VANISHED, None
    while chain:
        current, labels = chain.pop()
        verdict = _walk(current, labels, tol, cache)
        cert = verdict.certificate
        if len(labels) == _EXACT_MAX + 1 and cert is not None and cert.lost == labels[:2]:
            try:
                leaves = _canonical_leaves(chain)
            except ProjectionOverflow:
                leaves = None
            if leaves is not None and _all_genuine([leaves], tol):
                return Verdict(VerdictKind.GENUINE, certificate=_canonical(state.num_qubits))
            return _walk(state, root, tol, cache)
    return verdict


def entanglement_measure(state: StateVector, tol: float = DEFAULT_TOL) -> SweepReport:
    """Count how many single-qubit-loss projections are certified genuine.

    All n projections are examined, each decided as ``detect`` would
    decide it.  One walk with one subset cache yields both the counts and
    the state's own verdict.
    """
    _check_input(state, 3, "the measure", tol)
    return _sweep(state, tol)


def detect_with_trace(state: StateVector, tol: float = DEFAULT_TOL) -> SweepReport:
    """Verdict plus a per-lost-qubit classification row (``table``)."""
    _check_input(state, 2, "detection", tol)
    return _sweep(state, tol)


def sufficient_3q(state: StateVector, tol: float = DEFAULT_TOL) -> SweepReport:
    """Certify a three-qubit state genuine from two entangled projections,
    each classified by the walker's root sweep (a vanished one is a
    product).  Sufficient, not necessary: ``wclass_3q()`` certifies nothing."""
    if state.num_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {state.num_qubits} qubits")
    check_tolerance(tol)
    return _sweep(state, tol)


def _preorder(certificate: Certificate) -> Iterator[Tuple[Certificate, int, bool]]:
    """The ``(node, depth, repeat)`` steps of a pre-order walk that enters
    each distinct node (by identity) once: a step that meets a node again
    is a ``repeat`` and does not descend."""
    entered, stack = set(), [(certificate, 0)]
    while stack:
        node, depth = stack.pop()
        repeat = id(node) in entered
        yield node, depth, repeat
        if not repeat:
            entered.add(id(node))
            stack.extend((child, depth + 1) for child in reversed(node.children))


def _all_genuine(groups: Iterable[List[StateVector]], tol: float) -> bool:
    """Whether the exact test finds no proportional split in any of the
    states, in groups of one qubit count each, with one call of it per
    group that is not empty."""
    return not any(_proportional_masks(group, tol).any() for group in groups if group)


def replay_certificate(
    state: StateVector, certificate: Optional[Certificate], tol: float = DEFAULT_TOL
) -> bool:
    """Re-derive a certificate from scratch against the given state.

    Checks each distinct node once, projecting the state onto each subset
    it names once, with nothing taken from ``detect``.  The leaves' states
    are collected on the way and then decided by the exact test, one call
    for all the leaves of each size.  True iff every step checks out, so
    False for the None of an inconclusive verdict.  An inner node's
    projected state is dropped when the node is entered.  The shared
    ``_canonical`` certificate, known by identity, has its leaves formed
    as ``detect`` forms them; if a projection on the way vanishes or
    overflows, the node-by-node check below decides.
    """
    check_tolerance(tol)
    root = tuple(range(1, state.num_qubits + 1))
    if certificate is None or certificate.qubits != root:
        return False
    if len(root) > _EXACT_MAX and certificate is _canonical(len(root)):
        try:
            chain = _descent(state, root)
            batch = _canonical_leaves(chain) if len(chain[-1][1]) == _EXACT_MAX else None
        except ProjectionOverflow:
            batch = None
        if batch is not None:
            return _all_genuine([batch], tol)
    states, entered = {root: state}, set()
    leaves: Dict[int, List[StateVector]] = {}
    try:
        for node, _, repeat in _preorder(certificate):
            labels = node.qubits
            if repeat:
                continue
            entered.add(id(node))
            current = states.pop(labels)
            if node.rule == "exact":
                if node.children or not 2 <= len(labels) <= _EXACT_MAX:
                    return False
                leaves.setdefault(len(labels), []).append(current)
                continue
            lost_pair = set(node.lost or ())
            if node.rule != "two-projections" or len(lost_pair) != 2 or len(node.children) != 2:
                return False
            for lost, child in zip(node.lost, node.children):
                if lost not in labels:
                    return False
                pos = labels.index(lost)
                if child.qubits != labels[:pos] + labels[pos + 1:]:
                    return False
                if id(child) not in entered and child.qubits not in states:
                    proj = _project(current, labels, pos + 1)
                    if proj is None:
                        return False
                    states[child.qubits] = proj
    except ProjectionOverflow:
        # A leaf met before the overflow that fails the test decides first.
        if _all_genuine(leaves.values(), tol):
            raise
        return False
    return _all_genuine(leaves.values(), tol)


def format_certificate(certificate: Optional[Certificate], indent: int = 0) -> str:
    """Human-readable indented rendering of a certificate: each node under
    its first parent, and a back-reference line under any other parent;
    "" for the None of an inconclusive verdict."""
    if certificate is None:
        return ""
    lines = []
    for node, depth, repeat in _preorder(certificate):
        qubits = "{" + ",".join(map(str, node.qubits)) + "}"
        if repeat:
            what = "see above"
        elif node.rule == "exact":
            what = f"exact {len(node.qubits)}-qubit test"
        else:
            what = "certified by projections losing qubit {} and qubit {}".format(*node.lost)
        lines.append(f"{'  ' * (indent + depth)}{qubits}  {what}")
    return "\n".join(lines)


def _certificate_json(cert: Certificate | None):
    if cert is None:
        return None
    nodes = [node for node, _, repeat in _preorder(cert) if not repeat]
    index = {id(node): i for i, node in enumerate(nodes)}
    return {
        "format": "dag",
        "nodes": [
            {
                "qubits": list(node.qubits),
                "rule": node.rule,
                "lost": list(node.lost) if node.lost else None,
                "children": [index[id(child)] for child in node.children],
            }
            for node in nodes
        ],
    }
