import json
import re
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitloss import (
    Certificate,
    MeasureReport,
    StateVector,
    SufficientCheck,
    SweepReport,
    TraceReport,
    VerdictKind,
    all_factorizations,
    all_projections,
    basis_state,
    detect,
    detect_base,
    detect_with_trace,
    dicke,
    entanglement_measure,
    equal_up_to_scale,
    example3_4q,
    format_certificate,
    family_proportional,
    find_product_cut,
    ghz,
    oracle_genuine,
    pair_proportional,
    phi4,
    product_state,
    random_state,
    replay_certificate,
    sufficient_3q,
    unfold,
    w_state,
    wclass_3q,
)
from qubitloss.cli import main
from qubitloss.detect import (
    _canonical, _canonical_leaves, _certificate_json, _descent, _preorder, _walk,
)
from qubitloss.oracle import numerical_rank
from qubitloss.states import ProjectionOverflow, largest_modulus, lose_qubit_set
from helpers import (
    canonical_leaves_by_column,
    hadamard_ghz,
    random_bipartition_blocks,
    random_blocks,
    random_partition_blocks,
    random_product,
    reference_detect,
    with_overflowing_moduli,
)


class TestBaseRegime:
    def test_four_qubit_literal_state(self):
        verdict = detect(example3_4q())
        assert verdict.kind is VerdictKind.GENUINE
        assert verdict.certificate.rule == "exact"
        assert verdict.certificate.qubits == (1, 2, 3, 4)

    def test_product_has_witness(self):
        s = product_state([((1,), basis_state("0")), ((2, 3), ghz(2))])
        verdict = detect(s)
        assert verdict.kind is VerdictKind.NOT_GENUINE
        assert verdict.witness.partition.block_a == (1,)
        assert verdict.certificate is None

    def test_matches_oracle_for_small_systems(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 5))
            if rng.random() < 0.5:
                s = random_state(rng, n)
            else:
                s = random_product(rng, random_bipartition_blocks(rng, n))
            verdict = detect(s)
            assert (verdict.kind is VerdictKind.GENUINE) == oracle_genuine(s)
            assert verdict.kind is not VerdictKind.INCONCLUSIVE


class TestRecursion:
    def test_ghz_certified_at_any_size(self):
        for n in (5, 6, 7, 8):
            verdict = detect(ghz(n))
            assert verdict.kind is VerdictKind.GENUINE
            assert verdict.certificate.rule == "two-projections"

    def test_w_certified(self):
        assert detect(w_state(6)).kind is VerdictKind.GENUINE

    def test_products_never_certified(self, rng):
        for _ in range(200):
            n = int(rng.integers(3, 8))
            s = random_product(rng, random_partition_blocks(rng, n))
            assert detect(s).kind is not VerdictKind.GENUINE

    def test_not_genuine_reserved_for_exact_regime(self, rng):
        # Above four qubits the detector can certify or abstain, never refute.
        for _ in range(50):
            n = int(rng.integers(5, 8))
            s = random_product(rng, random_bipartition_blocks(rng, n))
            assert detect(s).kind is VerdictKind.INCONCLUSIVE

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            detect(StateVector(3, np.zeros(8)))

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError):
            detect(basis_state("0"))

    def test_memoization_transparent(self, rng):
        # The subset cache changes the work, never the verdict, witness or
        # certificate: compare with a recursion that recomputes everything.
        for _ in range(30):
            n = int(rng.integers(4, 7))
            if rng.random() < 0.5:
                s = random_state(rng, n)
            else:
                s = random_product(rng, random_partition_blocks(rng, n))
            assert detect(s) == reference_detect(s)


def _minus_ghz(n):
    """|-> on qubit 1 times GHZ(n-1): losing qubit 1 vanishes."""
    return product_state([((1,), StateVector(1, [1, -1])), (tuple(range(2, n + 1)), ghz(n - 1))])


def _product_first_child(n):
    """|0> GHZ(n-1) + |1> (p - GHZ(n-1)) for a product p: genuine, though
    losing qubit 1 leaves p, whose cut the root must try and reject."""
    rng = np.random.default_rng(n)
    g = ghz(n - 1).amplitudes
    p = random_product(rng, random_blocks(rng, n - 1, 2)).amplitudes
    return StateVector(n, np.concatenate([g, p - g]))


def _seeded_product(n, count):
    rng = np.random.default_rng([n, count])
    return random_product(rng, random_blocks(rng, n, count))


_EQUIVALENCE_CASES = (
    [(f"dense{n}", lambda n=n: random_state(np.random.default_rng(n), n)) for n in range(5, 10)]
    + [(f"product{n}x{k}", lambda n=n, k=k: _seeded_product(n, k))
       for n in range(5, 10) for k in (2, 3)]
    # The prune-free walk of a product takes most paths through the lattice,
    # 5 s for this one, so n = 10 has one case.
    + [("product10x2", lambda: _seeded_product(10, 2))]
    + [(f"{f.__name__}{n}", lambda f=f, n=n: f(n))
       for f in (_minus_ghz, _product_first_child, ghz, w_state, lambda n: dicke(n, 2))
       for n in range(5, 9)]
)


class TestPruneEquivalence:
    """A verified product cut stops a walk early, but on these inputs the
    verdict, witness and certificate are those of the memo-free, prune-free
    reference recursion, for ``detect`` and the measure alike."""

    @pytest.mark.parametrize(
        "build", [b for _, b in _EQUIVALENCE_CASES], ids=[i for i, _ in _EQUIVALENCE_CASES]
    )
    def test_matches_reference(self, build):
        s = build()
        expected = reference_detect(s)
        assert detect(s) == expected
        assert entanglement_measure(s).verdict == expected


class TestCutTest:
    """``_product_across``, one pass against the largest entry, gives the
    oracle's rank-1 answer on clear cases, at any scale."""

    def test_agrees_with_the_rank(self, rng):
        product_across = sys.modules["qubitloss.detect"]._product_across
        for _ in range(300):
            n = int(rng.integers(2, 9))
            if rng.random() < 0.5:
                s = random_state(rng, n)
            else:
                s = random_product(rng, random_partition_blocks(rng, n))
            scaled = StateVector(n, s.amplitudes * 10.0 ** float(rng.choice([-300, 0, 300])))
            block, _ = random_bipartition_blocks(rng, n)
            expected = numerical_rank(unfold(s, block)) == 1
            assert product_across(scaled, block, 1e-9) is expected

    def test_exact_products_pass_at_tol_zero(self):
        product_across = sys.modules["qubitloss.detect"]._product_across
        assert product_across(basis_state("01101"), (2, 4), 0.0)
        assert product_across(product_state([((1, 3), ghz(2)), ((2,), basis_state("1"))]), (2,), 0.0)
        assert not product_across(ghz(5), (1, 2), 0.0)


def _near_products():
    """Products plus eps-scaled complex noise, and near-cancelling products
    c (x) c' (x) r with c = (1, -(1 + delta)), on permuted labels, n = 5..8."""
    @st.composite
    def noisy(draw):
        n, seed = draw(st.integers(5, 8)), draw(st.integers(0, 2**32 - 1))
        eps = 10.0 ** draw(st.floats(-14, -6))
        rng = np.random.default_rng(seed)
        amps = random_product(rng, random_blocks(rng, n, draw(st.integers(2, 3)))).amplitudes
        noise = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        return StateVector(n, amps + eps * np.abs(amps).max() * noise)

    @st.composite
    def cancelling(draw):
        n, seed = draw(st.integers(5, 8)), draw(st.integers(0, 2**32 - 1))
        deltas = [10.0 ** draw(st.floats(-14, -4)) for _ in range(2)]
        rng = np.random.default_rng(seed)
        labels = [int(q) for q in rng.permutation(n) + 1]
        return product_state(
            [((q,), StateVector(1, [1, -(1 + d)])) for q, d in zip(labels, deltas)]
            + [(tuple(sorted(labels[2:])), random_state(rng, n - 2))]
        )

    return st.one_of(noisy(), cancelling())


@settings(max_examples=150, deadline=None)
@given(_near_products())
def test_near_products_certified_only_if_the_reference_certifies(s):
    if detect(s).kind is VerdictKind.GENUINE:
        assert reference_detect(s).kind is VerdictKind.GENUINE


def _with_first_leaf(cert, **changes):
    """``cert`` with its first leaf, two levels down, replaced by a changed copy."""
    first = cert.children[0]
    leaf = replace(first.children[0], **changes)
    first = replace(first, children=(leaf,) + first.children[1:])
    return replace(cert, children=(first,) + cert.children[1:])


class TestCertificates:
    def test_replay_recomputes_successfully(self):
        for s in (ghz(6), w_state(5), example3_4q(), ghz(8)):
            verdict = detect(s)
            assert replay_certificate(s, verdict.certificate)

    def test_replay_fails_against_product_state(self, rng):
        cert = detect(ghz(6)).certificate
        blocks = random_partition_blocks(rng, 6)
        assert not replay_certificate(random_product(rng, blocks), cert)

    def test_replay_fails_on_mislabeled_tree(self):
        cert = detect(ghz(5)).certificate
        assert not replay_certificate(ghz(6), cert)

    def test_replay_fails_on_zero_projection(self):
        # Losing qubit 1 of |->|GHZ(5)> gives the zero vector.
        minus = StateVector(1, [1, -1])
        s = product_state([((1,), minus), ((2, 3, 4, 5, 6), ghz(5))])
        cert = detect(ghz(6)).certificate
        assert cert.lost[0] == 1
        assert not replay_certificate(s, cert)

    @pytest.mark.parametrize("forge", [
        lambda c: replace(c, lost=(1, 9)),
        lambda c: replace(c, children=c.children[::-1]),
        lambda c: replace(c, lost=(1, 1), children=(c.children[0],) * 2),
        lambda c: replace(c, lost=(1, 2, 3)),
        lambda c: replace(c, children=c.children[:1]),
        lambda c: replace(c, rule="oracle"),
        lambda c: replace(
            c, children=(Certificate(c.children[0].qubits, "exact"), c.children[1])
        ),
        lambda c: replace(c, rule="exact"),
        lambda c: _with_first_leaf(c, children=(Certificate((7,), "oracle"),)),
        lambda c: "x",
        lambda c: replace(c, children=(None, None)),
        lambda c: replace(c, children=tuple(child.qubits for child in c.children)),
    ], ids=[
        "lost-not-in-node", "child-not-parent-minus-lost", "equal-lost",
        "three-lost", "one-child", "unknown-rule", "exact-on-5-qubits",
        "exact-on-6-qubits", "exact-with-children", "root-not-a-certificate",
        "children-none", "children-label-tuples",
    ])
    def test_forged_certificate_rejected(self, forge):
        s = ghz(6)
        cert = detect(s).certificate
        assert replay_certificate(s, cert)
        assert not replay_certificate(s, forge(cert))

    def test_exact_leaf_on_product_subset_rejected(self):
        # Losing qubit 1 of Bell x GHZ(3) leaves |+> x GHZ(3), a product.
        s = product_state([((1, 2), ghz(2)), ((3, 4, 5), ghz(3))])
        forged = Certificate((1, 2, 3, 4, 5), "two-projections", (1, 2), (
            Certificate((2, 3, 4, 5), "exact"), Certificate((1, 3, 4, 5), "exact"),
        ))
        assert not replay_certificate(s, forged)
        cert = detect(ghz(5)).certificate
        assert cert == forged and replay_certificate(ghz(5), cert)

    def test_shared_subset_checked_through_every_node(self):
        # {3,4,5,6} is shared: the root's first child reaches it through the
        # valid node, the second through a forged copy of it.
        s = ghz(6)
        cert = detect(s).certificate
        first, second = cert.children
        shared = first.children[0]
        assert second.children[0] is shared and shared.qubits == (3, 4, 5, 6)
        copy = replace(shared, rule="oracle")
        forged = replace(cert, children=(first, replace(second, children=(
            copy, second.children[1],
        ))))
        assert not replay_certificate(s, forged)

    def test_overflow_names_the_lost_label_and_the_subset(self):
        # Losing qubit 1 of DICKE(6,2) adds no two nonzero amplitudes; losing
        # qubit 2 next does.  Replay stops there, before it reaches the
        # root's second child, a 5-qubit "exact" leaf it would reject.
        state = with_overflowing_moduli(dicke(6, 2))
        inner = Certificate((2, 3, 4, 5, 6), "two-projections", (2, 3), (
            Certificate((3, 4, 5, 6), "exact"), Certificate((2, 4, 5, 6), "exact"),
        ))
        cert = Certificate((1, 2, 3, 4, 5, 6), "two-projections", (1, 2), (
            inner, Certificate((1, 3, 4, 5, 6), "exact"),
        ))
        overflow = re.escape(
            "losing qubit 2 from {2,3,4,5,6} gives amplitudes that are not finite"
        )
        with pytest.raises(ValueError, match=overflow):
            detect(state)
        with pytest.raises(ValueError, match=overflow):
            replay_certificate(state, cert)

    def test_children_drop_one_label_each(self):
        cert = detect(ghz(7)).certificate
        stack = [cert]
        while stack:
            node = stack.pop()
            if node.rule == "exact":
                assert 2 <= len(node.qubits) <= 4
                continue
            assert len(node.children) == 2
            l1, l2 = node.lost
            assert l1 != l2
            for lost, child in zip(node.lost, node.children):
                assert set(child.qubits) == set(node.qubits) - {lost}
                stack.append(child)

    def test_json_children_point_back_to_shared_nodes(self):
        # Shared nodes are written once, so a child's index can be below its
        # parent's; a child always has one qubit fewer, which rules out cycles.
        nodes = _certificate_json(detect(ghz(7)).certificate)["nodes"]
        edges = [(i, c) for i, node in enumerate(nodes) for c in node["children"]]
        assert any(c < i for i, c in edges)
        for i, c in edges:
            parent, child = set(nodes[i]["qubits"]), set(nodes[c]["qubits"])
            assert child < parent and len(parent - child) == 1

    def test_an_inconclusive_verdict_has_nothing_to_read(self):
        state = product_state([((1, 2), ghz(2)), ((3, 4, 5), ghz(3))])
        verdict = detect(state)
        assert verdict.kind is VerdictKind.INCONCLUSIVE and verdict.certificate is None
        assert replay_certificate(state, verdict.certificate) is False
        assert format_certificate(verdict.certificate) == ""


def _forge(labels, spec):
    """A certificate on ``labels``: ``spec`` is None for an exact leaf, or
    ``(lost, (first, second))`` with the specs of the two children."""
    if spec is None:
        return Certificate(labels, "exact")
    lost, children = spec
    return Certificate(labels, "two-projections", lost, tuple(
        _forge(tuple(q for q in labels if q != qubit), child)
        for qubit, child in zip(lost, children)
    ))


def _leaves(cert):
    steps = _preorder(cert)
    return [node.qubits for node, _, repeat in steps if node.rule == "exact" and not repeat]


_LEAVES = (None, None)


class TestBatchedReplay:
    """Replay decides all the leaves of each size in one call, after its
    walk; the answers are those of deciding each leaf as it is entered.
    On a dense state every forged certificate below replays; on a dense
    5-qubit state times a qubit 6, each leaf that keeps qubit 6 is a
    product and fails."""

    SIX = tuple(range(1, 7))

    @pytest.fixture
    def states(self, rng):
        dense = random_state(rng, 6)
        with_lone_six = product_state(
            [(range(1, 6), random_state(rng, 5)), ((6,), random_state(rng, 1))]
        )
        return dense, with_lone_six

    @pytest.mark.parametrize("spec, failing", [
        (((1, 6), (((2, 6), _LEAVES), ((1, 2), _LEAVES))), [0]),
        (((6, 1), (((1, 2), _LEAVES), ((2, 6), _LEAVES))), [2]),
        (((6, 1), (((1, 2), _LEAVES), ((6, 2), _LEAVES))), [3]),
        (((6, 1), (((1, 2), _LEAVES), ((6, 2), (((2, 3), _LEAVES), None)))), [4]),
        (((6, 1), (((1, 2), _LEAVES), ((6, 2), (None, ((3, 4), _LEAVES))))), [3, 4]),
    ], ids=["first", "middle", "last", "mixed-sizes-4-fails", "mixed-sizes-3-fails"])
    def test_one_failing_leaf_fails_the_batch(self, states, spec, failing):
        cert = _forge(self.SIX, spec)
        assert [k for k, leaf in enumerate(_leaves(cert)) if 6 in leaf] == failing
        dense, with_lone_six = states
        assert replay_certificate(dense, cert)
        assert not replay_certificate(with_lone_six, cert)

    def test_a_vanishing_leaf_fails(self, rng):
        # Losing qubits 5 and 6 of |ψ> (|00> + |01> + |10> - 3|11>) leaves
        # zero; losing either alone does not.
        pair = StateVector(2, [1, 1, 1, -3])
        s = product_state([(range(1, 5), random_state(rng, 4)), ((5, 6), pair)])
        cert = _forge(self.SIX, ((6, 1), (((5, 1), _LEAVES), ((6, 2), _LEAVES))))
        assert (1, 2, 3, 4) in _leaves(cert)
        assert not replay_certificate(s, cert)

    # Both states are 5 qubits times a qubit 6 in (m, -m/2).  The root's first
    # child (qubit 6 lost) and its leaves stay finite; its second child's first
    # projection adds amplitudes near m of one sign and overflows.
    CERT_SPEC = ((6, 1), (((1, 2), _LEAVES), ((2, 6), _LEAVES)))

    def _huge(self, five):
        amps = five / np.abs(five).max()
        return StateVector(6, np.kron(amps, [0.8e308, -0.4e308]))

    def test_a_failing_leaf_before_an_overflow_fails(self, rng):
        # Qubit 5 in |+> makes every leaf below the first child a product.
        five = np.kron(1 + 0.25 * random_state(rng, 4).amplitudes, [1, 1])
        cert = _forge(self.SIX, self.CERT_SPEC)
        reversed_root = _forge(self.SIX, ((1, 6), self.CERT_SPEC[1][::-1]))
        assert not replay_certificate(self._huge(five), cert)
        with pytest.raises(ProjectionOverflow):
            replay_certificate(self._huge(five), reversed_root)

    def test_passing_leaves_before_an_overflow_raise(self, rng):
        five = 1 + 0.25 * random_state(rng, 5).amplitudes
        cert = _forge(self.SIX, self.CERT_SPEC)
        with pytest.raises(ProjectionOverflow):
            replay_certificate(self._huge(five), cert)
        for leaf in ((2, 3, 4, 5), (1, 3, 4, 5)):
            leaf_state = lose_qubit_set(StateVector(5, five), set(range(1, 6)) - set(leaf))
            assert detect_base(leaf_state).genuinely_entangled


def _walked(state, tol=1e-9):
    """``_walk``'s verdict on the whole state, with no canonical pass."""
    return _walk(state, tuple(range(1, state.num_qubits + 1)), tol, {})


def _rebuilt(cert, nodes=None):
    """An equal copy of ``cert``, made node by node and shared as it shares."""
    nodes = {} if nodes is None else nodes
    if cert.qubits not in nodes:
        nodes[cert.qubits] = replace(cert, children=tuple(_rebuilt(c, nodes) for c in cert.children))
    return nodes[cert.qubits]


def _lone_first(rng, n):
    """A lone qubit 1 times a dense rest: every leaf of the batch keeps qubit 1."""
    return product_state([((1,), random_state(rng, 1)), (range(2, n + 1), random_state(rng, n - 1))])


def _minus_on(q, rng, n):
    """|-> on qubit ``q`` times a dense rest: every loss of ``q`` vanishes."""
    rest = tuple(k for k in range(1, n + 1) if k != q)
    return product_state([((q,), StateVector(1, [1, -1])), (rest, random_state(rng, n - 1))])


def _tail_block(rng, n):
    """A product whose second block holds labels n-4..n and qubit 2 too:
    the 5-qubit state certifies, each leaf of the batch is a product."""
    tail = sorted({2, *range(n - 4, n + 1)})
    return random_product(rng, [[k for k in range(1, n + 1) if k not in tail], tail])


def _pair_sums_to_noise(rng, n):
    """A dense state whose sum over qubits n-4 and n-3 is 1e-14 noise.  A
    branch of the batch loses both and vanishes; the 5-qubit state's leaves
    lose one each and are |-> on the other up to that noise, which only
    tol 0 calls genuine, as it must for the 5-qubit state to certify."""
    shape = (1 << (n - 5), 2, 2, 8)
    amps = _complex_gaussian(rng, shape)
    amps[:, 1, 1] = -(amps[:, 0, 0] + amps[:, 0, 1] + amps[:, 1, 0])
    return StateVector(n, amps.reshape(-1) + 1e-14 * _complex_gaussian(rng, 1 << n))


def _overflow_in_batch(rng, n):
    """Amplitudes near 1.2e308 on the basis states that are |0> on every
    qubit but n-4 and n-3, in the pattern [[0.9, 0.1], [0.1, 0.9]] on those
    two, plus noise: a sum over one of them stays finite and a sum over both
    overflows, so only the batch's leaves overflow."""
    pattern = np.zeros((1 << (n - 5), 2, 2, 8), dtype=complex)
    pattern[0, :, :, 0] = [[0.9, 0.1], [0.1, 0.9]]
    noise = 1e-4 * _complex_gaussian(rng, pattern.shape)
    return StateVector(n, 1.2e308 * (pattern + noise).reshape(-1))


def _outcome(call):
    """``call()``'s value, or the type and message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.fixture
def batch(monkeypatch):
    """What each canonical batch of ``detect`` formed: "leaves" (then
    decided), "vanished" or "overflow"."""
    module = sys.modules["qubitloss.detect"]
    original, seen = module._canonical_leaves, []

    def spied(*args):
        try:
            leaves = original(*args)
        except ProjectionOverflow:
            seen.append("overflow")
            raise
        seen.append("vanished" if leaves is None else "leaves")
        return leaves

    monkeypatch.setattr(module, "_canonical_leaves", spied)
    return seen


# Each fallback's state builder, tolerance and what the batch formed (None:
# the descent vanished, so no batch started).
_FALLBACKS = {
    "lone-qubit": (_lone_first, 1e-9, "leaves"),
    "minus-on-qubit-2": (lambda rng, n: _minus_on(2, rng, n), 1e-9, None),
    "tail-block": (_tail_block, 1e-9, "leaves"),
    "pair-sums-to-noise": (_pair_sums_to_noise, 0.0, "vanished"),
}


class TestCanonicalPass:
    """``detect`` decides the canonical certificate's leaves in one batch
    after its first descent; its verdicts, certificates and errors are the
    walk's, and every fallback's verdict is the reference recursion's."""

    @pytest.mark.parametrize("n", range(5, 17))
    def test_dense_and_catalog_states_match_the_walk(self, n):
        states = (random_state(np.random.default_rng(n), n), ghz(n), w_state(n), dicke(n, 2))
        for s in states:
            verdict, walked = detect(s), _walked(s)
            assert verdict == walked
            assert json.dumps(_certificate_json(verdict.certificate)) == json.dumps(
                _certificate_json(walked.certificate))

    def test_dense_states_share_one_certificate(self, rng):
        for n in (5, 8, 12):
            first, second = (detect(random_state(rng, n)).certificate for _ in range(2))
            assert first is second and first.qubits == tuple(range(1, n + 1))

    # The reference recursion takes seconds on these products at n = 10.
    @pytest.mark.parametrize("n", range(6, 10))
    @pytest.mark.parametrize("case", _FALLBACKS, ids=list(_FALLBACKS))
    def test_each_fallback_gives_the_reference_verdict(self, batch, case, n):
        build, tol, formed = _FALLBACKS[case]
        s = build(np.random.default_rng(n), n)
        verdict, expected = detect(s, tol), reference_detect(s, tol=tol)
        assert batch == ([formed] if formed else [])
        assert (verdict.kind, verdict.witness) == (expected.kind, expected.witness)
        assert verdict == _walked(s, tol)

    @pytest.mark.parametrize("n", [6, 9])
    def test_without_a_batch_detect_projects_as_the_walk_does(self, monkeypatch, batch, n):
        # The bottom-up walk finds each descent state's first child cached,
        # a vanished one included, so it repeats no projection.
        module, rng = sys.modules["qubitloss.detect"], np.random.default_rng(n)
        original, calls = module.lose_qubit, []

        def counted(state, pos):
            calls.append((state.num_qubits, pos))
            return original(state, pos)

        monkeypatch.setattr(module, "lose_qubit", counted)
        states = [_minus_on(q, rng, n) for q in range(1, n + 1)]
        states += [random_product(rng, random_partition_blocks(rng, n)) for _ in range(4)]
        for s in states:
            detect(s)
            detected = calls[:]
            calls.clear()
            _walked(s)
            assert detected == calls
            calls.clear()
        assert batch == []

    @pytest.mark.parametrize("n", range(6, 11))
    def test_an_overflow_raises_the_walks_message(self, batch, n):
        for s in (_overflow_in_batch(np.random.default_rng(n), n),
                  with_overflowing_moduli(random_state(np.random.default_rng(n), n))):
            with pytest.raises(ProjectionOverflow) as walked:
                _walked(s)
            with pytest.raises(ProjectionOverflow) as detected:
                detect(s)
            assert str(detected.value) == str(walked.value)
        assert batch == ["overflow"]

    def test_detect_peak_memory_stays_near_one_state(self):
        # The descent holds states of 2^(n-1), 2^(n-2), ... amplitudes, and
        # each is dropped once its leaf is formed.
        s = random_state(np.random.default_rng(16), 16)
        assert detect(s).kind is VerdictKind.GENUINE  # builds the tables first
        tracemalloc.start()
        try:
            assert detect(s).kind is VerdictKind.GENUINE
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * s.amplitudes.nbytes


class TestCanonicalReplay:
    """Replay knows the shared canonical certificate by identity and forms
    its leaves as ``detect`` does; on dense and failing states alike it
    answers (or raises) as the node-by-node check of an equal copy does."""

    @pytest.fixture
    def preorders(self, monkeypatch):
        module = sys.modules["qubitloss.detect"]
        original, calls = module._preorder, []

        def counted(cert):
            calls.append(cert.qubits)
            return original(cert)

        monkeypatch.setattr(module, "_preorder", counted)
        return calls

    @pytest.mark.parametrize("n", range(5, 13))
    def test_dense_states_take_the_batch(self, preorders, n):
        rng = np.random.default_rng(n)
        cert = detect(random_state(rng, n)).certificate
        copy = _rebuilt(cert)
        assert copy == cert and copy is not cert
        for s in (random_state(rng, n), ghz(n)):
            for tol in (1e-9, 0.0):
                assert replay_certificate(s, cert, tol) is True
                assert preorders == []
                assert replay_certificate(s, copy, tol) is True
                preorders.clear()

    @pytest.mark.parametrize("n", range(6, 11))
    def test_failing_states_agree_with_the_general_path(self, n):
        rng = np.random.default_rng(n)
        cert = detect(random_state(rng, n)).certificate
        copy = _rebuilt(cert)
        failing = [build(rng, n) for build, _, _ in _FALLBACKS.values()] + [
            _minus_on(q, rng, n) for q in range(1, n + 1)
        ] + [
            _overflow_in_batch(rng, n),
            with_overflowing_moduli(random_state(rng, n)),
            random_product(rng, random_partition_blocks(rng, n)),
        ]
        for s in failing:
            for tol in (1e-9, 0.0, 1e-3):
                expected = _outcome(lambda: replay_certificate(s, copy, tol))
                assert _outcome(lambda: replay_certificate(s, cert, tol)) == expected
                # At tol 0 rounded products can pass (ROADMAP item 1).
                assert expected is not True or tol == 0.0


def _vanishes_below_first_column(rng, n):
    """A dense state whose sum over qubits 2..n-3 is 1e-14 noise.  Of the
    canonical leaves, only the first descent state's (qubits 1, n-2, n-1,
    n) loses them all and vanishes.  As in ``_pair_sums_to_noise``, a node
    that loses all of them but one is |-> on that one up to the noise,
    which only tol 0 calls genuine, as it must for the 5-qubit state to
    certify."""
    amps = _complex_gaussian(rng, (2,) * n)
    lost = tuple(range(1, n - 3))
    amps[(slice(None),) + (0,) * len(lost)] -= amps.sum(axis=lost)
    return StateVector(n, amps.reshape(-1) + 1e-14 * _complex_gaussian(rng, 1 << n))


class TestLevelSteps:
    """``_canonical_leaves`` forms the leaves a level at a time, and they
    are the walk's, bit for bit, with the walk's zero rule at every node."""

    @pytest.fixture
    def level_rows(self, monkeypatch):
        """The number of rows of each level that a level step starts from."""
        module, rows = sys.modules["qubitloss.detect"], []
        original = module._lose_second

        def spied(level, *args):
            rows.append(len(level))
            return original(level, *args)

        monkeypatch.setattr(module, "_lose_second", spied)
        return rows

    @pytest.mark.parametrize("n", range(5, 18))
    def test_leaves_equal_the_column_walk_bit_for_bit(self, level_rows, n):
        states = (random_state(np.random.default_rng(n), n), ghz(n), w_state(n), dicke(n, 2))
        for s in states:
            chain = _descent(s, tuple(range(1, n + 1)))
            assert len(chain[-1][1]) == 4
            # Replay passes the whole descent, detect all but its last two states.
            for part in (chain, chain[:-2]) if n > 5 else (chain,):
                leaves = _canonical_leaves(list(part))
                expected = canonical_leaves_by_column(list(part))[::-1]
                assert leaves.shape == (len(expected), 16)
                for row, leaf in zip(leaves, expected):
                    assert np.array_equal(row.view(np.float64), leaf.amplitudes.view(np.float64))
        # Up to 14 qubits the first level is the first state alone; from 15 on,
        # the first level of at most 2^14 amplitudes is formed one projection
        # at a time.
        assert min(level_rows) == {15: 4, 16: 6, 17: 7}.get(n, 1)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_zero_first_amplitudes_take_the_batch(self, monkeypatch, n):
        states, module = sys.modules["qubitloss.states"], sys.modules["qubitloss.detect"]
        original_moduli, original_preorder = states._row_moduli, module._preorder
        opened, preorders = [], []

        def counted_moduli(rows):
            opened.append(len(rows))
            return original_moduli(rows)

        def counted_preorder(cert):
            preorders.append(cert.qubits)
            return original_preorder(cert)

        monkeypatch.setattr(states, "_row_moduli", counted_moduli)
        monkeypatch.setattr(module, "_preorder", counted_preorder)
        for s in (w_state(n), dicke(n, 2)):
            verdict = detect(s)
            assert verdict.certificate is _canonical(n)
            assert replay_certificate(s, verdict.certificate) is True
            assert preorders == []
        # Dicke(n, 2) sums to 0 at |0...0> after one loss, so the screen leaves
        # rows open there and the zero rule takes their largest moduli.
        assert opened

    @pytest.mark.parametrize("n", range(7, 10))
    def test_a_vanishing_row_before_the_last_falls_back(self, batch, n):
        s = _vanishes_below_first_column(np.random.default_rng(n), n)
        chain = _descent(s, tuple(range(1, n + 1)))[:-2]
        assert canonical_leaves_by_column(chain[:1]) is None
        assert canonical_leaves_by_column(chain[-1:]) is not None
        assert _canonical_leaves(chain) is None
        verdict, expected = detect(s, 0.0), reference_detect(s, tol=0.0)
        assert batch == ["vanished"]
        assert (verdict.kind, verdict.witness) == (expected.kind, expected.witness)
        assert verdict == _walked(s, 0.0)
        cert = _canonical(n)
        assert replay_certificate(s, cert, 0.0) == replay_certificate(s, _rebuilt(cert), 0.0)


class TestMeasure:
    def test_phi4_has_measure_two(self):
        report = entanglement_measure(phi4())
        assert report.genuine_count == 2
        kinds = [v.kind for v in report.per_qubit]
        assert kinds[0] is VerdictKind.GENUINE
        assert kinds[1] is VerdictKind.GENUINE
        assert kinds[2] is VerdictKind.NOT_GENUINE
        assert kinds[3] is VerdictKind.NOT_GENUINE
        assert not report.is_mes
        assert report.count_is_exact

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ghz_and_w_are_maximally_entangled(self, n):
        for family in (ghz, w_state):
            report = entanglement_measure(family(n))
            assert report.genuine_count == n
            assert report.is_mes
            assert report.count_is_exact == (n - 1 <= 4)

    def test_sweeps_carry_the_detect_verdict(self, rng):
        states = [ghz(6), phi4(), w_state(3), random_state(rng, 7)]
        states.append(random_product(rng, random_bipartition_blocks(rng, 7)))
        for s in states:
            assert entanglement_measure(s).verdict == detect(s)
            assert detect_with_trace(s).verdict == detect(s)

    def test_one_report_for_the_root_sweep(self):
        assert MeasureReport is TraceReport is SufficientCheck is SweepReport
        assert [f.name for f in fields(SweepReport)] == ["per_qubit", "verdict"]
        report = entanglement_measure(ghz(5))
        assert detect_with_trace(ghz(5)) == report
        assert repr(report).startswith("SweepReport(per_qubit=(")
        assert "verdict=" not in repr(report)

    def test_requires_three_qubits(self):
        with pytest.raises(ValueError):
            entanglement_measure(ghz(2))

    @pytest.mark.parametrize("family", [ghz, w_state])
    def test_overflowing_moduli_decide_as_at_scale_one(self, family):
        # The zero rule once compared every projection with an infinite
        # largest modulus, so all of them vanished and the walk gave up.
        state = with_overflowing_moduli(family(5))
        verdict = detect(state)
        assert verdict.kind is VerdictKind.GENUINE
        assert replay_certificate(state, verdict.certificate)
        assert entanglement_measure(state).genuine_count == 5


class TestTrace:
    def test_basis_state_row(self):
        report = detect_with_trace(basis_state("000"))
        assert report.table == ("product", "product", "product")

    def test_lone_qubit_times_bell_row(self):
        s = product_state([((1,), basis_state("0")), ((2, 3), ghz(2))])
        report = detect_with_trace(s)
        assert report.table == ("entangled", "product", "product")
        assert report.verdict.kind is VerdictKind.NOT_GENUINE

    def test_w3_row(self):
        report = detect_with_trace(w_state(3))
        assert report.table == ("entangled", "entangled", "entangled")

    def test_zero_entry_in_row(self):
        minus = StateVector(1, [1, -1])
        s = product_state([((1,), minus), ((2, 3), ghz(2))])
        report = detect_with_trace(s)
        assert report.table[0] == "zero"


class TestIncompleteness:
    def test_wclass_projections_all_product_yet_state_genuine(self):
        report = detect_with_trace(wclass_3q())
        assert report.table == ("product", "product", "product")
        assert report.verdict.kind is VerdictKind.GENUINE  # exact 3-qubit test
        assert oracle_genuine(wclass_3q())
        for res in all_projections(wclass_3q()):
            assert not detect_base(res.state).genuinely_entangled


def _complex_gaussian(rng, size=None):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


# Two classes of products and near-products that the walk certifies genuine
# today, pinned until a certified radius replaces the tolerance's three
# meanings: ROADMAP open item 1.
_ITEM_1 = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: near-products are certified genuine")


class TestSoundnessItem1:
    @_ITEM_1
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", range(5, 9))
    @pytest.mark.parametrize("delta", [1e-8, 1e-10])
    def test_near_cancelling_product_is_never_genuine(self, delta, n, seed):
        # c (x) c' (x) r with c = (a, -a(1 + delta)): losing qubit 1 or 2
        # leaves rounding noise of relative size ~u/delta.
        rng = np.random.default_rng(seed)
        a, b = _complex_gaussian(rng), _complex_gaussian(rng)
        s = product_state([
            ((1,), StateVector(1, [a, -a * (1 + delta)])),
            ((2,), StateVector(1, [b, -b * (1 + delta)])),
            (tuple(range(3, n + 1)), random_state(rng, n - 2)),
        ])
        assert detect(s).kind is not VerdictKind.GENUINE

    @_ITEM_1
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("n", range(5, 9))
    def test_noisy_minus_product_is_never_genuine(self, n, seed):
        # |->^n plus 1e-13 noise, which the oracle calls a product.
        minus = np.ones(1)
        for _ in range(n):
            minus = np.kron(minus, [1, -1])
        noise = _complex_gaussian(np.random.default_rng(seed), 1 << n)
        s = StateVector(n, minus / 2 ** (n / 2) + 1e-13 * noise)
        assert detect(s).kind is not VerdictKind.GENUINE

    @_ITEM_1
    def test_sufficient_3q_never_certifies_a_noisy_minus_product(self):
        # |->^3 plus 1e-13 noise: detect and the oracle call all 100 seeds
        # products, sufficient_3q certifies 8.  One test, not one per seed,
        # so that the seeds it gets right cannot pass the strict marker.
        minus = np.kron(np.kron([1, -1], [1, -1]), [1, -1]) / 2**1.5
        for seed in range(100):
            noise = _complex_gaussian(np.random.default_rng(seed), 8)
            assert not sufficient_3q(StateVector(3, minus + 1e-13 * noise)).certified, seed


class TestTolerance:
    # A bool would run at 1.0 or 0.0; text and complex values are not real.
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3, -1, True, False,
                                     pytest.param(np.True_, id="numpy-True"), "1e-9", 1j])
    def test_bad_tolerance_rejected(self, tol):
        s = ghz(5)
        cert = detect(s).certificate
        zero = StateVector(3, np.zeros(8))
        calls = (
            lambda: detect(s, tol=tol),
            lambda: entanglement_measure(s, tol=tol),
            lambda: detect_with_trace(s, tol=tol),
            lambda: replay_certificate(s, cert, tol=tol),
            lambda: detect_base(ghz(3), tol=tol),
            lambda: pair_proportional([1, 0], [0, 1], tol=tol),
            # Each of these used to return before it read the tolerance.
            lambda: equal_up_to_scale(zero, ghz(3), tol=tol),
            lambda: family_proportional([[0, 0], [0, 0]], tol=tol),
            lambda: find_product_cut(s, tol=tol),
            lambda: sufficient_3q(ghz(3), tol=tol),
            lambda: all_factorizations(ghz(3), tol=tol),
        )
        for call in calls:
            with pytest.raises(ValueError, match="tolerance"):
                call()

    def test_zero_tolerance_accepted(self):
        s = ghz(5)
        verdict = detect(s, tol=0.0)
        assert verdict.kind is VerdictKind.GENUINE
        assert replay_certificate(s, verdict.certificate, tol=0.0)


class TestWalkerWork:
    """Projections computed on GHZ(8): the measure and the trace walk the
    lattice once with one cache, and their sweep of the root's children
    does not reach the subtrees below."""

    @pytest.fixture
    def projections(self, monkeypatch):
        """The position lost by each projection: one per ``lose_qubit``
        call, and one per node that a level step forms."""
        module = sys.modules["qubitloss.detect"]
        original, original_level = module.lose_qubit, module._lose_second
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        def counted_level(level, *args):
            calls.extend([2] * len(level))
            return original_level(level, *args)

        monkeypatch.setattr(module, "lose_qubit", counted)
        monkeypatch.setattr(module, "_lose_second", counted_level)
        return calls

    @pytest.mark.parametrize(
        "entry, expected",
        [(detect, 14), (entanglement_measure, 54), (detect_with_trace, 54)],
    )
    def test_projection_count(self, projections, entry, expected):
        entry(ghz(8))
        assert len(projections) == expected

    def test_replay_projects_each_subset_once(self, projections):
        s = ghz(8)
        cert = detect(s).certificate
        subsets, stack = set(), [cert]
        while stack:
            node = stack.pop()
            subsets.add(node.qubits)
            stack.extend(node.children)
        projections.clear()
        assert replay_certificate(s, cert)
        assert len(projections) == len(subsets) - 1 == 14

    def test_replay_peak_memory_stays_near_one_state(self):
        # A projected state is dropped once its node is entered, so the
        # peak stays below two copies of the state.
        s = random_state(np.random.default_rng(16), 16)
        cert = detect(s).certificate
        tracemalloc.start()
        try:
            assert replay_certificate(s, cert)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * s.amplitudes.nbytes
        forged = _with_first_leaf(cert, rule="oracle")
        assert not replay_certificate(s, forged)

    @pytest.fixture
    def cut_tests(self, monkeypatch):
        """The qubit counts of the states ``_product_across`` tests."""
        module = sys.modules["qubitloss.detect"]
        original = module._product_across
        sizes = []

        def counted(state, *args):
            sizes.append(state.num_qubits)
            return original(state, *args)

        monkeypatch.setattr(module, "_product_across", counted)
        return sizes

    def test_product_stops_at_a_verified_cut(self, projections, cut_tests):
        # The walk without the cut makes 847 projections here.
        s = random_product(np.random.default_rng(10), [(1, 4, 6, 9), (2, 3, 5, 7, 8, 10)])
        verdict = detect(s)
        assert verdict.kind is VerdictKind.INCONCLUSIVE and verdict.witness is None
        assert len(projections) <= 20
        assert cut_tests

    @pytest.mark.parametrize("entry", [detect, entanglement_measure])
    def test_no_cut_tests_where_children_certify(self, cut_tests, entry):
        # Every subset these walks reach is certified, so no child has a cut.
        for s in (random_state(np.random.default_rng(10), 10), ghz(8)):
            entry(s)
        assert cut_tests == []

    def test_hadamard_ghz_walks_less(self, projections):
        # Every projection of H^8 GHZ(8) is a product; without the cut the
        # walk projects onto all 162 subsets of >= 4 qubits but the root.
        assert detect(hadamard_ghz(8)).kind is VerdictKind.INCONCLUSIVE
        assert len(projections) < 162

    def test_a_node_that_is_no_product_tests_two_cuts_per_child(self, cut_tests):
        # The root of H^8 GHZ(8) is genuine and each of its 8 children is a
        # product that carries a cut, so the root tries that cut with the
        # lost qubit on either side and then goes on to the next child.
        assert detect(hadamard_ghz(8)).kind is VerdictKind.INCONCLUSIVE
        assert cut_tests.count(8) == 2 * 8

    @pytest.mark.parametrize("n", range(5, 13))
    def test_one_kernel_hook_sees_every_leaf_decision(self, monkeypatch, n):
        # The walk's leaves, the canonical batch and replay all ask the exact
        # test through base, so one hook there sees each stack they decide.
        module, rows = sys.modules["qubitloss.base"], []
        original = module._proportional_masks

        def counted(stack, *args):
            rows.append(len(stack))
            return original(stack, *args)

        monkeypatch.setattr(module, "_proportional_masks", counted)
        s = random_state(np.random.default_rng(n), n)
        verdict = detect(s)
        assert rows == [1, 1] + ([n - 5] if n > 5 else [])
        rows.clear()
        assert replay_certificate(s, verdict.certificate)
        assert rows == [n - 3]
        assert not hasattr(sys.modules["qubitloss.detect"], "_proportional_masks")

    def test_measure_command_walks_once(self, projections, capsys):
        assert main(["measure", "--catalog", "GHZ", "--n", "8"]) == 0
        assert len(projections) == 54

    def test_only_the_root_takes_a_largest_modulus_above_a_leaf(self, monkeypatch):
        # A built state takes the bound on its parts when it is checked, a
        # projection carries one, and on a dense state the first amplitude
        # settles the zero rule, so no modulus pass runs above a leaf, not
        # even on the root.
        sizes = []

        def counted(values):
            sizes.append(np.size(values))
            return largest_modulus(values)

        for name, module in list(sys.modules.items()):
            if name.startswith("qubitloss.") and vars(module).get("largest_modulus") is largest_modulus:
                monkeypatch.setattr(module, "largest_modulus", counted)
        s = random_state(np.random.default_rng(12), 12)
        verdict = detect(s)
        assert verdict.kind is VerdictKind.GENUINE
        assert replay_certificate(s, verdict.certificate)
        assert [size for size in sizes if size > 16] == []
