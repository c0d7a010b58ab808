"""One table of the input rules.

Every public reader of a qubit count or of an array of numbers meets each
kind of bad input with its exact one-line message.  Each rule has one
owner in ``qubitloss.states``: ``check_qubit_count`` (after ``as_int``
where a count is also a label bound) for counts, ``_numbers`` for arrays.
A reader that sizes something by a count runs with numpy replaced, so it
must reject the count before it allocates.
"""

import inspect
import tracemalloc

import numpy as np
import pytest

import qubitloss
import qubitloss.base
import qubitloss.catalog
import qubitloss.states
from qubitloss import (
    MAX_QUBITS,
    Bipartition,
    StateVector,
    all_bipartitions,
    basis_index,
    basis_state,
    coefficient_groups,
    dicke,
    family_proportional,
    ghz,
    max_cross_minor,
    named_state,
    numerical_rank,
    pair_proportional,
    ppt_2qubit,
    product_state,
    random_product_state,
    random_state,
    tensor,
    w_state,
)
from helpers import _NoAllocation

TOO_MANY = MAX_QUBITS + 1
# A bad count of each kind; a bool is not a count, though Python calls it an int.
BAD_COUNTS = {"bool": True, "text": "1_0", "nan": float("nan"), "too-many": TOO_MANY,
              "huge": 10**6}


def _not_a_count(bad):
    return f"qubit count must be an integer in 1..MAX_QUBITS = {MAX_QUBITS}, got {bad!r}"


def _not_an_integer(bad):
    return f"qubit numbers, labels and bits must be integers, got {bad!r}"


def _checked_int_first(bad):
    """The message of ``check_qubit_count(as_int(bad))``."""
    return _not_a_count(bad) if type(bad) is int else _not_an_integer(bad)


def _bits(bad):
    return f"expected {bad} bits, got 2" if type(bad) is int else _not_an_integer(bad)


RNG = np.random.default_rng(0)
# Readers of a count given as an argument: (name, call, message of a bad count).
COUNT_READERS = [
    ("StateVector", lambda n: StateVector(n, [1, 0]), _not_a_count),
    ("ghz", ghz, _not_a_count),
    ("w_state", w_state, _not_a_count),
    ("dicke", lambda n: dicke(n, 1), _not_a_count),
    ("named_state", lambda n: named_state("GHZ", n), _not_a_count),
    ("random_state", lambda n: random_state(RNG, n), _not_a_count),
    ("Bipartition.from_block", lambda n: Bipartition.from_block(n, (1,)), _checked_int_first),
    ("all_bipartitions", lambda n: next(all_bipartitions(n)), _checked_int_first),
    ("coefficient_groups", lambda n: coefficient_groups(n, (1,)), _checked_int_first),
    # Reads a count but sizes nothing: the bits must be that many.
    ("basis_index", lambda n: basis_index("01", n), _bits),
]

# Factors, built while numpy is there, of readers whose count is a sum.
ZERO, LOW, HIGH = basis_state("0"), ghz(MAX_QUBITS // 2), ghz(TOO_MANY - MAX_QUBITS // 2)
SUM_READERS = [
    ("tensor", lambda: tensor(LOW, HIGH)),
    ("product_state", lambda: product_state([((q,), ZERO) for q in range(TOO_MANY, 0, -1)])),
    ("random_product_state",
     lambda: random_product_state(RNG, [range(1, MAX_QUBITS), (MAX_QUBITS, TOO_MANY)])),
    ("basis_state", lambda: basis_state("0" * TOO_MANY)),
]

COUNT_TABLE = [
    pytest.param(name, lambda call=call, bad=bad: call(bad), message(bad),
                 id=f"{name}-{kind}")
    for name, call, message in COUNT_READERS
    for kind, bad in BAD_COUNTS.items()
] + [
    pytest.param(name, call, _not_a_count(TOO_MANY), id=f"{name}-too-many")
    for name, call in SUM_READERS
]


@pytest.mark.parametrize("reader, call, message", COUNT_TABLE)
def test_a_bad_count_is_rejected_before_anything_is_sized(monkeypatch, reader, call, message):
    for module in (qubitloss.states, qubitloss.catalog, qubitloss.base):
        monkeypatch.setattr(module, "np", _NoAllocation())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 16 * 1024


def _bad(kind, size):
    """``size`` entries of which one breaks the rule named ``kind``."""
    if kind == "bool":
        return np.ones(size, dtype=bool)
    if kind == "text":  # NumPy's complex cast reads "1_0" as 10
        return np.array(["1_0"] + ["0"] * (size - 1))
    if kind == "past-float":  # the cast raised OverflowError
        return np.array([10**400] + [1] * (size - 1), dtype=object)
    return np.r_[np.nan, np.ones(size - 1)]


def _numbers_message(what, kind):
    if kind in ("nan", "past-float"):
        return f"{what} must be finite"
    dtype = "bool" if kind == "bool" else "<U3"
    return f"{what} must be ints, floats or complex numbers, got dtype {dtype}"


GOOD = [1.0, 2.0, 3.0, 4.0]
# Readers of an array of numbers: (name, parameter, call on a bad array of 4
# entries, what the message calls the entries).
ARRAY_READERS = [
    ("StateVector", "amplitudes", lambda a: StateVector(2, a), "amplitudes"),
    ("StateVector.from_amplitudes", "amplitudes", StateVector.from_amplitudes, "amplitudes"),
    ("max_cross_minor", "u", lambda a: max_cross_minor(a, GOOD), "vector entries"),
    ("max_cross_minor", "v", lambda a: max_cross_minor(GOOD, a), "vector entries"),
    ("pair_proportional", "u", lambda a: pair_proportional(a, GOOD), "vector entries"),
    ("pair_proportional", "v", lambda a: pair_proportional(GOOD, a), "vector entries"),
    ("family_proportional", "vectors", lambda a: family_proportional([GOOD, a]), "vector entries"),
    ("numerical_rank", "matrix", lambda a: numerical_rank(a.reshape(2, 2)), "matrix entries"),
    ("ppt_2qubit", "rho", lambda a: ppt_2qubit(np.tile(a, 4).reshape(4, 4)),
     "density matrix entries"),
]

ARRAY_TABLE = [
    pytest.param(name, lambda call=call, kind=kind: call(_bad(kind, 4)),
                 _numbers_message(what, kind), id=f"{name}-{parameter}-{kind}")
    for name, parameter, call, what in ARRAY_READERS
    for kind in ("bool", "text", "nan", "past-float")
]

# A bool among numbers, which NumPy casts to 1.0 before a dtype shows it:
# (name, parameter, call, what the message calls the entries).  Read as
# given, the entries are objects.
HIDDEN_BOOLS = [
    ("StateVector", "amplitudes", lambda: StateVector(1, [True, 0.5]), "amplitudes"),
    ("StateVector", "nested-amplitudes",
     lambda: StateVector(2, [[1.0, False], [0.0, 1.0]]), "amplitudes"),
    ("StateVector.from_amplitudes", "amplitudes",
     lambda: StateVector.from_amplitudes([True, 0.5]), "amplitudes"),
    ("max_cross_minor", "u", lambda: max_cross_minor([True, 0.5], [1.0, 0.5]), "vector entries"),
    ("max_cross_minor", "v", lambda: max_cross_minor([1.0, 0.5], [True, 0.5]), "vector entries"),
    ("pair_proportional", "u", lambda: pair_proportional([True, 0.5], [1.0, 0.5]),
     "vector entries"),
    ("pair_proportional", "v", lambda: pair_proportional([1.0, 0.5], [True, 0.5]),
     "vector entries"),
    ("family_proportional", "vectors",
     lambda: family_proportional([[True, 0.5], [1.0, 0.5]]), "vector entries"),
    ("numerical_rank", "matrix", lambda: numerical_rank([[True, 0.0], [0.0, 1.0]]),
     "matrix entries"),
    ("ppt_2qubit", "rho", lambda: ppt_2qubit([[True, 0, 0, 0]] + [[0.0] * 4] * 3),
     "density matrix entries"),
]

ARRAY_TABLE += [
    pytest.param(name, call, f"{what} must be ints, floats or complex numbers, got dtype object",
                 id=f"{name}-{parameter}-hidden-bool")
    for name, parameter, call, what in HIDDEN_BOOLS
]


# A ragged nesting, for which NumPy finds no shape: (name, parameter, call,
# what the message calls the entries).
RAGGED = [[1.0, 2.0], [3.0]]
RAGGED_ARRAYS = [
    ("StateVector", "amplitudes", lambda: StateVector(1, RAGGED), "amplitudes"),
    ("StateVector.from_amplitudes", "amplitudes",
     lambda: StateVector.from_amplitudes(RAGGED), "amplitudes"),
    ("max_cross_minor", "u", lambda: max_cross_minor(RAGGED, GOOD), "vector entries"),
    ("max_cross_minor", "v", lambda: max_cross_minor(GOOD, RAGGED), "vector entries"),
    ("pair_proportional", "u", lambda: pair_proportional(RAGGED, GOOD), "vector entries"),
    ("pair_proportional", "v", lambda: pair_proportional(GOOD, RAGGED), "vector entries"),
    ("family_proportional", "vectors", lambda: family_proportional([GOOD, RAGGED]),
     "vector entries"),
    ("numerical_rank", "matrix", lambda: numerical_rank(RAGGED), "matrix entries"),
    ("ppt_2qubit", "rho", lambda: ppt_2qubit([[0.0] * 4] * 3 + [[0.0] * 3]),
     "density matrix entries"),
]

ARRAY_TABLE += [
    pytest.param(name, call, f"{what} must form a rectangular array",
                 id=f"{name}-{parameter}-ragged")
    for name, parameter, call, what in RAGGED_ARRAYS
]


@pytest.mark.parametrize("reader, call, message", ARRAY_TABLE)
def test_a_bad_array_is_rejected(reader, call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# A parameter of one of these names reads a count or an array of numbers.
RULE_PARAMETERS = {"num_qubits", "amplitudes", "u", "v", "vectors", "matrix", "rho", "factors"}


def _public_callables():
    """Each callable in ``qubitloss.__all__``, and each public classmethod
    of a class there, by name."""
    for name in qubitloss.__all__:
        obj = getattr(qubitloss, name)
        if callable(obj):
            yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, classmethod) and not attr.startswith("_"):
                    yield f"{name}.{attr}", getattr(obj, attr)


def test_every_reader_is_in_the_table():
    tabled = {p.values[0] for p in COUNT_TABLE + ARRAY_TABLE}
    readers = set()
    for name, obj in _public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to read
            continue
        if RULE_PARAMETERS & set(parameters):
            readers.add(name)
    assert readers, "no reader found: the parameter names have changed"
    assert readers - tabled == set()
