"""Reading and writing state files.

Two interchangeable formats:

* text -- ASCII with no underscore: a header line ``qubits: n`` followed
  by up to 2^n lines ``index re im`` (n and the index in digits alone, re
  and im decimal, whitespace separated); omitted indices are zero amplitudes.
* JSON -- ``{"qubits": n, "amplitudes": [[re, im], ...]}`` with exactly
  2^n entries.

Writers emit 17 significant digits so round trips are lossless.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .states import StateVector, check_qubit_count, int_text


# The Python types json gives a JSON number.  Tested with ``type``, not
# ``isinstance``, because ``True`` is an int.
_NUMBER = (int, float)


def loads_state(text: str) -> StateVector:
    """Parse a state document, sniffing JSON vs text by the first character."""
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty state document")
    if stripped[0] == "{":
        return _loads_json(stripped)
    return _loads_text(text)


def load_state(path: str | os.PathLike) -> StateVector:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_state(fh.read())


def dumps_state(state: StateVector, fmt: str = "text") -> str:
    if fmt == "text":
        lines = [f"qubits: {state.num_qubits}"]
        for i, a in enumerate(state.amplitudes):
            if a != 0:
                lines.append(f"{i} {a.real:.17g} {a.imag:.17g}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(state_document(state)) + "\n"
    raise ValueError(f"unknown state format {fmt!r}")


def state_document(state: StateVector) -> dict:
    """The JSON format's document for ``state``, before serialization."""
    return {
        "qubits": state.num_qubits,
        "amplitudes": [[a.real, a.imag] for a in state.amplitudes],
    }


def dump_state(state: StateVector, path: str | os.PathLike, fmt: str = "text") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_state(state, fmt))


def _loads_text(text: str) -> StateVector:
    if not text.isascii() or "_" in text:  # float() reads "1_0" and other scripts' digits
        raise ValueError("a text state document must be ASCII with no underscore")
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    header = lines[0].split(":")
    if len(header) != 2 or header[0].strip() != "qubits":
        raise ValueError(f"expected 'qubits: n' header, got {lines[0]!r}")
    n = check_qubit_count(int_text(header[1].strip()))
    amps = np.zeros(1 << n, dtype=complex)
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"expected 'index re im', got {ln!r}")
        try:
            idx = int_text(parts[0])
            re_part = float(parts[1])
            im_part = float(parts[2])
        except ValueError:
            raise ValueError(f"unparsable amplitude line {ln!r}") from None
        if not 0 <= idx < (1 << n):
            raise ValueError(f"index {idx} out of range for {n} qubits")
        if idx in seen:
            raise ValueError(f"duplicate index {idx}")
        seen.add(idx)
        amps[idx] = complex(re_part, im_part)
    return StateVector(n, amps)


def _loads_json(text: str) -> StateVector:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: deep nesting
        raise ValueError(f"bad JSON state document: {exc}") from None
    if not isinstance(doc, dict) or "qubits" not in doc or "amplitudes" not in doc:
        raise ValueError("JSON state document needs 'qubits' and 'amplitudes'")
    n = check_qubit_count(doc["qubits"])
    pairs = doc["amplitudes"]
    if not isinstance(pairs, list) or len(pairs) != (1 << n):
        raise ValueError(
            f"expected exactly {1 << n} amplitude pairs, got "
            f"{len(pairs) if isinstance(pairs, list) else type(pairs).__name__}"
        )
    amps = np.empty(1 << n, dtype=complex)
    for i, pair in enumerate(pairs):
        if type(pair) is not list or len(pair) != 2:
            raise ValueError(f"amplitude {i} is not a [re, im] pair")
        re_part, im_part = pair
        if type(re_part) not in _NUMBER or type(im_part) not in _NUMBER:
            raise ValueError(f"amplitude {i} has a part that is not a JSON number")
        try:
            amps[i] = complex(re_part, im_part)
        except OverflowError:
            raise ValueError(f"amplitude {i} is too large for a float") from None
    return StateVector(n, amps)

