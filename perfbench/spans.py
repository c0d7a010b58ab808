"""Span recording for the traced run.

The package is not edited: the traced run replaces functions by wrappers
at the module attributes their callers look them up through (for example
``qubitloss.detect.lose_qubit``, which ``_detect_labeled`` reads from its
module globals on every call).  Each wrapper records a span with its
parent, so a layer's self time is its span minus the spans directly
inside it.  Wrappers are installed only in the traced run; the timed run
calls the package untouched, and the traced run removes them between
operations so that each traced operation can be paired with an untraced
run of the same item.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    layer: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 at the top


def layer_times(spans: list[Span]) -> tuple[Counter, Counter, Counter]:
    """Per layer: self time (ns), total span time (ns) and span count.

    Self time is a span's duration minus the durations of its direct
    children; grandchildren are already inside the children.
    """
    self_ns: Counter = Counter()
    total_ns: Counter = Counter()
    calls: Counter = Counter()
    for sp in spans:
        d = sp.end_ns - sp.start_ns
        self_ns[sp.layer] += d
        total_ns[sp.layer] += d
        calls[sp.layer] += 1
        if sp.parent >= 0:
            self_ns[spans[sp.parent].layer] -= d
    return self_ns, total_ns, calls


@dataclass
class Tracer:
    """Open spans form a stack; closed ones are kept until ``drain``."""

    spans: list[Span] = field(default_factory=list)
    tally: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, time.perf_counter_ns(), 0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end_ns = time.perf_counter_ns()
        self._stack.pop()

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        idx = self.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def drain(self) -> list[Span]:
        """Hand over the closed spans of the finished operation and start afresh."""
        spans, self.spans = self.spans, []
        return spans


Observer = Callable[[Counter, tuple, object], None]


def _observe_projection(tally: Counter, args: tuple, result) -> None:
    n = getattr(args[0], "num_qubits", 0) if args else 0
    if n:
        tally["projection.bytes"] += ((1 << n) + (1 << (n - 1))) * 16
    tally["projection.zero"] += bool(getattr(result, "is_zero", False))


def _observe_base(tally: Counter, args: tuple, result) -> None:
    tally["base.genuine"] += bool(getattr(result, "genuinely_entangled", False))


# (module, attribute, layer, observer).  The package's ``detect`` attribute
# is the function, so modules are always resolved through importlib.
Hook = tuple[str, str, str, Optional[Observer]]
LAYER_HOOKS: tuple[Hook, ...] = (
    ("qubitloss.detect", "lose_qubit", "projection", _observe_projection),
    ("qubitloss.detect", "detect_base", "base", _observe_base),
    ("qubitloss.base", "family_proportional", "proportional", None),
)
PACKAGE_HOOKS: tuple[Hook, ...] = (
    ("qubitloss", "detect", "detect", None),
    ("qubitloss", "replay_certificate", "detect.replay", None),
) + LAYER_HOOKS
CLI_HOOKS: tuple[Hook, ...] = (
    ("qubitloss.cli", "load_state", "stateio", None),
    ("qubitloss.cli", "detect", "detect", None),
) + LAYER_HOOKS


def _wrap(fn: Callable, layer: str, tracer: Tracer, observe: Optional[Observer]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(layer, fn, *args, **kwargs)
        if observe is not None:
            observe(tracer.tally, args, result)
        return result

    return traced


@contextlib.contextmanager
def hooked(tracer: Tracer, hooks):
    """Wrap every hook that resolves for the duration of the block; yield
    the layers of those that do not.

    A missing module or attribute (say, after a rename) leaves that layer
    absent from the trace instead of failing the run.
    """
    absent, originals = [], []
    for module_name, attr, layer, observe in hooks:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(layer)
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            absent.append(layer)
            continue
        originals.append((module, attr, fn))
        setattr(module, attr, _wrap(fn, layer, tracer, observe))
    try:
        yield absent
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
