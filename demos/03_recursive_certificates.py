"""Certified detection beyond four qubits.

A state with two genuinely entangled single-qubit-loss projections is
itself genuinely entangled, so the detector recurses down to the exact
small-system tests and returns the proof it followed.  Losses commute,
so the proof is a DAG over qubit subsets: a subset that two parents reach
is printed once, and "see above" marks its later occurrences.  Replaying
it against the state checks each node once and recomputes each projection
from scratch.
"""

from qubitloss import (
    detect,
    format_certificate,
    ghz,
    replay_certificate,
    w_state,
    example3_4q,
)

for name, state in [
    ("GHZ(6)", ghz(6)),
    ("W(5)", w_state(5)),
    ("|0000>+|0111>-|1111>", example3_4q()),
]:
    verdict = detect(state)
    print(f"{name}: {verdict.kind.value}")
    print(format_certificate(verdict.certificate, indent=1))
    print("  replay from scratch:", replay_certificate(state, verdict.certificate))
    print()

print("The criterion is one-sided: a five-qubit product state certifies")
print("nothing and the verdict is inconclusive, never a false positive.")
from qubitloss import product_state

product = product_state([((1, 2), ghz(2)), ((3, 4, 5), ghz(3))])
print("Bell x GHZ(3):", detect(product).kind.value)
