"""Traced stand-in for ``python -m qubitloss.cli``.

    python3 perfbench/cli_trace.py OUT.json detect --file F --json

Times the import of ``qubitloss.cli``, wraps the CLI's ``load_state`` and
``detect`` and the package layers below them, and calls
``qubitloss.cli.main(argv)`` in this process.  Standard output and the exit
code are main's; the layer totals go to OUT.json.
"""

import sys
import time

t0 = time.perf_counter_ns()
import qubitloss.cli  # noqa: E402  (timed import)

import_ns = time.perf_counter_ns() - t0

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    where = Path(qubitloss.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        print(f"qubitloss resolves to {where}, not under {src}", file=sys.stderr)
        return 5
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with spans.hooked(tracer, spans.CLI_HOOKS) as absent:
        code = tracer.call("cli", qubitloss.cli.main, argv)
    sys.stdout.flush()
    self_ns, total_ns, calls = spans.layer_times(tracer.drain())
    doc = {
        "import_ns": import_ns,
        "self_ns": self_ns,
        "total_ns": total_ns,
        "calls": calls,
        "tally": tracer.tally,
        "absent": absent,
    }
    Path(out).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
