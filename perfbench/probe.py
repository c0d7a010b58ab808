"""Set-up probe: one fresh interpreter, timed in CPU time from before
``import qubitloss`` until the first verdict on a small warm-up state
returns.

    python3 perfbench/probe.py WORKLOAD STATE_FILE

The warm-up amplitudes come from builtins alone, before the clock starts,
so input generation is not timed, and the probe imports no module of its
own before the clock that the package would otherwise pay for.
``cli-files`` runs the CLI's ``main`` in-process on STATE_FILE; the other
workloads run their own operation on the same six-qubit state.  Prints one
JSON line.
"""

import sys
import time

N = 6


def main() -> int:
    workload, state_file = sys.argv[1], sys.argv[2]
    amps = [complex((7 * i) % 13 - 6.0, (5 * i) % 11 - 5.5) for i in range(1 << N)]
    if workload == "cli-files":
        with open(state_file, "w", encoding="utf-8") as fh:
            fh.write(f"qubits: {N}\n")
            fh.writelines(f"{i} {a.real!r} {a.imag!r}\n" for i, a in enumerate(amps))

    t0 = time.process_time()
    import qubitloss

    if workload == "cli-files":
        import io

        import qubitloss.cli

        stdout, sys.stdout = sys.stdout, io.StringIO()
        try:
            code = qubitloss.cli.main(["detect", "--file", state_file, "--json"])
        finally:
            out, sys.stdout = sys.stdout, stdout
        elapsed = time.process_time() - t0
        verdict = out.getvalue() if code == 0 else f"exit {code}"
    else:
        state = qubitloss.StateVector(N, amps)
        result = qubitloss.detect(state)
        verdict = result.kind.value
        if workload == "dense-certify" and not qubitloss.replay_certificate(
            state, result.certificate
        ):
            verdict = "replay failed"
        elapsed = time.process_time() - t0
    import json

    if workload == "cli-files" and code == 0:
        verdict = json.loads(verdict)["verdict"]
    print(json.dumps({"setup_s": elapsed, "verdict": verdict, "file": qubitloss.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
