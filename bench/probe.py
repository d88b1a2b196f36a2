"""Time one set-up in a fresh interpreter: import ``banzhaf``, then one warm-up op.

    python3 bench/probe.py analyze '{"quota": 12, "weights": [4, 4, 4, 2, 2, 1]}'
    python3 bench/probe.py cli '["weight", "a b | c", "--method", "all"]'

Prints the seconds from just before the import to the end of the op.
``run.py`` starts this several times and reports the median as ``setup_s``.
"""

import json
import sys
import time


def main() -> int:
    kind, arg = sys.argv[1], json.loads(sys.argv[2])
    start = time.perf_counter()
    import ops

    if kind == "analyze":
        ops.analyze(ops.VotingSystem(arg["quota"], tuple(arg["weights"])))
    else:
        code, _, err = ops.run_cli(arg)
        if code != 0:
            print(f"warm-up op exited {code}: {err}", file=sys.stderr)
            return 1
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
