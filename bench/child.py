"""One pass of the benchmark in a fresh interpreter.

Usage: python3 bench/child.py PASS SPAWN_TIME ARGS_JSON

SPAWN_TIME is the parent's time.time() just before it started this process,
so set-up time runs from process start until numpy and pcg are imported.
Prints one JSON object (the pass result plus pass_s, setup_s and
peak_rss_mb) as the last line of standard output.  PASS "setup" imports and
returns at once.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    name, spawn_time, args = argv[1], float(argv[2]), json.loads(argv[3])
    import passes  # imports numpy and pcg
    setup_s = time.time() - spawn_time
    t0 = time.perf_counter()
    out = {} if name == "setup" else passes.PASSES[name](args)
    out["pass_s"] = time.perf_counter() - t0
    out["setup_s"] = setup_s
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
