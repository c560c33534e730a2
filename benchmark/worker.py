"""One workload process, started by run.py in a fresh interpreter.

Times ``import cobst`` first, so that set-up time includes it, then builds
the start state and, unless ``--mode setup``, runs the measured (or
traced) phase.  Prints one JSON object on its last line of output.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--impl", choices=("co-bst", "coarse-bst"), default="co-bst")
    p.add_argument("--spans", help="trace mode: file for the raw spans")
    args = p.parse_args()

    from refclock import RefClock
    ref = RefClock()
    ref.start()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import cobst
    import_s = (time.perf_counter() - t0) * ref.factor()
    if not os.path.abspath(cobst.__file__).startswith(SRC + os.sep):
        print("cobst was imported from %s, not from %s" % (cobst.__file__, SRC),
              file=sys.stderr)
        return 2

    import workloads
    if args.mode == "setup":
        out = {"setup_s": import_s + workloads.setup_only(
            args.workload, args.seed, args.impl, ref)}
    elif args.mode == "measure":
        out = workloads.measure(args.workload, args.seed, args.seconds,
                                args.impl, import_s, ref)
    else:
        out = workloads.measure_traced(args.workload, args.seed, args.seconds,
                                       args.impl, ref, args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
