"""Benchmark of cobst end to end: one workload, one seed, one run.

    python3 benchmark/run.py --workload read-mostly --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: it builds the start state
in SETUP_RUNS fresh interpreters (the last of which then runs the
measured phase) and reports the median set-up time.  ``--trace 1`` runs
the traced process instead and reports the per-layer metrics.  Each
metric is printed by name with its unit; the last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details of the run go to ``benchmark/out/``.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("read-mostly", "update-heavy", "verify")
SETUP_RUNS = 5
DEADLINE_S = 170.0      # the whole command, all processes included

END_TO_END = {
    "throughput_per_ref_s": "1/ref_s",
    "latency_p50_ref_us": "ref_us",
    "latency_p99_ref_us": "ref_us",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class ChildFailed(Exception):
    pass


def child(args, mode: str, deadline: float, spans=None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--impl", args.impl]
    if spans:
        cmd += ["--spans", spans]
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise ChildFailed("no time left for a %s process" % mode)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s process ran past the deadline" % mode) from None
    if proc.returncode != 0:
        raise ChildFailed("%s process exited with %d:\n%s"
                          % (mode, proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--impl", choices=("co-bst", "coarse-bst"), default="co-bst",
                   help="coarse-bst: reference figures only, not checked "
                        "against any bound")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.trace and args.impl != "co-bst":
        p.error("the traced run wraps co-bst layers only")
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-%s-seed%d-trace%d"
                        % (args.workload, args.impl, args.seed, args.trace))
    try:
        if args.trace:
            res = child(args, "trace", deadline, spans=stem + ".spans.jsonl")
            metrics = res["layers"]
        else:
            setups = [child(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
            res = child(args, "measure", deadline)
            setups.append(res["setup_s"])
            res["setup_runs_s"] = setups
            res["setup_s"] = statistics.median(setups)
            metrics = {k: {"value": res[k], "unit": u}
                       for k, u in END_TO_END.items()}
    except ChildFailed as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1

    correct = not res["problems"] and res["failed"] == 0
    with open(stem + ".json", "w") as fh:
        json.dump(dict(res, correct=correct, metrics=metrics), fh, indent=1)
    for name, m in metrics.items():
        print("%-42s %16.6g %s" % (name, m["value"], m["unit"]))
    if "raw_units_per_s" in res:
        print("%-42s %16.6g %s" % ("(raw units per wall second)",
                                   res["raw_units_per_s"], "1/s"))
    print("attempted %d, failed %d" % (res["attempted"], res["failed"]))
    for prob in res["problems"]:
        print("CHECK FAILED: %s" % prob)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
