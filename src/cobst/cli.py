"""Command line front end.

Three subcommands:

* ``bench``   run one throughput measurement and print or append CSV
* ``check``   decide linearizability of a recorded history file
* ``replay``  execute a schedule script deterministically, report it and
              verify its structure, held locks, trace and linearizability

Exit codes: 0 on success (for ``check``: linearizable), 1 when the
verdict is negative (not linearizable, replay hit a violation) or a
bench worker raised, 2 on bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .bench import CSV_HEADER, IMPLS, RANGE_PRESETS, WorkerError, WorkloadConfig, run_bench
from .harness import ScheduleBlockedError, ScriptError, parse_script, run_script
from .history import (DEFAULT_MAX_OPS, HistoryTooLargeError, check_observable_correctness,
                      is_linearizable, parse_history)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cobst",
        description="concurrent BST set: benchmark, history checking, replay")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run one throughput measurement")
    b.set_defaults(run=_cmd_bench)
    b.add_argument("--impl", choices=IMPLS, default="co-bst")
    b.add_argument("--threads", type=int, default=1)
    b.add_argument("--range", dest="key_range", default=str(RANGE_PRESETS["small"]),
                   help="key range, a number or one of %s"
                        % "/".join(sorted(RANGE_PRESETS)))
    b.add_argument("--updates", type=int, default=20,
                   help="update percentage, split evenly insert/delete")
    b.add_argument("--duration-ms", type=int, default=10_000)
    b.add_argument("--warmup-ms", type=int, default=5_000)
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--no-prefill", action="store_true",
                   help="start from an empty set instead of half the range")
    b.add_argument("--csv", metavar="PATH",
                   help="append the result row to this CSV file")

    c = sub.add_parser("check", help="check a recorded history for linearizability")
    c.set_defaults(run=_cmd_check)
    c.add_argument("--history", required=True, metavar="FILE")
    c.add_argument("--initial", default="",
                   help="comma separated keys present before the history")
    c.add_argument("--max-ops", type=int, default=DEFAULT_MAX_OPS)

    r = sub.add_parser("replay", help="run a schedule script deterministically")
    r.set_defaults(run=_cmd_replay)
    r.add_argument("--script", required=True, metavar="FILE")
    r.add_argument("--kv", action="store_true",
                   help="also print machine readable key=value lines")
    r.add_argument("--no-check", action="store_true",
                   help="skip the linearizability check of the recorded history")
    return p


def _cmd_bench(args) -> int:
    raw = args.key_range
    key_range = RANGE_PRESETS.get(raw)
    if key_range is None:
        try:
            key_range = int(raw)
        except ValueError:
            print("bad --range %r" % (raw,), file=sys.stderr)
            return 2
    cfg = WorkloadConfig(
        impl=args.impl, threads=args.threads, key_range=key_range,
        update_pct=args.updates, duration_ms=args.duration_ms,
        warmup_ms=args.warmup_ms, seed=args.seed,
        prefill=not args.no_prefill)
    try:
        cfg.validate()
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    try:   # before the run, so a bad path costs no benchmark
        fh = (open(args.csv, "a", encoding="utf-8") if args.csv
              else contextlib.nullcontext())
    except OSError as e:
        print("cannot write --csv: %s" % e, file=sys.stderr)
        return 2
    with fh:
        try:
            result = run_bench(cfg)
        except WorkerError as e:
            print("bench failed: %s" % e, file=sys.stderr)
            return 1
        print(result)
        if args.csv:
            if fh.tell() == 0:
                fh.write(CSV_HEADER + "\n")
            fh.write(result.csv_row() + "\n")
    return 0


def _cmd_check(args) -> int:
    try:
        with open(args.history, encoding="utf-8") as fh:
            hist = parse_history(fh.read())
    except OSError as e:
        print("cannot read history: %s" % e, file=sys.stderr)
        return 2
    except ValueError as e:
        print("bad history: %s" % e, file=sys.stderr)
        return 2
    initial = frozenset()
    if args.initial.strip():
        try:
            initial = frozenset(int(t) for t in args.initial.split(","))
        except ValueError:
            print("bad --initial, expected comma separated ints", file=sys.stderr)
            return 2
    try:
        res = is_linearizable(hist, initial, max_ops=args.max_ops)
    except HistoryTooLargeError as e:
        print("refused: %s" % e, file=sys.stderr)
        return 2
    print(res)
    return 0 if res.ok else 1


def _cmd_replay(args) -> int:
    try:
        with open(args.script, encoding="utf-8") as fh:
            script = parse_script(fh.read())
    except OSError as e:
        print("cannot read script: %s" % e, file=sys.stderr)
        return 2
    except (ScriptError, UnicodeDecodeError) as e:
        print("bad script: %s" % e, file=sys.stderr)
        return 2
    try:
        report = run_script(script)
    except (ScriptError, ScheduleBlockedError) as e:
        print("replay failed: %s" % e, file=sys.stderr)
        return 2
    print(report)
    rc = 0 if report.structure.ok else 1
    if not report.locks_clean:
        print("locks left held: %d" % report.structure.held_locks)
        rc = 1
    obs = check_observable_correctness(report.trace)
    if not obs.ok:
        print(obs)
        rc = 1
    if not args.no_check:
        try:
            res = is_linearizable(report.history)
        except HistoryTooLargeError as e:
            print("history check skipped: %s" % e)
        else:
            print("LINEARIZABLE" if res.ok else str(res))
            if not res.ok:
                rc = 1
    if args.kv:
        for line in report.kv_lines():
            print(line)
    return rc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
