"""cobst: a concurrent integer set with conditionally locked optimistic
BST operations, plus the machinery to prove it behaves.

The set itself lives in ``ConcurrentSet``; ``SequentialBst`` is the
single-threaded reference it is tested against.  ``history`` records and
checks linearizability, ``harness`` replays deterministic schedules and
exhaustively explores tiny scenarios, and ``bench`` measures throughput.
"""

from .concurrent_set import ConcurrentSet, OpOutcome
from .history import (History, HistoryEvent, HistoryRecorder,
                      HistoryTooLargeError, check_observable_correctness,
                      emit_history, is_linearizable, parse_history,
                      set_type_step)
from .harness import (SETUP_THREAD, ExplorationBoundError, ExplorationReport,
                      RunReport, ScheduleBlockedError, ScheduleScript,
                      ScriptError, emit_script, explore_small, parse_script,
                      run_script)
from .rwlock import CondRwLock, LockMode, LockOutcome, SpinPolicy
from .tree_core import (PLUS_INF, Node, SequentialBst, traverse, validate_key,
                        validate_structure)

__version__ = "0.1.0"

__all__ = [
    "ConcurrentSet", "OpOutcome", "SequentialBst", "Node",
    "CondRwLock", "LockMode", "LockOutcome", "SpinPolicy",
    "History", "HistoryEvent", "HistoryRecorder", "HistoryTooLargeError",
    "is_linearizable", "set_type_step", "check_observable_correctness",
    "emit_history", "parse_history",
    "ScheduleScript", "ScriptError", "ScheduleBlockedError",
    "ExplorationBoundError", "RunReport", "ExplorationReport", "SETUP_THREAD",
    "run_script", "explore_small", "parse_script", "emit_script",
    "PLUS_INF", "traverse", "validate_key", "validate_structure",
    "__version__",
]
