"""Conditional read-write and edge locks in one int word.

A lock object has one int word, ``word``, which holds three locks:

* bits 1 and 2   two exclusive edge locks, each held while set
                 whatever mode is asked for
* bit 4          a writer of the read-write state lock
* ``8 * k``      ``k`` readers of the state lock

A ``tree_core.Node`` guards its state/deleted pair, the only lock with
readers, with the state lock and its left and right child edges with
the edge bits.  A lock method's trailing ``edge`` argument picks the
lock: 0 for the state lock, else the bit.

Acquisitions are compare-and-swap steps on the word (a clear edge bit
set, no state bits -> 4 for a write, no writer -> w + 8 for a read) and
releases undo them (``w & (-1 - edge)``, ``w & -5``, ``w + -8``),
leaving the other locks' bits as they were.  Each is one
read-modify-write: the step picks what it tests and adds by edge and
mode, then reads the word by attribute, computes the new word and
stores it, with no call, function entry or jump in between (a failed
CAS stores the word back as it read it; a release checks the word it
read after its store).  Where the set's plain twins paste a step, each
lock site fixes both choices: its mode is a module constant, and its
edge an item of a tuple of true bits or 0, so the paste tests nothing
about the lock's kind.  CPython 3.10 and later, with the GIL, switch
threads only at such points, so nothing else runs between the read and
the store; a test walks the bytecode of every such span, here and where
the set's plain twins paste the steps.  It allows only locals,
constants, ``+``, ``*``, ``&`` and ``not``, each its own opcode on
3.10, so ``-1 - edge`` is computed before the read.  An attempt fails
only on a lock held in a mode that excludes it.

CPython 3.9 could switch almost anywhere and is not supported; a
free-threaded build runs threads in parallel, so import fails there.

On top of the word the lock offers conditional acquisition: a predicate
is evaluated before and after the CAS, and the lock is released again
if the second evaluation fails.  Callers use this to take a lock only
while some observed field value still holds.  It is called as
``condition(lock, expected, edge)``, and the lock is the node it guards,
so callers pass a module function and its arguments, not a closure.
The steps ``unlock`` and ``try_lock_with_condition`` are module
functions that ``CondRwLock`` takes as methods, each ending in its only
``return``, so that the set's plain twins paste them and the condition;
the release after a failed re-check stays a method call.

The hot path reads the enum members as module constants (``READ``,
``WRITE``, ``ACQUIRED``, ``CONTENDED``, ``CONDITION_VIOLATED``), a
fraction of the cost of ``LockMode.WRITE`` on CPython 3.11.
"""

from __future__ import annotations

import sys
import time
from enum import Enum

__all__ = ["LockMode", "LockOutcome", "CondRwLock", "SpinPolicy"]

if not getattr(sys, "_is_gil_enabled", lambda: True)():
    raise ImportError("cobst needs the GIL, which makes its lock words atomic")


class LockMode(Enum):
    READ = "read"
    WRITE = "write"


class LockOutcome(Enum):
    """Result of a conditional lock attempt.

    ACQUIRED            lock is held and the condition held on both checks.
    CONTENDED           the word is held in a mode that excludes us; nothing
                        is held, the caller may retry or give up.
    CONDITION_VIOLATED  the guarding predicate failed before or after the
                        acquire; nothing is held and retrying is pointless
                        until the caller re-reads the world.
    """

    ACQUIRED = "acquired"
    CONTENDED = "contended"
    CONDITION_VIOLATED = "condition_violated"


READ, WRITE = LockMode                      # members in definition order
ACQUIRED, CONTENDED, CONDITION_VIOLATED = LockOutcome


class SpinPolicy:
    """Bounded retry policy for CONTENDED outcomes, each one a word that
    another thread really holds.

    ``ATTEMPTS`` caps how many CAS attempts are made, the caller's first
    one and ``lock_with_spin``'s retries, before the caller gives up and
    restarts from scratch.  Before each retry ``sleep(0)``
    yields the GIL, the only way the holder can run.  A timed sleep would
    stretch the hold times of the locks the caller may hold by orders of
    magnitude, turning transient collisions into stable livelock, so
    patience belongs at the restart level, where nothing is held.
    Condition violations are never retried.
    """

    ATTEMPTS = 8

    @staticmethod
    def pause() -> None:
        time.sleep(0)


def unlock(self, mode: LockMode, edge: int = 0) -> None:
    """Release the lock ``edge`` of ``self``, held in ``mode``."""
    if edge:
        keep = -1 - edge
        w = self.word
        self.word = w & keep
        assert w & edge, "edge unlock without a held edge lock"
    elif mode is WRITE:
        w = self.word
        self.word = w & -5
        assert w & -4 == 4, "write unlock without a held write lock"
    else:
        w = self.word
        self.word = w + -8
        assert w >= 8, "read unlock without a held read lock"


def try_lock_with_condition(self, mode: LockMode, condition, expected=None,
                            edge: int = 0) -> LockOutcome:
    """One conditional acquire attempt on the lock ``edge`` of ``self``.

    The predicate runs before the CAS (cheap fast-out while the value
    has already moved on) and again after a successful CAS.  The
    second check is the one that matters: between the first check and
    the acquire the world may change, but once the lock is held the
    guarded field can no longer move, so a passing re-check is
    definitive.  On a failed re-check ``self.unlock`` releases the lock
    before returning, so CONDITION_VIOLATED and CONTENDED both leave
    nothing held.
    """
    out = CONDITION_VIOLATED
    if condition(self, expected, edge):
        # an edge needs its bit clear and sets it, a write needs the state
        # bits (4 and up) clear and adds 4, a read needs no writer (4) and
        # adds 8; a busy word is stored back
        busy, step = (edge, edge) if edge else (-4, 4) if mode is WRITE else (4, 8)
        w = self.word
        self.word = w + step * (not w & busy)
        if w & busy:
            out = CONTENDED
        elif condition(self, expected, edge):
            out = ACQUIRED
        else:
            self.unlock(mode, edge)
    return out


class CondRwLock:
    """The state lock and two exclusive edge locks in the bits of one
    ``word``, with the lock protocol on them; ``edge`` picks one: 0 the
    state lock, 1 or 2 an edge."""

    __slots__ = ("word",)

    def __init__(self):
        self.word = 0

    unlock = unlock
    try_lock_with_condition = try_lock_with_condition

    def lock_with_spin(self, mode: LockMode, condition, expected=None,
                       edge: int = 0) -> LockOutcome:
        """Wait out an attempt that ended CONTENDED: pause, then retry, at
        most ``SpinPolicy.ATTEMPTS - 1`` times, so that with the caller's
        own first attempt the budget is ``ATTEMPTS`` attempts.

        Returns the first non-contended outcome, or CONTENDED once the
        budget is spent.  The caller is expected to restart its whole
        operation in that case rather than block.
        """
        out = CONTENDED
        for _ in range(SpinPolicy.ATTEMPTS - 1):
            SpinPolicy.pause()
            out = self.try_lock_with_condition(mode, condition, expected, edge)
            if out is not CONTENDED:
                break
        return out
