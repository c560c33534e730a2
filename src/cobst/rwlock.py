"""Conditional read-write locks, each a single int word.

A lock's state lives in one integer word:

* ``0``      free
* ``1``      held by a writer
* ``2 * k``  held by ``k`` readers

A word is an int slot of the object it guards.  ``CondRwLock`` has one,
``word``; a subclass such as ``tree_core.Node`` adds more, and each lock
method names its slot in a trailing ``field`` argument, so a node's
three locks are three slots, not three objects to allocate and track.

Acquisitions are compare-and-swap steps on that word (0 -> 1 for a
write, even w -> w + 2 for a read), and a read release is a
decrement.  Each is one read-modify-write: the method branches on
``field`` first, then reads the slot by attribute, computes the new
word and stores it, with no call, function entry or jump in between
(a failed CAS stores the word back as it read it).  CPython 3.10 and
later, with the GIL, switch threads only at such points, so nothing
else runs between the read and the store; a test walks the bytecode of
every such span.  An attempt fails only on a word held in a mode that
excludes it.  A write release is a plain store of 0: while the word is
1 every CAS leaves it 1, so no other thread changes the word until
that store lands.

CPython 3.9 could switch almost anywhere and is not supported; a
free-threaded build runs threads in parallel, so import fails there.

On top of the word the lock offers conditional acquisition: a predicate
is evaluated before and after the CAS, and the lock is released again
if the second evaluation fails.  Callers use this to take a lock only
while some observed field value still holds.  It is called as
``condition(node, expected)``, or ``condition()`` without a ``node``,
so callers pass a module function and its arguments, not a closure.

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

    ``ATTEMPTS`` caps how many CAS attempts are made before the caller
    gives up and restarts from scratch.  Between attempts ``sleep(0)``
    yields the GIL, the only way the holder can run.  A timed sleep would
    stretch the hold times of the locks the caller may hold by orders of
    magnitude, turning transient collisions into stable livelock, so
    patience belongs at the restart level, where nothing is held.
    Condition violations are never retried.
    """

    ATTEMPTS = 8

    @staticmethod
    def pause(round_: int) -> None:
        time.sleep(0)


class CondRwLock:
    """The lock word ``word``, and the lock protocol on it, on a subclass's
    ``left_word``, or on its ``right_word``, which any other field picks."""

    __slots__ = ("word",)

    def __init__(self):
        self.word = 0

    def unlock(self, mode: LockMode, field: str = "word") -> None:
        if mode is WRITE:
            assert getattr(self, field) == 1, "write unlock without a held write lock"
            setattr(self, field, 0)
            return
        assert getattr(self, field) >= 2, "read unlock without a held read lock"
        if field == "word":
            self.word -= 2
        elif field == "left_word":
            self.left_word -= 2
        else:
            self.right_word -= 2

    def try_lock_with_condition(self, mode: LockMode, condition, node=None,
                                expected=None, field: str = "word") -> LockOutcome:
        """One conditional acquire attempt on the word ``field``.

        The predicate runs before the CAS (cheap fast-out while the value
        has already moved on) and again after a successful CAS.  The
        second check is the one that matters: between the first check and
        the acquire the world may change, but once the lock is held the
        guarded field can no longer move, so a passing re-check is
        definitive.  On a failed re-check the lock is released before
        returning, so CONDITION_VIOLATED and CONTENDED both leave nothing
        held.
        """
        if not (condition() if node is None else condition(node, expected)):
            return CONDITION_VIOLATED
        # a write needs 0 and adds 1, a read needs an even word and adds 2;
        # a busy word is stored back as read, so no jump splits the step
        busy, step = (-1, 1) if mode is WRITE else (1, 2)
        if field == "word":
            w = self.word
            self.word = w + step * (not w & busy)
        elif field == "left_word":
            w = self.left_word
            self.left_word = w + step * (not w & busy)
        else:
            w = self.right_word
            self.right_word = w + step * (not w & busy)
        if w & busy:
            return CONTENDED
        if not (condition() if node is None else condition(node, expected)):
            self.unlock(mode, field)
            return CONDITION_VIOLATED
        return ACQUIRED

    def lock_with_spin(self, mode: LockMode, condition, node=None,
                       expected=None, field: str = "word") -> LockOutcome:
        """Retry CONTENDED outcomes up to ``SpinPolicy.ATTEMPTS`` times.

        Returns the first non-contended outcome, or CONTENDED once the
        attempt budget is spent.  The caller is expected to restart its
        whole operation in that case rather than block.
        """
        out = self.try_lock_with_condition(mode, condition, node, expected, field)
        round_ = 0
        while out is CONTENDED and round_ + 1 < SpinPolicy.ATTEMPTS:
            SpinPolicy.pause(round_)
            round_ += 1
            out = self.try_lock_with_condition(mode, condition, node, expected,
                                               field)
        return out
