"""Epoch-based reclamation for unlinked tree nodes in stepped schedules.

A node that has been marked deleted and physically unlinked may still be
referenced by operations whose traversal started before the unlink.
The harness therefore pins the epoch for each operation it steps,
stepped deletes retire what they unlink, nodes are bucketed by the
epoch of their retirement, and a bucket is reclaimed only once the
global epoch has advanced twice past it, which implies every operation
that could have seen the node has finished.  An ``unpin`` while a node
waits advances the epoch if every pinned thread has caught up with it.

Reclaiming a node poisons its child pointers, which is its only mark,
so any buggy late access blows up loudly instead of silently wandering
through freed structure.  Memory is freed once the last reference
drops; real-thread operations neither pin nor retire and rely on that.
"""

from __future__ import annotations

import threading

__all__ = ["EpochReclaimer", "POISON"]


class _Poison:
    def __repr__(self):
        return "<poison: reclaimed node>"


POISON = _Poison()

_GRACE = 2  # epochs a retired node must age before reclamation


class EpochReclaimer:

    def __init__(self):
        self.epoch = 0
        self._pins: dict = {}          # thread key -> epoch pinned at
        self._buckets: dict = {}       # retirement epoch -> [nodes]
        self._advance_guard = threading.Lock()
        self.reclaimed_count = 0

    # -- per-operation protocol -----------------------------------------

    def pin(self, tkey) -> None:
        self._pins[tkey] = self.epoch

    def unpin(self, tkey) -> None:
        del self._pins[tkey]
        if self._buckets:
            self.try_advance()

    def retire(self, node) -> None:
        """File a node marked deleted and unlinked in the same step under
        the current epoch; advancing is left to the caller's ``unpin``.

        Safe to call while still holding the unlinking locks: the caller
        is pinned, so the node cannot age out before the caller finishes.
        """
        assert node.deleted, "retire() on a node not marked deleted"
        self._buckets.setdefault(self.epoch, []).append(node)

    # -- epoch machinery --------------------------------------------------

    def try_advance(self) -> bool:
        """Advance the epoch if every pinned thread has caught up.

        Non-blocking: if another thread is mid-advance we just skip; the
        next ``unpin`` tries again.
        """
        if not self._advance_guard.acquire(blocking=False):
            return False
        try:
            e = self.epoch
            # list() snapshots concurrently mutating pins; a pin that
            # appears mid-check pinned at e or later, never earlier
            if any(p != e for p in list(self._pins.values())):
                return False
            self.epoch = e + 1
            self._sweep()
            return True
        finally:
            self._advance_guard.release()

    def _sweep(self) -> None:
        horizon = self.epoch - _GRACE
        # list() snapshots the keys: a retire on another thread may add
        # the bucket of the epoch just entered while the filter runs
        for ep in [ep for ep in list(self._buckets) if ep <= horizon]:
            for node in self._buckets.pop(ep):
                self._reclaim(node)

    def _reclaim(self, node) -> None:
        node.left = node.right = POISON
        self.reclaimed_count += 1

    def drain(self) -> int:
        """Quiescent-only: reclaim everything retired so far."""
        assert not self._pins, "drain() while operations are still pinned"
        before = self.reclaimed_count
        for _ in range(_GRACE + 1):
            self.try_advance()
        return self.reclaimed_count - before

    def pending(self) -> int:
        return sum(len(b) for b in self._buckets.values())
