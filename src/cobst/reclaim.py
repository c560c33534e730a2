"""Epoch-based reclamation for unlinked tree nodes in stepped schedules.

A node that has been marked deleted and physically unlinked may still be
referenced by operations whose traversal started before the unlink.
The harness therefore pins the epoch for each operation it steps,
stepped deletes retire what they unlink, nodes are bucketed by the
epoch of their retirement, and a bucket is reclaimed only once the
global epoch has advanced twice past it, which implies every operation
that could have seen the node has finished.  An ``unpin`` while a node
waits advances the epoch if every pinned thread has caught up with it.

The reclaimer is single-threaded and takes no lock.  Only the stepping
form retires, and one real thread at a time steps it (see
``ConcurrentSet.op_gen``), so no two of ``pin``, ``unpin``, ``retire``
and ``try_advance`` ever run at once.

Reclaiming a node poisons its child pointers, which is its only mark,
so any buggy late access blows up loudly instead of silently wandering
through freed structure.  Memory is freed once the last reference
drops; real-thread operations neither pin nor retire and rely on that.
"""

from __future__ import annotations

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
        """Advance the epoch if every pinned thread has caught up, then
        reclaim each bucket at least ``_GRACE`` epochs old; False if a pin
        lags, and the next ``unpin`` tries again."""
        e = self.epoch
        if any(p != e for p in self._pins.values()):
            return False
        self.epoch = e + 1
        horizon = e + 1 - _GRACE
        for ep in [ep for ep in self._buckets if ep <= horizon]:
            for node in self._buckets.pop(ep):
                self._reclaim(node)
        return True

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
