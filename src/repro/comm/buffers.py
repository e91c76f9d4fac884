"""Reusable staging buffers for gather/halo assembly and halo send strips.

A region exchange allocates an extended array per call (local shard + halo
cells); on the training hot path this means two large allocations per
convolution per step.  A :class:`BufferPool` recycles
those buffers across steps.

The pool is deliberately conservative about aliasing.  Two reuse
disciplines are supported:

* **Immediate** (:meth:`give`): for *receive/assembly* buffers, which never
  cross the communication boundary — safe to recycle as soon as the caller
  is done reading them.
* **Deferred** (:meth:`give_deferred`): for *send* staging buffers.  With
  zero-copy sends, the mailbox (and briefly the receiver) holds a read-only
  view of the staged strip, so the buffer may only be recycled once that
  view is no longer referenced anywhere else.  The pool tracks the sent
  view and reclaims the backing buffer on a later :meth:`take` once its
  refcount shows every other holder has dropped it (on runtimes without
  prompt refcounting this simply degrades to never reusing send strips —
  correct, just less recycling).
"""

from __future__ import annotations

import sys
import threading

import numpy as np


class BufferPool:
    """A small free-list of ndarrays keyed by (shape, dtype).

    ``take`` returns a matching buffer with *unspecified contents* (the
    caller must fill it); ``give`` returns a buffer for reuse.  Thread-safe;
    one pool per layer/rank is typical, but sharing is harmless.
    """

    def __init__(self, max_buffers_per_key: int = 2) -> None:
        self._free: dict[tuple[tuple[int, ...], np.dtype], list[np.ndarray]] = {}
        self._lock = threading.Lock()
        self._max = max_buffers_per_key
        #: (sent read-only view, backing buffer) pairs awaiting reclamation.
        self._sent: list[tuple[np.ndarray, np.ndarray]] = []
        self.hits = 0
        self.misses = 0

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (tuple(int(s) for s in shape), np.dtype(dtype))
        with self._lock:
            self._reap_sent()
            stack = self._free.get(key)
            if stack:
                self.hits += 1
                return stack.pop()
            self.misses += 1
        return np.empty(key[0], dtype=key[1])

    def give(self, arr: np.ndarray | None) -> None:
        if arr is None or not isinstance(arr, np.ndarray):
            return
        if not (arr.flags.c_contiguous and arr.flags.writeable and arr.base is None):
            return  # only whole, owned, writable buffers are safe to recycle
        with self._lock:
            self._give_locked(arr)

    def give_deferred(self, arr: np.ndarray, sent_view: np.ndarray) -> None:
        """Schedule ``arr`` for reuse once ``sent_view`` (the read-only view
        of it handed to a zero-copy send) is dropped by the communication
        layer and the receiver.  Safe to call right after the send.

        ``sent_view`` must be the *exact* frozen object that crossed the
        communication boundary: read-only (so ``_freeze`` forwards it
        unchanged instead of minting another view the pool cannot see) and
        directly backed by ``arr``.  Violations are rejected, not repaired —
        recycling on a stale refcount would let a later ``take`` overwrite a
        strip a slow peer has not yet read.
        """
        if not (arr.flags.c_contiguous and arr.flags.writeable and arr.base is None):
            return
        if sent_view.flags.writeable or sent_view.base is not arr:
            return
        with self._lock:
            self._sent.append((sent_view, arr))

    def _give_locked(self, arr: np.ndarray) -> None:
        key = (arr.shape, arr.dtype)
        stack = self._free.setdefault(key, [])
        if len(stack) < self._max:
            stack.append(arr)

    def _reap_sent(self) -> None:
        """Reclaim send buffers whose sent views have been fully consumed.

        A view still traveling is referenced by the mailbox queue (or by a
        receiver copying it out); once only the pool's own bookkeeping holds
        it, recycling the backing buffer cannot alias in-flight data.
        Reference counts for the view at check time: the ``entry`` tuple,
        and the ``getrefcount`` argument itself — anything beyond 2 means an
        external holder remains.  Called with the lock held.
        """
        if not self._sent:
            return
        still_out = []
        for entry in self._sent:
            if sys.getrefcount(entry[0]) > 2:
                still_out.append(entry)
            else:
                self._give_locked(entry[1])
        self._sent = still_out

    def clear(self) -> None:
        with self._lock:
            self._free.clear()
            self._sent.clear()

    def stats(self) -> tuple[int, int]:
        """(hits, misses) — how often ``take`` recycled vs allocated."""
        return self.hits, self.misses
