"""Reusable scratch buffers for the autograd hot path.

The conv/linear backward passes allocate the same large temporaries every
step — im2col column matrices, padded image planes, gradient-column
products.  :class:`BufferPool` keeps a small free-list of such arrays
keyed by ``(shape, dtype)`` so steady-state training reuses one set of
buffers instead of churning the allocator.  Training forwards draw their
outputs (matmul, conv, elementwise and activation results) from the same
pool; ``Tensor.backward`` reclaims them with the intermediate gradients.

Lifecycle rules (see ``docs/architecture.md`` → "Buffer lifecycle &
numeric policy"):

* ``acquire`` removes a buffer from the pool entirely — two concurrent
  users can never alias one buffer, even for identical shapes.
* ``release`` returns a buffer for reuse.  Callers release inside the
  backward closure (which :meth:`Tensor.backward` guarantees runs at most
  once) *after* every read of the buffer, or immediately on no-grad paths.
  A buffer whose closure never runs is simply garbage-collected with it —
  forgetting to release can never corrupt data, it only forgoes reuse.
* Pooled arrays are always handed to ``Tensor._accumulate`` with
  ``owned=False`` (the accumulator copies or adds; it never adopts them).
* The pool is **per-thread** module state.  It is never pickled and never
  part of a task payload, so buffers cannot cross the process wire; each
  backend worker grows its own pool.
* ``reset`` drops all free buffers; the simulation engine calls it at the
  top of every round so shape churn between rounds cannot pin memory.

The pool hands out ``np.empty`` storage: every consumer fully overwrites
the buffer (``out=`` ufuncs/einsums, ``np.copyto``, ``fill``) before any
read, so stale contents are unobservable and results stay bit-identical
to the allocating formulation.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["BufferPool", "scratch_pool"]


class BufferPool:
    """Free-list of reusable arrays keyed by ``(shape, dtype)``.

    ``max_per_key`` bounds how many free buffers are kept per key, so a
    pathological shape sequence cannot grow the pool without bound (the
    steady state of one training loop needs at most a couple of buffers
    per layer geometry).
    """

    def __init__(self, max_per_key: int = 32) -> None:
        self.max_per_key = int(max_per_key)
        self._free: Dict[Tuple[Tuple[int, ...], np.dtype], List[np.ndarray]] = {}

    def acquire(self, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialized array of the requested shape (reused when possible)."""
        key = (tuple(int(s) for s in shape), np.dtype(dtype))
        stack = self._free.get(key)
        if stack:
            return stack.pop()
        return np.empty(key[0], dtype=key[1])

    def release(self, buffer: np.ndarray) -> None:
        """Return ``buffer`` for reuse.

        Only whole owned arrays are pooled — views pass through to the
        garbage collector (their base may outlive them, and pooling a view
        could alias live data).
        """
        if buffer.base is not None or not buffer.flags.writeable:
            return
        key = (buffer.shape, buffer.dtype)
        stack = self._free.setdefault(key, [])
        if len(stack) < self.max_per_key and not any(b is buffer for b in stack):
            stack.append(buffer)

    def reset(self) -> None:
        """Drop every free buffer (outstanding acquired buffers are unaffected)."""
        self._free.clear()

    def free_bytes(self) -> int:
        """Total bytes currently held on free-lists (introspection/benchmarks)."""
        return sum(buf.nbytes for stack in self._free.values() for buf in stack)


class _PoolLocal(threading.local):
    pool = None


_POOL = _PoolLocal()


def scratch_pool() -> BufferPool:
    """The calling thread's shared scratch pool (created lazily)."""
    if _POOL.pool is None:
        _POOL.pool = BufferPool()
    return _POOL.pool
