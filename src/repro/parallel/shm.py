"""Zero-copy column transport between the parent and shard processes.

A :class:`SharedColumnStore` exports a dict of numpy columns into OS
shared memory (``multiprocessing.shared_memory``): numeric columns are
copied once into a segment and every shard process maps the same pages,
so handing a 1M-row partition to a worker costs a name string instead of
a pickled row list.  Object-dtype columns (strings) cannot live in a raw
buffer; they ride inline in the (picklable) handle instead — correct,
just not zero-copy.

Children must attach per task and close their mapping before returning
(:func:`attach_columns` hands back a ``close`` callback): pool processes
outlive tasks, and a lingering mapping keeps an unlinked segment's pages
alive for the pool's whole lifetime.

Any failure to allocate a segment raises
:class:`~repro.errors.SharedMemoryUnavailable`, which the cluster treats
as "run sequentially", never as an error.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..errors import SharedMemoryUnavailable

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None


class SharedColumnStore:
    """Columns exported to shared memory, owned by the parent process.

    ``handle()`` returns a small picklable description; pass it to
    :func:`attach_columns` inside a worker process.  The parent must call
    :meth:`close` (unmap + unlink) when every task using the store has
    finished.
    """

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        if _shared_memory is None:  # pragma: no cover
            raise SharedMemoryUnavailable("multiprocessing.shared_memory missing")
        self._segments: List = []
        self._handle: Dict[str, tuple] = {}
        try:
            for name, array in columns.items():
                array = np.ascontiguousarray(array)
                if array.dtype == object:
                    # Strings et al.: no buffer protocol — ship inline.
                    self._handle[name] = ("inline", array)
                    continue
                segment = _shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                self._segments.append(segment)
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=segment.buf
                )
                view[...] = array
                self._handle[name] = (
                    "shm",
                    segment.name,
                    array.shape,
                    array.dtype.str,
                )
        except SharedMemoryUnavailable:
            self.close()
            raise
        except Exception as exc:
            self.close()
            raise SharedMemoryUnavailable(
                f"could not export columns to shared memory: {exc}"
            ) from exc

    def handle(self) -> Dict[str, tuple]:
        """The picklable attachment descriptor for worker processes."""
        return self._handle

    def close(self) -> None:
        """Unmap and unlink every segment (idempotent).

        Unlink runs first and unconditionally per segment: even when a
        lingering exported buffer makes the unmap fail, no ``/dev/shm``
        name survives — the error paths between store creation and task
        submission must never leak a block.
        """
        for segment in self._segments:
            try:
                segment.unlink()
            except Exception:  # pragma: no cover - already gone
                pass
            try:
                segment.close()
            except Exception:  # pragma: no cover - exported buffer alive
                pass
        self._segments = []

    def __enter__(self) -> "SharedColumnStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_columns(
    handle: Dict[str, tuple],
) -> Tuple[Dict[str, np.ndarray], Callable[[], None]]:
    """Map a :meth:`SharedColumnStore.handle` inside a worker process.

    Returns ``(columns, close)``.  The arrays are views over the shared
    pages (inline columns excepted); the caller must copy anything it
    needs past ``close()`` and must call ``close()`` before the task
    returns.
    """
    if _shared_memory is None:  # pragma: no cover
        raise SharedMemoryUnavailable("multiprocessing.shared_memory missing")
    segments: List = []
    columns: Dict[str, np.ndarray] = {}
    for name, entry in handle.items():
        if entry[0] == "inline":
            columns[name] = entry[1]
            continue
        _, segment_name, shape, dtype = entry
        # Attaching re-registers the segment with the resource tracker;
        # pool children share the parent's tracker process, so that is a
        # set-level no-op and the parent's unlink balances the books —
        # no explicit unregister needed (or safe) here.
        segment = _shared_memory.SharedMemory(name=segment_name)
        segments.append(segment)
        columns[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)

    def close() -> None:
        columns.clear()
        for segment in segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover
                pass
        segments.clear()

    return columns, close
