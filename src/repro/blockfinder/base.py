"""Block finder interface.

A block finder answers "where might the next Deflate block start at or
after this bit offset?". Answers may be false positives — the architecture
above (cache keyed by offset, §3 of the paper) tolerates them — but must
never skip a *findable* block type, or chunk stitching degrades.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = ["BlockFinder", "NOT_FOUND", "scan_windows"]

#: Sentinel meaning "no candidate in the searched range".
NOT_FOUND = None

#: Bit positions covered by a finder's first vectorized pass (16 KiB).
#: The first real block header usually sits a few KiB past a chunk
#: boundary, so most searches end inside this window.
_FIRST_WINDOW_BITS = 16 * 1024 * 8


def scan_windows(position: int, limit: int, max_window_bytes: int):
    """Split the bit range ``[position, limit)`` into vectorized passes.

    Yields ``(start, end)`` bit ranges that tile the range in order. The
    first covers 16 KiB of positions; each later one doubles, up to
    ``max_window_bytes``. Finders stop iterating at their first hit, so a
    header a few KiB in costs one small pass, not a full-size one, and no
    pass reaches past ``limit`` (beyond the probe bytes a finder needs).
    """
    window = _FIRST_WINDOW_BITS
    while position < limit:
        end = min(limit, position + window)
        yield position, end
        position = end
        window = min(window * 2, max_window_bytes * 8)


class BlockFinder(ABC):
    """Abstract candidate generator over a bit stream."""

    @abstractmethod
    def find_next(self, bit_offset: int, until: int = None):
        """First candidate bit offset in ``[bit_offset, until)``, else None.

        ``until`` defaults to the end of the input. Implementations may be
        stateful for sequential efficiency but must support arbitrary
        restarts at any ``bit_offset``.
        """

    def iter_candidates(self, bit_offset: int = 0, until: int = None):
        """Yield candidates in ascending order starting at ``bit_offset``."""
        position = bit_offset
        while True:
            found = self.find_next(position, until)
            if found is None:
                return
            yield found
            position = found + 1
