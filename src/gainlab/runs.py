"""Bounded sorted runs of a search's rendered rows.

The CLI prints a search or hunt in output order without holding its
reports.  SortedRows is the scan's sink: it renders each row once, holds
at most RUN_BYTES of row text, and past that sorts the rows it holds and
spills them as one run to an anonymous temporary file.  It reads the
runs back in output order with heapq.merge, one block of each run at a
time.  A row is the fields of its search._ORDER key, plain numbers that
marshal stores as is, followed by its text.  Only search and hunt load
this module, so that other commands do not compile it.
"""

from __future__ import annotations

import os
from itertools import chain, islice

from .gains import GainReport, Solution

# Row text held in memory (1 MiB) before the rows held are sorted and
# spilled to the temporary file as one run.
RUN_BYTES = 1 << 20
# Blocks per spilled run: the merge holds one block of each run at a time.
RUN_BLOCKS = 64
# Pairs the scan hands over before their rows are rendered.
RENDER_ROWS = 128
# Rows per batch that batches() gives: one write each, as stdout may be
# unbuffered (a syscall a write).
WRITE_ROWS = 64


class SortedRows:
    """A search's rendered rows, held in bounded sorted runs, read back in order.

    add is the scan's sink.  It takes (solution, report) pairs in batches of
    RENDER_ROWS, renders each row text once, as render(s, g), and holds
    (*key((s, g)), text), where key is the mode's search._ORDER.  Once the
    held text passes RUN_BYTES, the held rows are sorted and appended to one
    anonymous temporary file (in TMPDIR) as a run of RUN_BLOCKS marshal
    blocks.  batches() gives every row, in key order, in lists of
    WRITE_ROWS.  Keys are unique, so a text is never compared.
    """

    def __init__(self, key, render):
        self._key, self._render = key, render
        self._pending: list[tuple[Solution, GainReport]] = []
        self._held: list[tuple] = []
        self._size = self._spilled = 0
        self._file = None
        self._runs: list[list[int]] = []  # each run's block offsets, and its end

    def __len__(self) -> int:
        return self._spilled + len(self._held) + len(self._pending)

    def add(self, item: tuple[Solution, GainReport]) -> None:
        self._pending.append(item)
        if len(self._pending) == RENDER_ROWS:
            self._hold()

    def _hold(self) -> None:
        # Rendering a batch of rows at a time, not one row between two steps
        # of the scan, ran the survey box about 9% faster in-process.
        key, render, held = self._key, self._render, self._held
        for item in self._pending:
            text = render(*item)
            held.append((*key(item), text))
            self._size += len(text)
            if self._size > RUN_BYTES:
                self._spill()
                held = self._held
        self._pending = []

    def _spill(self) -> None:
        import marshal
        import tempfile

        if self._file is None:
            self._file = tempfile.TemporaryFile()
        held = self._held
        held.sort()
        step = -(-len(held) // RUN_BLOCKS)
        offsets = [self._file.tell()]
        for i in range(0, len(held), step):
            # Version 2 keeps no back-references, which rows never share; it
            # writes and reads them faster than the default.
            block = marshal.dumps(held[i:i + step], 2)
            offsets.append(offsets[-1] + self._file.write(block))
        self._runs.append(offsets)
        self._spilled += len(held)
        self._held, self._size = [], 0

    def batches(self):
        """Every row, in key order, in lists; first renders and sorts what is held."""
        self._hold()
        rows = self._held
        rows.sort()
        if self._runs:
            import marshal
            from heapq import merge

            self._file.flush()
            fd = self._file.fileno()
            runs = [
                chain.from_iterable(
                    marshal.loads(os.pread(fd, end - start, start)) for start, end in zip(o, o[1:])
                )
                for o in self._runs
            ]
            rows = merge(rows, *runs)
        rows = iter(rows)
        return iter(lambda: list(islice(rows, WRITE_ROWS)), [])

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

