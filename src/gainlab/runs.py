"""Bounded sorted runs of a search's rendered rows.

The CLI prints a search or hunt in output order without holding its
reports.  SortedRows is the scan's sink: it renders each row once, holds
at most RUN_BYTES of row text, and past that sorts the rows it holds and
spills them as one run to an anonymous temporary file.  It reads the
runs back, one block of each at a time, in output order.  A row is its
sort key in plain numbers, which marshal stores as is, followed by its
text; the key orders rows as search._ORDER orders their reports.  Only
search and hunt load this module, so that other commands do not compile
it.
"""

from __future__ import annotations

import os
from math import inf

from .bigmath import CTX, LN_PRECISION
from .gains import GainReport, Solution

# Row text held in memory (1 MiB) before the rows held are sorted and
# spilled to the temporary file as one run.
RUN_BYTES = 1 << 20
# Blocks per spilled run: the merge holds one block of each run at a time.
RUN_BLOCKS = 64
# Pairs the scan hands over before their rows are rendered.
RENDER_ROWS = 128
# Rows per batch of a result that never spilled: one write each, as stdout
# may be unbuffered (a syscall a write).
WRITE_ROWS = 256


# A report's q as one exact int: its adjusted exponent times this, plus its
# coefficient scaled to LN_PRECISION digits (which stays below this).
_Q_SCALE = 10 ** LN_PRECISION


def hunt_row(s: Solution, g: GainReport, text: str) -> tuple:
    """A hunt's row: its sort key in numbers a spilled run stores as is, then text.

    The key orders as search._hunt_order.  q is positive with at most
    LN_PRECISION digits, as a report's q is, so its adjusted exponent e
    and its coefficient scaled to LN_PRECISION digits, c, give
    e * _Q_SCALE + c, which rises with q exactly; it is negated for best
    quality first.  inf puts a partial report after every q.  The canonical
    key breaks ties.
    """
    q = g.q
    if q is None:
        return (inf, *s.canonical_key(), text)
    e = q.adjusted()
    return (-e * _Q_SCALE - int(q.scaleb(LN_PRECISION - 1 - e, CTX)), *s.canonical_key(), text)


def search_row(s: Solution, g: GainReport, text: str) -> tuple:
    """A search's row: its canonical key, as search._ORDER's, then text."""
    return (*s.canonical_key(), text)


class SortedRows:
    """A search's rendered rows, held in bounded sorted runs, read back in order.

    add is the scan's sink.  It takes (solution, report) pairs in batches of
    RENDER_ROWS, renders each row text once, as render(s, g), and holds
    row(s, g, text), the fields of the row's sort key followed by its text.
    Once the held text passes RUN_BYTES, the held rows are sorted and
    appended to one anonymous temporary file (in TMPDIR) as a run of
    RUN_BLOCKS marshal blocks.  batches() gives every row, in key order, in
    lists.  Keys are unique, so a text is never compared.
    """

    def __init__(self, row, render):
        self._row, self._render = row, render
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
        row, render, held = self._row, self._render, self._held
        for s, g in self._pending:
            text = render(s, g)
            held.append(row(s, g, text))
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
        held = self._held
        held.sort()
        if not self._runs:
            return (held[i:i + WRITE_ROWS] for i in range(0, len(held), WRITE_ROWS))
        import marshal

        self._file.flush()
        fd = self._file.fileno()
        runs = [
            (marshal.loads(os.pread(fd, end - start, start)) for start, end in zip(o, o[1:]))
            for o in self._runs
        ]
        return _merged(runs + [iter([held])])

    def close(self) -> None:
        if self._file is not None:
            self._file.close()


def _merged(runs):
    """Merge runs, each an iterator over sorted blocks of unique rows, in sorted batches.

    No unread row precedes bound, the least last row of the runs' current
    blocks, so each batch takes every current row up to it and sorts them
    together; the run whose block ends at bound moves to its next block.
    One heap holds each run's last row, to find bound, and one each run's
    next row, so that a batch visits only the runs with a row to give.
    """
    from bisect import bisect_right
    from heapq import heapify, heappop, heappush, heapreplace

    heads, lasts, nexts = [], [], []
    for run in runs:
        block = next(run, None)
        if block:
            lasts.append((block[-1], len(heads)))
            nexts.append((block[0], len(heads)))
            heads.append([block, 0, run])
    heapify(lasts)
    heapify(nexts)
    while lasts:
        bound, ending = lasts[0]
        batch = []
        while nexts and nexts[0][0] <= bound:
            i = heappop(nexts)[1]
            head = heads[i]
            block, start = head[0], head[1]
            if i != ending:
                end = bisect_right(block, bound, start)
                batch += block[start:end]
                head[1] = end
                heappush(nexts, (block[end], i))
                continue
            batch += block[start:]
            block = next(head[2], None)
            if block:
                head[:2] = block, 0
                heapreplace(lasts, (block[-1], i))
                heappush(nexts, (block[0], i))
            else:
                heappop(lasts)
        batch.sort()
        yield batch
