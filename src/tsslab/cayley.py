"""Cayley-table text format.

Line 1 holds the order n, lines 2..n+1 the table rows (row i, column j is the
index of element i * element j), then optional ``label <index> <string>``
lines.  Lines are cut at the first ``#``.  The writer emits exactly this
format, so write/parse round-trips are byte-identical modulo comments.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

import numpy as np

from .groups import FiniteGroup, GroupError, _order_cap, make_group, table_dtype


class CayleyTableError(GroupError):
    def __init__(self, message: str, line: Optional[int] = None,
                 row: Optional[int] = None, col: Optional[int] = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if row is not None:
            loc.append(f"row {row}")
        if col is not None:
            loc.append(f"column {col}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.line = line
        self.row = row
        self.col = col


# characters of document text that from_cayley_table reads per slab
_SLAB = 1 << 18


def from_cayley_table(text: str, name: str = "table-group") -> FiniteGroup:
    """Parse and validate a Cayley-table document.

    The document is read in slabs of about ``_SLAB`` characters, each cut
    after a line break and split by ``str.splitlines`` (``_slabs``): the
    order line, then the row bodies of each slab, parsed by one
    ``np.loadtxt`` call into the preallocated table, then the label lines.
    Only one slab's lines exist at a time.  A slab whose rows ``np.loadtxt``
    rejects or is not given (an entry outside 0..n-1, a non-ASCII character)
    is read row by row, which names its first fault and takes every spelling
    ``int`` takes (``1_0``, full-width digits).  ``make_group`` then checks
    the table, as it checks every table from outside.
    """
    table, labels = _decode_slabs(text)
    try:
        return make_group(table, labels=labels, name=name)
    except CayleyTableError:
        raise
    except GroupError as exc:
        raise CayleyTableError(str(exc)) from exc


# where a slab may end: after a line break of str.splitlines, a carriage
# return only where it does not start a \r\n pair
_SLAB_END = re.compile(r"[\n\x0b\x0c\x1c-\x1e\x85\u2028\u2029]|\r(?!\n)")


def _slabs(text: str) -> Iterator[list[tuple[int, str]]]:
    """The document in slabs of about ``_SLAB`` characters, each as the (line
    number, body) of its lines whose body, the text before any ``#``, is not
    blank.  A slab is cut after the first line break (``_SLAB_END``) at or
    after ``_SLAB - 1`` characters: ``str.splitlines`` of the whole text cuts
    there too, so the lines and their numbers are the same."""
    lineno = pos = 0
    while pos < len(text):
        end = _SLAB_END.search(text, pos + _SLAB - 1)
        cut = end.end() if end else len(text)
        bodies = []
        for lineno, line in enumerate(text[pos:cut].splitlines(), start=lineno + 1):
            body = line.partition("#")[0]
            if body and not body.isspace():
                bodies.append((lineno, body))
        yield bodies
        pos = cut


def _decode_slabs(text: str) -> tuple[np.ndarray, Optional[list[str]]]:
    """The table and labels of a document read slab by slab; raises
    ``CayleyTableError`` naming the first fault: the order line (the order
    cap included), then too few rows, then the first bad row, then the label
    lines.  A bad row is raised once every row is counted, and the table is
    allocated only when the text can hold it."""
    n = table = fault = labels = None
    r = 0
    for bodies in _slabs(text):
        if n is None:
            if not bodies:
                continue
            lineno, head = bodies[0][0], bodies[0][1].split()
            if len(head) != 1 or not head[0].isdecimal():
                raise CayleyTableError("first line must hold the group order", line=lineno)
            n = int(head[0])
            if n < 1:
                raise CayleyTableError("group order must be >= 1", line=lineno)
            try:
                _order_cap("the table", n)
            except GroupError as exc:
                raise CayleyTableError(str(exc), line=lineno) from None
            # n rows of n entries take at least n(2n - 1) characters, so the
            # table allocated before they are read is no larger than the text;
            # a shorter text has a short row or too few rows
            if len(text) >= n * (2 * n - 1):
                table = np.empty((n, n), dtype=table_dtype(n))
            bodies = bodies[1:]
        rows = bodies[:n - r]
        if rows and fault is None:
            try:
                block = _parse_block([body for _, body in rows], n)
                if block is None:
                    block = [_parse_row(body.split(), n, line, i)
                             for i, (line, body) in enumerate(rows, start=r)]
                if table is not None:
                    table[r:r + len(rows)] = block
            except CayleyTableError as exc:
                fault = exc
        r += len(rows)
        if fault is None:
            labels = _parse_labels(bodies[len(rows):], n, labels)
    if n is None:
        raise CayleyTableError("empty table document")
    if r < n:
        raise CayleyTableError(f"expected {n} table rows, found {r}")
    if fault is not None:
        raise fault
    return table, labels


def _parse_labels(bodies: list[tuple[int, str]], n: int,
                  labels: Optional[list[str]]) -> Optional[list[str]]:
    """``labels`` (None before the first label line) with the label lines
    among ``bodies`` applied."""
    for lineno, body in bodies:
        toks = body.split()
        if toks[0] != "label" or len(toks) < 3:
            raise CayleyTableError(
                "trailing lines must be 'label <index> <string>'", line=lineno
            )
        try:
            idx = int(toks[1])
        except ValueError:
            raise CayleyTableError(f"bad label index {toks[1]!r}", line=lineno) from None
        if not (0 <= idx < n):
            raise CayleyTableError(f"label index {idx} out of range", line=lineno)
        if labels is None:
            labels = [str(i) for i in range(n)]
        labels[idx] = " ".join(toks[2:])
    return labels


def _parse_block(bodies: list[str], n: int) -> Optional[np.ndarray]:
    """Rows of n entries in one C-level parse, or None when some entry needs
    the row-by-row path: a ragged row, an entry outside 0..n-1, or a spelling
    that ``np.loadtxt`` does not read.

    Only ASCII rows reach ``np.loadtxt``: on numpy 2.4 a long run of calls
    on rows holding characters above U+FFFF crashed the interpreter.
    """
    if not all(map(str.isascii, bodies)):
        return None
    try:
        table = np.loadtxt(bodies, dtype=table_dtype(n), ndmin=2)
    except (ValueError, OverflowError):
        return None
    if table.shape != (len(bodies), n) or table.min() < 0 or table.max() >= n:
        return None
    return table


def _parse_row(toks: list[str], n: int, lineno: int, r: int) -> list[int]:
    """Parse a row token by token, naming the first bad entry."""
    if len(toks) != n:
        raise CayleyTableError(f"expected {n} entries, found {len(toks)}", line=lineno, row=r)
    entries = []
    for c, tok in enumerate(toks):
        try:
            v = int(tok)
        except ValueError:
            raise CayleyTableError(
                f"non-integer entry {tok!r}", line=lineno, row=r, col=c
            ) from None
        if not (0 <= v < n):
            raise CayleyTableError(
                f"entry {v} out of range 0..{n - 1}", line=lineno, row=r, col=c
            )
        entries.append(v)
    return entries


# entries per block of rows that to_cayley_table encodes at once
_ENCODE_BLOCK = 1 << 18


def to_cayley_table(g: FiniteGroup) -> str:
    """Serialize a group in the canonical table format.

    Each entry becomes a fixed-width token, ``"v "`` or, in the last column,
    ``"v\\n"``, NUL-padded to the width of the longest.  A block of about
    ``_ENCODE_BLOCK`` entries is gathered from the tokens, taken as bytes,
    stripped of the padding and decoded once, so no per-entry string is made.
    """
    n = g.order
    width = len(str(n - 1)) + 1
    digits = [str(v) for v in range(n)]
    inner = np.array([d + " " for d in digits], dtype=f"S{width}")
    last = np.array([d + "\n" for d in digits], dtype=f"S{width}")
    parts = [f"{n}\n"]
    step = max(1, _ENCODE_BLOCK // n)
    for lo in range(0, n, step):
        rows = g.table[lo:lo + step]
        tokens = inner.take(rows)
        tokens[:, -1] = last[rows[:, -1]]
        parts.append(tokens.tobytes().replace(b"\0", b"").decode("ascii"))
    if g.labels is not None:
        parts += [f"label {i} {lab}\n" for i, lab in enumerate(g.labels)]
    return "".join(parts)
