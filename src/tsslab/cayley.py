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

from .groups import DEFAULT_ORDER_CAP, FiniteGroup, GroupError, make_group, table_dtype


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
    after a ``\\n`` or a lone ``\\r`` and split by ``str.splitlines``
    (``_slabs``): the order line, then the row bodies of each slab, parsed by
    one ``np.loadtxt`` call into the preallocated table, then the label
    lines.  Only one slab's lines exist at a time.  A document that this path
    does not take (a bad order line, too few rows, a row that ``np.loadtxt``
    rejects or is not given: an entry outside 0..n-1, a non-ASCII character)
    is read again whole by ``_decode_whole``, which names its first fault; its
    row-by-row path takes every spelling ``int`` takes (``1_0``, full-width
    digits), so both paths accept the same tables.  Associativity is checked at every order up to the
    order cap, not only up to ``DEFAULT_ASSOC_CAP`` as for raw tables: a
    document comes from outside.
    """
    decoded = _decode_slabs(text)
    table, labels = decoded if decoded is not None else _decode_whole(text)
    try:
        return make_group(table, labels=labels, name=name, assoc_cap=DEFAULT_ORDER_CAP)
    except CayleyTableError:
        raise
    except GroupError as exc:
        raise CayleyTableError(str(exc)) from exc


# where a slab may end: after a newline, or after a carriage return that
# does not start a \r\n pair
_SLAB_END = re.compile(r"\n|\r(?!\n)")


def _slabs(text: str) -> Iterator[list[tuple[int, str]]]:
    """The document in slabs of about ``_SLAB`` characters, each as the (line
    number, body) of its lines whose body, the text before any ``#``, is not
    blank.  A slab is cut after the first ``\\n``, or ``\\r`` not followed
    by ``\\n``, at or after ``_SLAB - 1`` characters: ``str.splitlines`` of the
    whole text cuts there too, so the lines and their numbers are the same."""
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


def _decode_slabs(text: str) -> Optional[tuple[np.ndarray, Optional[list[str]]]]:
    """The table and labels of a document read slab by slab, or None when
    the order line is bad or above the order cap, a slab's rows need the
    row-by-row path, or rows are missing."""
    n = None
    labels: Optional[list[str]] = None
    for bodies in _slabs(text):
        if n is None:
            if not bodies:
                continue
            head = bodies[0][1].split()
            if len(head) != 1 or not head[0].isdecimal():
                return None
            n, r = int(head[0]), 0
            # n rows of n entries take at least n(2n - 1) characters, so the
            # table allocated before they are read is no larger than the text
            if not 1 <= n <= DEFAULT_ORDER_CAP or len(text) < n * (2 * n - 1):
                return None
            table = np.empty((n, n), dtype=table_dtype(n))
            bodies = bodies[1:]
        rows = [body for _, body in bodies[:n - r]]
        if rows:
            block = _parse_block(rows, n)
            if block is None:
                return None
            table[r:r + len(rows)] = block
            r += len(rows)
        labels = _parse_labels(bodies[len(rows):], n, labels)
    if n is None or r < n:
        return None
    return table, labels


def _decode_whole(text: str) -> tuple[np.ndarray, Optional[list[str]]]:
    """The table and labels of a document from all its lines at once; raises
    ``CayleyTableError`` naming the first fault."""
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body))

    if not rows:
        raise CayleyTableError("empty table document")
    lineno, body = rows[0]
    head = body.split()
    if len(head) != 1 or not head[0].isdecimal():
        raise CayleyTableError("first line must hold the group order", line=lineno)
    n = int(head[0])
    if n < 1:
        raise CayleyTableError("group order must be >= 1", line=lineno)
    if len(rows) < 1 + n:
        raise CayleyTableError(f"expected {n} table rows, found {len(rows) - 1}")

    table = _parse_block([body for _, body in rows[1:1 + n]], n)
    if table is None:
        table = np.empty((n, n), dtype=table_dtype(n))
        for r, (lineno, body) in enumerate(rows[1:1 + n]):
            table[r] = _parse_row(body.split(), n, lineno, r)
    return table, _parse_labels(rows[1 + n:], n, None)


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
