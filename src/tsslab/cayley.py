"""Cayley-table text format.

Line 1 holds the order n, lines 2..n+1 the table rows (row i, column j is the
index of element i * element j), then optional ``label <index> <string>``
lines.  Lines are cut at the first ``#``.  The writer emits exactly this
format, so write/parse round-trips are byte-identical modulo comments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .groups import FiniteGroup, GroupError, make_group, table_dtype


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


def from_cayley_table(text: str, name: str = "table-group") -> FiniteGroup:
    """Parse and validate a Cayley-table document."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))

    if not rows:
        raise CayleyTableError("empty table document")
    lineno, head = rows[0]
    if len(head) != 1 or not head[0].isdigit():
        raise CayleyTableError("first line must hold the group order", line=lineno)
    n = int(head[0])
    if n < 1:
        raise CayleyTableError("group order must be >= 1", line=lineno)
    if len(rows) < 1 + n:
        raise CayleyTableError(f"expected {n} table rows, found {len(rows) - 1}")

    table = np.empty((n, n), dtype=table_dtype(n))
    entry = {str(v): v for v in range(n)}.__getitem__  # the canonical spellings of 0..n-1
    for r in range(n):
        lineno, toks = rows[1 + r]
        if len(toks) != n:
            raise CayleyTableError(
                f"expected {n} entries, found {len(toks)}", line=lineno, row=r
            )
        try:
            table[r] = list(map(entry, toks))
        except KeyError:  # a bad entry, or another spelling of a good one such as "+1"
            table[r] = _parse_row(toks, n, lineno, r)

    labels: Optional[list[str]] = None
    for lineno, toks in rows[1 + n:]:
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

    try:
        return make_group(table, labels=labels, name=name)
    except CayleyTableError:
        raise
    except GroupError as exc:
        raise CayleyTableError(str(exc)) from exc


def _parse_row(toks: list[str], n: int, lineno: int, r: int) -> list[int]:
    """Parse a row token by token, naming the first bad entry."""
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


def to_cayley_table(g: FiniteGroup) -> str:
    """Serialize a group in the canonical table format."""
    text = list(map(str, range(g.order))).__getitem__
    lines = [str(g.order)]
    lines += [" ".join(map(text, row)) for row in g.mul]
    if g.labels is not None:
        for i, lab in enumerate(g.labels):
            lines.append(f"label {i} {lab}")
    return "\n".join(lines) + "\n"
