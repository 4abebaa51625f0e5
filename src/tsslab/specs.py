"""Group spec mini-language: cyclic:N, dihedral:N, sym:N, semidirect:P,M,K,
product:<spec>,<spec>, file:<path>."""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from .cayley import from_cayley_table
from .groups import (
    FiniteGroup,
    GroupError,
    SemidirectParams,
    direct_product,
    make_cyclic,
    make_dihedral,
    make_semidirect_cyclic,
    make_symmetric,
)


class GroupSpecError(GroupError):
    """Malformed group spec string."""


def parse_group_spec(spec: str) -> FiniteGroup:
    return group_spec_builder(spec)()


def group_spec_builder(spec: str) -> Callable[[], FiniteGroup]:
    """What builds ``spec``'s group, once its syntax and its semidirect
    parameters check; nothing is built or read before the call."""
    build, rest = _parse(spec.strip())
    if rest:
        raise GroupSpecError(f"trailing text {rest!r} after group spec")
    return build


def split_spec_pair(text: str) -> tuple[str, str]:
    """Split '<spec>,<spec>' at its top-level comma.

    Specs contain commas only inside semidirect:P,M,K and product:..., which
    parse greedily, so the first spec ends where its parse stops.
    """
    text = text.strip()
    _, rest = _parse(text)
    if not rest.startswith(","):
        raise GroupSpecError("expected '<spec>,<spec>'")
    return text[: len(text) - len(rest)], rest[1:]


def _take_int(s: str) -> tuple[int, str]:
    i = 0
    while i < len(s) and s[i].isdecimal():
        i += 1
    if i == 0:
        raise GroupSpecError(f"expected an integer at {s!r}")
    return int(s[:i]), s[i:]


def _read_cayley(path: str) -> FiniteGroup:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GroupSpecError(f"cannot read file:{path}: {exc.strerror or exc}") from None
    return from_cayley_table(text, name=f"file:{path}")


def _expect(s: str, ch: str) -> str:
    if not s.startswith(ch):
        raise GroupSpecError(f"expected {ch!r} at {s!r}")
    return s[len(ch):]


def _parse(s: str) -> tuple[Callable[[], FiniteGroup], str]:
    if s.startswith("cyclic:"):
        n, rest = _take_int(s[len("cyclic:"):])
        return lambda: make_cyclic(n), rest
    if s.startswith("dihedral:"):
        n, rest = _take_int(s[len("dihedral:"):])
        return lambda: make_dihedral(n), rest
    if s.startswith("sym:"):
        n, rest = _take_int(s[len("sym:"):])
        return lambda: make_symmetric(n), rest
    if s.startswith("semidirect:"):
        p, rest = _take_int(s[len("semidirect:"):])
        rest = _expect(rest, ",")
        m, rest = _take_int(rest)
        rest = _expect(rest, ",")
        k, rest = _take_int(rest)
        params = SemidirectParams(p, m, k)
        return lambda: make_semidirect_cyclic(params), rest
    if s.startswith("product:"):
        left, rest = _parse(s[len("product:"):])
        rest = _expect(rest, ",")
        right, rest = _parse(rest)
        return lambda: direct_product(left(), right()), rest
    if s.startswith("file:"):
        # paths may not contain commas (a comma ends the spec inside products)
        body = s[len("file:"):]
        cut = body.find(",")
        path, rest = (body, "") if cut < 0 else (body[:cut], body[cut:])
        if not path:
            raise GroupSpecError("file: spec needs a path")
        return lambda: _read_cayley(path), rest
    raise GroupSpecError(
        f"unknown group spec {s!r}; use cyclic:N, dihedral:N, sym:N, "
        f"semidirect:P,M,K, product:<spec>,<spec>, or file:<path>"
    )
