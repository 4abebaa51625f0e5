"""Exact arithmetic in the Baumslag-Solitar groups BS(1, n) = <a, b | bab^-1 = a^n>.

Elements live in Z[1/n] x| Z as pairs (r, t) with a = (1, 0), b = (0, 1) and
(r1, t1)(r2, t2) = (r1 + n^t1 * r2, t1 + t2); r is an exact Fraction.  Commutation
and swaps are decided in closed form from this structure, without searching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

RationalLike = Union[int, Fraction]


@dataclass(frozen=True)
class BsElement:
    r: Fraction
    t: int

    def __init__(self, r: RationalLike, t: int):
        # a Fraction is immutable, so one that is already exact is kept as is
        object.__setattr__(self, "r", r if type(r) is Fraction else Fraction(r))
        object.__setattr__(self, "t", int(t))

    def is_identity(self) -> bool:
        return self.r == 0 and self.t == 0


# The classification pairs a (2 radius + 1)^2 ball, so its radius is capped; the
# defaults serve `word bs` and `verify baumslag-solitar` alike.
DEFAULT_RADIUS = 4
DEFAULT_BOUND = 6
RADIUS_CAP = 20

BS_IDENTITY = BsElement(0, 0)
BS_A = BsElement(1, 0)
BS_B = BsElement(0, 1)


def _check_n(n: int) -> int:
    if n == 0:
        raise ValueError("BS(1, n) requires a nonzero n")
    return n


@lru_cache(maxsize=4096)
def _npow(n: int, t: int) -> Fraction:
    return Fraction(n) ** t


def bs_multiply(u: BsElement, v: BsElement, n: int) -> BsElement:
    _check_n(n)
    return BsElement(u.r + _npow(n, u.t) * v.r, u.t + v.t)


def bs_inverse(u: BsElement, n: int) -> BsElement:
    _check_n(n)
    return BsElement(-_npow(n, -u.t) * u.r, -u.t)


def bs_conjugate(h: BsElement, x: BsElement, n: int) -> BsElement:
    return bs_multiply(bs_multiply(h, x, n), bs_inverse(h, n), n)


def bs_ab(i: RationalLike, j: int) -> BsElement:
    """The element a^i b^j."""
    return BsElement(i, j)


def bs_commutes(u: BsElement, v: BsElement, n: int) -> bool:
    """uv = vu iff r_u (1 - n^t_v) = r_v (1 - n^t_u): their (r, 1 - n^t) are parallel."""
    _check_n(n)
    return u.r * (1 - _npow(n, v.t)) == v.r * (1 - _npow(n, u.t))


@dataclass(frozen=True)
class SwapSearchResult:
    witness: Optional[BsElement]
    bound: int

    @property
    def exhausted(self) -> bool:
        return self.witness is None

    def describe(self) -> str:
        if self.witness is None:
            return f"exhausted({self.bound})"
        return f"witness a^{self.witness.r} b^{self.witness.t}"


def _spiral(bound: int) -> list[int]:
    # 0, 1, -1, 2, -2, ...: deterministic first-witness order.
    out = [0]
    for v in range(1, bound + 1):
        out.extend((v, -v))
    return out


def bs_swap_search(
    u: BsElement, v: BsElement, n: int, bound: int, depth: int = 2
) -> SwapSearchResult:
    """Search conjugators h = (num/n^d, f) with |f| <= bound, |num| <= bound,
    d <= depth, for h u h^-1 = v and h v h^-1 = u simultaneously.

    Exact evaluation; returns the first witness in (f, num, d) spiral order,
    or an exhausted marker.  No witness within the grid is bounded evidence,
    not a disproof.
    """
    _check_n(n)
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if not bs_commutes(u, v, n):
        raise ValueError("swap search requires commuting inputs")
    for f in _spiral(bound):
        for num in _spiral(bound):
            for d in range(depth + 1):
                s = Fraction(num) / _npow(n, d)
                h = BsElement(s, f)
                if bs_conjugate(h, u, n) == v and bs_conjugate(h, v, n) == u:
                    return SwapSearchResult(h, bound)
    return SwapSearchResult(None, bound)


def bs_swap_decide(u: BsElement, v: BsElement, n: int, bound: int) -> SwapSearchResult:
    """Decide exactly whether some h has h u h^-1 = v and h v h^-1 = u.

    Returns what ``bs_swap_search(u, v, n, bound)`` returns, with the same
    input checks, but without searching: conjugation by h = (s, f) sends
    (r, t) to (s(1 - n^t) + n^f r, t), so a swap of distinct u, v needs
    t_u = t_v and n^f = -1 (n = -1, f odd), and then
    s(1 - (-1)^t) = r_u + r_v.  Distinct commuting elements of BS(1, -1) with
    equal t have even t (odd t forces r_u = r_v), so any s works once
    r_u + r_v = 0, and the first witness in spiral order is b = (0, 1).  For
    u = v it is the identity.  Otherwise no h swaps u and v at all, and
    ``bound`` enters only the reported exhausted(bound).
    """
    _check_n(n)
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if not bs_commutes(u, v, n):
        raise ValueError("swap search requires commuting inputs")
    if u == v:
        witness: Optional[BsElement] = BS_IDENTITY
    elif n == -1 and u.t == v.t and u.r + v.r == 0:
        witness = BS_B
    else:
        witness = None
    return SwapSearchResult(witness, bound)


@dataclass(frozen=True)
class BsPairEvidence:
    u: BsElement
    v: BsElement
    verdict: str
    detail: str


@dataclass(frozen=True)
class BsClassificationReport:
    n: int
    radius: int
    bound: int
    branch: str  # "abelian", "inverse_pairs", or "rigid"
    instances: tuple[BsPairEvidence, ...]
    all_ok: bool


def bs_classification_check(n: int, radius: int,
                            bound: int = DEFAULT_BOUND) -> BsClassificationReport:
    """Reproduce the BS(1, n) classification at desk scale, deciding every
    swap exactly with ``bs_swap_decide``.

    n = -1: every pair {a^x b^2m, a^-x b^2m} within the radius is certified a
    TSS (exact commutation, swap witness b), and no third element joins it:
    the only element that can be swapped with (r, t), t even, is (-r, t).

    n = 1: abelian branch, conjugation is trivial.

    Other n: every distinct commuting pair within the radius is shown
    non-swappable, reported as exhausted(bound) since no swap exists at all.
    The pairs come from keying the ball by the direction of (r, 1 - n^t): the
    fixed point r / (1 - n^t) for t != 0, "translation" for t = 0; the
    identity, which commutes with everything, has no key.
    """
    _check_n(n)
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if radius > RADIUS_CAP:
        raise ValueError(f"radius must be <= {RADIUS_CAP}, got {radius}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    instances: list[BsPairEvidence] = []

    if n == 1:
        # bab^-1 = a: the group is Z^2; distinct elements are never conjugate.
        for i in range(-radius, radius + 1):
            for j in range(-radius, radius + 1):
                u = bs_ab(i, j)
                v = bs_ab(-i, j)
                if u == v:
                    continue
                instances.append(BsPairEvidence(
                    u, v, "pass", "abelian: conjugation is trivial, only singleton TSS"))
        return BsClassificationReport(n, radius, bound, "abelian", tuple(instances), True)

    if n == -1:
        ok = True
        for x in range(1, radius + 1):
            for m in range(-radius, radius + 1):
                u = bs_ab(x, 2 * m)
                v = bs_ab(-x, 2 * m)
                if not bs_commutes(u, v, n):
                    instances.append(BsPairEvidence(u, v, "fail", "expected commuting pair"))
                    ok = False
                    continue
                res = bs_swap_decide(u, v, n, bound)
                if res.witness is None:
                    instances.append(BsPairEvidence(u, v, "fail", "no swap witness found"))
                    ok = False
                    continue
                # v is the only element that can be swapped with u, so no
                # third element extends {u, v}.
                detail = f"certified TSS via {res.describe()}; no size-3 superset in reach"
                instances.append(BsPairEvidence(u, v, "pass", detail))
        return BsClassificationReport(n, radius, bound, "inverse_pairs", tuple(instances), ok)

    # |n| >= 2: rigid branch, pairs by key (see above and bs_commutes).
    ok = True
    detail = f"exact: a swap needs equal b-exponents and n^f = -1, impossible for n = {n}"
    elems = [bs_ab(i, j) for i in range(-radius, radius + 1) for j in range(-radius, radius + 1)]
    keys = [None if u.is_identity() else u.r / (1 - _npow(n, u.t)) if u.t else "translation"
            for u in elems]
    members: dict = {}
    for idx, key in enumerate(keys):
        members.setdefault(key, []).append(idx)
    for idx, u in enumerate(elems):
        later = (range(idx + 1, len(elems)) if keys[idx] is None
                 else sorted(w for w in members[keys[idx]] + members[None] if w > idx))
        for v in map(elems.__getitem__, later):
            res = bs_swap_decide(u, v, n, bound)
            if res.witness is None:
                instances.append(BsPairEvidence(u, v, f"exhausted({bound})", detail))
            else:
                ok = False
                instances.append(
                    BsPairEvidence(u, v, "fail", f"unexpected swap witness {res.describe()}"))
    return BsClassificationReport(n, radius, bound, "rigid", tuple(instances), ok)


def format_bs(u: BsElement, n: int) -> str:
    """Canonical text form a^p/n^q b^t with n not dividing p when q > 0."""
    _check_n(n)
    q = 0
    r = u.r
    while (r * _npow(n, q)).denominator != 1:
        if q > r.denominator.bit_length():  # the least q is below log2 of the denominator
            raise ValueError(f"r = {r} is not in Z[1/{n}]")
        q += 1
    p = int(r * _npow(n, q))
    return f"a^{p}/{n}^{q} b^{u.t}"


def parse_bs(text: str, n: int) -> BsElement:
    """Parse the canonical form, rejecting non-normalized input with a hint."""
    _check_n(n)
    parts = text.split()
    if len(parts) != 2 or not parts[0].startswith("a^") or not parts[1].startswith("b^"):
        raise ValueError(
            f"expected 'a^P/N^Q b^T', got {text!r}"
        )
    rational = parts[0][2:]
    if "/" not in rational:
        raise ValueError(f"expected 'a^P/{n}^Q', got {parts[0]!r}")
    num_text, den_text = rational.split("/", 1)
    if "^" not in den_text:
        raise ValueError(f"denominator must be a power {n}^Q, got {den_text!r}")
    base_text, q_text = den_text.rsplit("^", 1)
    try:
        p = int(num_text)
        base = int(base_text)
        q = int(q_text)
        t = int(parts[1][2:])
    except ValueError:
        raise ValueError(f"non-integer field in {text!r}") from None
    if base != n:
        raise ValueError(f"denominator base {base} does not match n = {n}")
    if q < 0:
        raise ValueError(f"denominator exponent must be >= 0, got {q}")
    if q > 0 and p % n == 0:
        elem = BsElement(Fraction(p) / _npow(n, q), t)
        raise ValueError(
            f"{text!r} is not normalized ({n} divides {p}); "
            f"did you mean {format_bs(elem, n)!r}?"
        )
    return BsElement(Fraction(p) / _npow(n, q), t)
