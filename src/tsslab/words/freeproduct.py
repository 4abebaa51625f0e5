"""Syllable normal form for free products G * H of two finite table groups.

A word is an alternating sequence of (factor tag, non-identity element)
syllables; tag 0 is the left factor, tag 1 the right.  Raw syllable sequences
are normalized by ``fp_from_syllables``, which merges adjacent same-factor
syllables in the factor and deletes identity syllables, cascading until the
word alternates.

Input is checked where it enters: the public ``FpWord(...)`` constructor,
``fp_from_syllables`` (tags and element ranges) and the parsers.  Words made
by the arithmetic here (products, inverses, cyclic cores, conjugators, roots,
ball words) are normal by construction and skip that check.  A product of two
normal words changes only where they meet, so ``fp_multiply`` works at the
junction and never re-normalizes whole words.  The arithmetic works on
syllable tuples (``_join``, ``_invert``, ``_reduce``, ``_root``); the FpWord
operations wrap it, and each word keeps its cyclic reduction and primitive
root once computed, so every caller that sees the word shares one result.

A ball's commuting cliques are found one commuting family at a time
(``fp_families``).  Each word is keyed on its syllable tuple, without an
FpWord: a conjugate of a factor element by its conjugator, any other word by
the lesser of its primitive root and that root's inverse.  A root family is
checked once, by exact products (``fp_check_power_family``): its members
commute pairwise, each is its root to its exponent, and the exponents over
one root are distinct.  That is the rule ``fp_tss_analyze`` applies to powers,
so none of the family's cliques is a TSS.  The cliques of a factor family are
listed by exact commutation (``fp_family_cliques``) and analyzed one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from ..groups import FiniteGroup
from ..tss import TssCertificate, certify_tss

Syllable = tuple[int, int]
Syllables = tuple[Syllable, ...]


@dataclass(frozen=True, slots=True)
class FpWord:
    """A free-product word in syllable normal form.

    The constructor rejects syllables that are not in normal form.  The two
    memo fields hold ``fp_cyclic_reduce`` and ``fp_primitive_root`` results;
    they take no part in ``==``, ``hash`` or ``repr``.
    """

    left: FiniteGroup
    right: FiniteGroup
    syllables: tuple[Syllable, ...]
    _reduced: Optional[tuple[FpWord, FpWord]] = field(
        default=None, init=False, repr=False, compare=False)
    _root: Optional[tuple[Optional[FpWord], int]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prev_tag = None
        for tag, elem in self.syllables:
            if tag not in (0, 1):
                raise ValueError(f"syllable tag {tag} must be 0 or 1")
            factor = self.left if tag == 0 else self.right
            factor.check_index(elem)
            if elem == factor.identity:
                raise ValueError(
                    "identity syllables are not allowed in normal form; "
                    "build via fp_from_syllables"
                )
            if tag == prev_tag:
                raise ValueError(
                    "adjacent syllables share a factor; build via fp_from_syllables"
                )
            prev_tag = tag

    def factor(self, tag: int) -> FiniteGroup:
        return self.left if tag == 0 else self.right

    def __len__(self) -> int:
        return len(self.syllables)

    def is_identity(self) -> bool:
        return not self.syllables

    def __str__(self) -> str:
        return format_fp(self)


# The slots' own setters fill a frozen word without __init__ or __setattr__.
_set_left, _set_right, _set_syllables, _set_reduced, _set_root = (
    FpWord.__dict__[name].__set__
    for name in ("left", "right", "syllables", "_reduced", "_root")
)


def _fp_word(left: FiniteGroup, right: FiniteGroup, syllables: tuple[Syllable, ...]) -> FpWord:
    """A word whose syllables are normal by construction: no field check."""
    w = object.__new__(FpWord)
    _set_left(w, left)
    _set_right(w, right)
    _set_syllables(w, syllables)
    _set_reduced(w, None)
    _set_root(w, None)
    return w


def fp_identity(left: FiniteGroup, right: FiniteGroup) -> FpWord:
    return _fp_word(left, right, ())


def fp_from_syllables(
    left: FiniteGroup, right: FiniteGroup, raw: Iterable[Syllable]
) -> FpWord:
    """Normalize a raw syllable sequence (see the module docstring)."""
    stack: list[Syllable] = []
    for tag, elem in raw:
        if tag not in (0, 1):
            raise ValueError(f"syllable tag {tag} must be 0 or 1")
        factor = left if tag == 0 else right
        factor.check_index(elem)
        cur: Optional[Syllable] = (tag, elem)
        while cur is not None:
            ctag, celem = cur
            cfactor = left if ctag == 0 else right
            if celem == cfactor.identity:
                cur = None
            elif stack and stack[-1][0] == ctag:
                ptag, pelem = stack.pop()
                cur = (ctag, cfactor.mul[pelem][celem])
            else:
                stack.append(cur)
                cur = None
    return _fp_word(left, right, tuple(stack))


def _same_factors(u: FpWord, v: FpWord) -> None:
    if u.left is not v.left or u.right is not v.right:
        raise ValueError("words come from different free products")


# --- arithmetic on syllable tuples ---------------------------------------------
# The FpWord operations below and the family pass share these; they take the
# two factors and normal syllable tuples and return normal syllable tuples.

def _join(left: FiniteGroup, right: FiniteGroup, a: Syllables, b: Syllables) -> Syllables:
    i, j, n = len(a), 0, len(b)
    while i and j < n:
        tag, x = a[i - 1]
        if tag != b[j][0]:
            break
        factor = right if tag else left
        merged = factor.mul[x][b[j][1]]
        if merged != factor.identity:
            return a[:i - 1] + ((tag, merged),) + b[j + 1:]
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _invert(left: FiniteGroup, right: FiniteGroup, a: Syllables) -> Syllables:
    invs = (left.inverses, right.inverses)
    return tuple([(tag, invs[tag][elem]) for tag, elem in reversed(a)])


def _power(left: FiniteGroup, right: FiniteGroup, a: Syllables, k: int) -> Syllables:
    acc = a if k else ()
    for _ in range(k - 1):
        acc = _join(left, right, acc, a)
    return acc


def _reduce(left: FiniteGroup, right: FiniteGroup, syls: Syllables) -> tuple[Syllables, Syllables]:
    # Peeling only ever removes the front, so the conjugator is a prefix of w;
    # the back absorbs each peeled syllable, and a merge that is not the
    # identity leaves a core whose ends differ in factor.
    lo, hi = 0, len(syls)
    tail: Syllables = ()
    while hi - lo >= 2 and syls[lo][0] == syls[hi - 1][0]:
        tag = syls[lo][0]
        factor = left if tag == 0 else right
        merged = factor.mul[syls[hi - 1][1]][syls[lo][1]]
        lo += 1
        hi -= 1
        if merged != factor.identity:
            tail = ((tag, merged),)
            break
    return syls[lo:hi] + tail, syls[:lo]


def _root(left: FiniteGroup, right: FiniteGroup, core: Syllables, conj: Syllables) -> tuple[Syllables, int]:
    # Cyclically reduced words of even syllable length concatenate cleanly,
    # so the root core is the smallest period prefix of the core.
    size = len(core)
    for p in range(2, size + 1, 2):
        if size % p == 0 and core == core[:p] * (size // p):
            root = core[:p]
            if conj:
                root = _join(left, right, _join(left, right, conj, root), _invert(left, right, conj))
            return root, size // p
    raise RuntimeError(f"no period found for {_format(core)}")  # pragma: no cover


def _check_root(left: FiniteGroup, right: FiniteGroup, w: Syllables, root: Syllables, exp: int) -> None:
    """The guard on every extracted root: root^exp == w by exact products."""
    if _power(left, right, root, exp) != w:
        raise RuntimeError(f"root extraction failed for {_format(w)}")


def _check_commuting(left: FiniteGroup, right: FiniteGroup, words: Sequence[Syllables]) -> None:
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            if _join(left, right, a, b) != _join(left, right, b, a):
                raise ValueError(f"elements do not commute: {_format(a)} and {_format(b)}")


def _power_exponents(
    left: FiniteGroup, right: FiniteGroup, roots: Sequence[tuple[Syllables, int]]
) -> list[int]:
    """The powers rule: words w_i = r_i^e_i are powers of one element when
    every r_i is r_0 or r_0^-1.  Returns the signed exponents over r_0, which
    must be distinct; raises RuntimeError otherwise."""
    root = roots[0][0]
    inv_root = _invert(left, right, root)
    exps = []
    for r, e in roots:
        if r == root:
            exps.append(e)
        elif r == inv_root:
            exps.append(-e)
        else:
            raise RuntimeError("commuting non-factor words with different roots")
    if len(set(exps)) != len(exps):
        raise RuntimeError("duplicate powers slipped past the distinctness check")
    return exps


# --- words --------------------------------------------------------------------

def fp_multiply(u: FpWord, v: FpWord) -> FpWord:
    """The normal form of u v, worked out where the two words meet.

    In u and v every syllable differs in factor from its neighbours, so only
    the last syllable of u and the first of v can merge.  A merge to the
    identity removes both, and the next pair again shares a factor; any other
    merge, or a change of factor, ends the cascade.
    """
    _same_factors(u, v)
    return _fp_word(u.left, u.right, _join(u.left, u.right, u.syllables, v.syllables))


def fp_inverse(u: FpWord) -> FpWord:
    return _fp_word(u.left, u.right, _invert(u.left, u.right, u.syllables))


def fp_power(u: FpWord, k: int) -> FpWord:
    if k < 0:
        return fp_power(fp_inverse(u), -k)
    return _fp_word(u.left, u.right, _power(u.left, u.right, u.syllables, k))


def fp_conjugate(h: FpWord, x: FpWord) -> FpWord:
    return fp_multiply(fp_multiply(h, x), fp_inverse(h))


def fp_cyclic_reduce(w: FpWord) -> tuple[FpWord, FpWord]:
    """Split w = c * core * c^-1 with core cyclically reduced.

    The first syllable is peeled while it shares a factor with the last; a
    core of length <= 1 identifies w as a conjugate of a factor element.
    A word whose ends differ in factor is its own core; any other word
    computes its split once and keeps it.
    """
    syls = w.syllables
    if len(syls) < 2 or syls[0][0] != syls[-1][0]:
        return w, fp_identity(w.left, w.right)
    if w._reduced is None:
        core, conj = _reduce(w.left, w.right, syls)
        _set_reduced(w, (_fp_word(w.left, w.right, core), _fp_word(w.left, w.right, conj)))
    return w._reduced


def fp_primitive_root(w: FpWord) -> tuple[FpWord, int]:
    """Primitive root of a word whose core has syllable length >= 2.

    The root core is the smallest period prefix of the core.  Computed, and
    checked against w, once per word and kept on it.
    """
    if w._root is None:
        core, conj = fp_cyclic_reduce(w)
        if len(core) < 2:
            raise ValueError("primitive roots are extracted for non-factor words only")
        root, exp = _root(w.left, w.right, core.syllables, conj.syllables)
        _check_root(w.left, w.right, w.syllables, root, exp)
        # a word that is its own root keeps no second copy of itself
        _set_root(w, (None if root == w.syllables else _fp_word(w.left, w.right, root), exp))
    root, exp = w._root
    return (w if root is None else root), exp


@dataclass(frozen=True)
class FpTssVerdict:
    """Classification of a pairwise-commuting set per the free-product
    trichotomy: a conjugated factor set, powers of a common element, or a
    singleton."""

    is_tss: bool
    classification: str
    size: int
    factor_tag: Optional[int] = None
    conjugator: Optional[FpWord] = None
    factor_elements: Optional[tuple[int, ...]] = None
    factor_certificate: Optional[TssCertificate] = None
    reason: str = ""


def fp_tss_analyze(words: Sequence[FpWord]) -> FpTssVerdict:
    """Decide whether a set of free-product words is a TSS.

    Commutation is verified exactly.  Sets inside a common conjugate w F w^-1
    delegate to the factor TSS decision; commuting sets outside every factor
    conjugate are powers of one element and admit no TSS of size >= 2.
    """
    if not words:
        raise ValueError("candidate set must be nonempty")
    first = words[0]
    for w in words[1:]:
        _same_factors(first, w)
    if len(set(w.syllables for w in words)) != len(words):
        raise ValueError("candidate set has repeated elements")
    _check_commuting(first.left, first.right, [w.syllables for w in words])

    if len(words) == 1:
        return FpTssVerdict(True, "singleton", 1, reason="singletons are always TSS")

    nontrivial = [w for w in words if not w.is_identity()]
    if len(nontrivial) < len(words):
        return FpTssVerdict(
            False, "contains_identity", len(words),
            reason="the identity is conjugate only to itself",
        )

    reduced = [fp_cyclic_reduce(w) for w in words]
    if all(len(core) <= 1 for core, _ in reduced):
        # Common-conjugate case: distinct conjugates of a factor intersect
        # trivially, so the first conjugator must work for every member.
        conj = reduced[0][1]
        tag = reduced[0][0].syllables[0][0]
        factor = first.factor(tag)
        factor_elems = []
        for w in words:
            pulled = fp_conjugate(fp_inverse(conj), w)
            if len(pulled) != 1 or pulled.syllables[0][0] != tag:
                raise RuntimeError(
                    "commuting set mixes factor conjugates"
                )  # impossible for exact-commuting input
            factor_elems.append(pulled.syllables[0][1])
        cert = certify_tss(factor, factor_elems)
        if cert is None:
            return FpTssVerdict(
                False, "factor_conjugate", len(words), tag, conj,
                tuple(sorted(factor_elems)), None,
                reason=f"underlying set is not a TSS of {factor.name}",
            )
        return FpTssVerdict(
            True, "factor_conjugate", len(words), tag, conj,
            cert.elements, cert,
            reason=f"conjugate of a TSS of {factor.name}",
        )

    if any(len(core) <= 1 for core, _ in reduced):  # pragma: no cover
        raise RuntimeError("commuting set mixes factor conjugates with infinite-order words")

    # Powers of a common element: extract roots and exponents for the record.
    roots = [(root.syllables, exp) for root, exp in map(fp_primitive_root, words)]
    exps = _power_exponents(first.left, first.right, roots)
    pair = {exps[0], -exps[0]}
    if set(exps) != pair or len(words) > 2:
        reason = "swap forces exponents +-k; extra powers are excluded"
    else:
        reason = (
            "powers v^k, v^-k: a swapping conjugator would be a root power and "
            "commute with both, forcing k = -k"
        )
    return FpTssVerdict(
        False, "powers_of_common_element", len(words),
        reason=reason,
    )


def _ball(left: FiniteGroup, right: FiniteGroup, max_syllables: int) -> list[Syllables]:
    if max_syllables < 1:
        raise ValueError(f"max_syllables must be >= 1, got {max_syllables}")
    out: list[Syllables] = [()]
    level: list[Syllables] = [()]
    for _ in range(max_syllables):
        nxt: list[Syllables] = []
        for syls in level:
            for tag in (0, 1):
                if syls and syls[-1][0] == tag:
                    continue
                factor = left if tag == 0 else right
                for elem in range(factor.order):
                    if elem == factor.identity:
                        continue
                    nxt.append(syls + ((tag, elem),))
        nxt.sort()
        out.extend(nxt)
        level = nxt
    return out


def fp_ball(left: FiniteGroup, right: FiniteGroup, max_syllables: int) -> list[FpWord]:
    """All words of syllable length <= max_syllables, ordered by length then
    lexicographically by syllables."""
    return [_fp_word(left, right, syls) for syls in _ball(left, right, max_syllables)]


# --- commuting families -------------------------------------------------------

class FpFamily(NamedTuple):
    """The members of one commuting family of a ball, as syllable tuples in
    ball order.

    Conjugates of factor elements commute only within one c F c^-1; other
    words commute exactly with the powers of their primitive root.  A factor
    family (``roots`` None) is keyed ("factor", tag of F, syllables of c).
    A root family is keyed ("root", r) with r the lesser of a primitive root
    and its inverse, and ``roots`` holds each member's root and exponent as
    the keying found them; ``fp_check_power_family`` checks them.
    """

    left: FiniteGroup
    right: FiniteGroup
    key: tuple
    members: tuple[Syllables, ...]
    roots: Optional[tuple[tuple[Syllables, int], ...]] = None


def fp_families(left: FiniteGroup, right: FiniteGroup, max_syllables: int) -> list[FpFamily]:
    """The commuting families of the identity-free ball, ordered by the text
    of their keys.  Every word is keyed on its syllable tuple, with no FpWord
    made: its cyclic reduction, and for a non-factor word its primitive root
    and that root's inverse."""
    members: dict[tuple, list[Syllables]] = {}
    roots: dict[tuple, list[tuple[Syllables, int]]] = {}
    for syls in _ball(left, right, max_syllables)[1:]:
        core, conj = (syls, ()) if syls[0][0] != syls[-1][0] else _reduce(left, right, syls)
        if len(core) <= 1:
            key: tuple = ("factor", core[0][0], conj)
        else:
            root, exp = _root(left, right, core, conj)
            key = ("root", min(root, _invert(left, right, root)))
            roots.setdefault(key, []).append((root, exp))
        members.setdefault(key, []).append(syls)
    return [
        FpFamily(left, right, key, tuple(members[key]),
                 tuple(roots[key]) if key in roots else None)
        for key in sorted(members, key=str)
    ]


def fp_check_power_family(family: FpFamily) -> list[int]:
    """Check a root family by exact products: its members commute pairwise,
    each is its recorded root to its recorded exponent, and those roots are
    one element or its inverse with distinct signed exponents (the powers
    rule ``fp_tss_analyze`` applies).  Returns the signed exponents; raises
    ValueError or RuntimeError on a family that fails.

    Every subset of two or more members of a family that passes is a set of
    distinct powers of one infinite-order element, for which
    ``fp_tss_analyze`` returns ``powers_of_common_element``, not a TSS.
    """
    left, right, members = family.left, family.right, family.members
    if family.roots is None:
        raise ValueError(f"{family.key} is not a root family")
    _check_commuting(left, right, members)
    for w, (root, exp) in zip(members, family.roots, strict=True):
        _check_root(left, right, w, root, exp)
    return _power_exponents(left, right, family.roots)


def fp_family_cliques(family: FpFamily) -> Iterator[list[FpWord]]:
    """The pairwise-commuting subsets of size >= 2 of a family's members, in
    depth-first order over ball order, with commutation decided by exact
    products."""
    left, right, members = family.left, family.right, family.members
    words = [_fp_word(left, right, syls) for syls in members]
    commute = {
        (i, j): _join(left, right, a, b) == _join(left, right, b, a)
        for i, a in enumerate(members)
        for j, b in enumerate(members[i + 1:], start=i + 1)
    }

    def extend(chosen: list[int], start: int) -> Iterator[list[FpWord]]:
        if len(chosen) >= 2:
            yield [words[i] for i in chosen]
        for idx in range(start, len(words)):
            if all(commute[(c, idx)] for c in chosen):
                chosen.append(idx)
                yield from extend(chosen, idx + 1)
                chosen.pop()

    return extend([], 0)


def fp_commuting_cliques(
    left: FiniteGroup,
    right: FiniteGroup,
    max_syllables: int,
) -> Iterator[list[FpWord]]:
    """All pairwise-commuting subsets of size >= 2 of the ball of
    identity-free words, family by family (``fp_families``).

    Commutation inside a candidate is not assumed from the family; it is
    decided by exact multiplication.
    """
    for family in fp_families(left, right, max_syllables):
        yield from fp_family_cliques(family)


def format_fp(w: FpWord) -> str:
    return _format(w.syllables)


def _format(syls: Syllables) -> str:
    if not syls:
        return "e"
    return "".join(f"[{'G' if tag == 0 else 'H'}:{elem}]" for tag, elem in syls)


def parse_fp(text: str, left: FiniteGroup, right: FiniteGroup) -> FpWord:
    """Strict parser for bracketed syllables, e.g. "[G:3][H:5]".

    Rejects non-normalized input (identity syllables, adjacent same-factor
    syllables) with a normalization hint.
    """
    if text in ("e", ""):
        return fp_identity(left, right)
    syls = _parse_raw_fp(text)
    normalized = fp_from_syllables(left, right, syls)
    if normalized.syllables != tuple(syls):
        raise ValueError(
            f"{text!r} is not in normal form; did you mean {format_fp(normalized)!r}?"
        )
    return normalized


def parse_fp_raw(text: str, left: FiniteGroup, right: FiniteGroup) -> FpWord:
    """Lenient parser that normalizes (for the explicit normalize entry point)."""
    if text in ("e", ""):
        return fp_identity(left, right)
    return fp_from_syllables(left, right, _parse_raw_fp(text))


def _parse_raw_fp(text: str) -> list[Syllable]:
    syls: list[Syllable] = []
    rest = text
    while rest:
        if not rest.startswith("["):
            raise ValueError(f"expected '[' at {rest!r}")
        end = rest.find("]")
        if end < 0:
            raise ValueError(f"unterminated syllable in {rest!r}")
        body = rest[1:end]
        rest = rest[end + 1:]
        if ":" not in body:
            raise ValueError(f"syllable {body!r} must look like G:3 or H:5")
        tag_text, elem_text = body.split(":", 1)
        if tag_text not in ("G", "H"):
            raise ValueError(f"factor tag must be G or H, got {tag_text!r}")
        try:
            elem = int(elem_text)
        except ValueError:
            raise ValueError(f"non-integer element index in {body!r}") from None
        syls.append((0 if tag_text == "G" else 1, elem))
    return syls
