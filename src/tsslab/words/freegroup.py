"""Reduced words in the rank-2 free group, with exact conjugacy and
commutation decision procedures.

Letters are signed integers: +1/-1 for a/a^-1, +2/-2 for b/b^-1.  Words are
always stored freely reduced; the empty word is the identity.

Input is checked where it enters: the public ``FreeWord(...)`` constructor,
``f2_reduce`` (every letter, before reducing) and ``parse_f2``.  Words made
by the arithmetic here (products, inverses, cyclic cores, conjugators, roots)
are reduced by construction and skip that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

_LETTER_OF_CHAR = {"a": 1, "A": -1, "b": 2, "B": -2}
_CHAR_OF_LETTER = {1: "a", -1: "A", 2: "b", -2: "B"}


def _check_letters(letters: Iterable[int]) -> None:
    for x in letters:
        if x not in _CHAR_OF_LETTER:
            raise ValueError(f"letter {x} is not one of +-1, +-2")


@dataclass(frozen=True)
class FreeWord:
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_letters(self.letters)
        for u, v in zip(self.letters, self.letters[1:]):
            if u == -v:
                raise ValueError(
                    f"word {self.letters} is not freely reduced; build via f2_reduce"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return format_f2(self)


def _free_word(letters: tuple[int, ...]) -> FreeWord:
    """A word that is reduced by construction: no letter check."""
    w = object.__new__(FreeWord)
    object.__setattr__(w, "letters", letters)
    return w


IDENTITY = FreeWord(())


def f2_reduce(letters: Iterable[int]) -> FreeWord:
    """Freely reduce a raw letter sequence.  Every letter is checked before
    reducing, so a bad letter is rejected even where it would cancel."""
    letters = tuple(letters)
    _check_letters(letters)
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return _free_word(tuple(stack))


def f2_multiply(u: FreeWord, v: FreeWord) -> FreeWord:
    """The reduced form of u v: only the longest run of u's suffix that is
    inverse to v's prefix cancels, since u and v are each reduced."""
    a, b = u.letters, v.letters
    k, m = 0, min(len(a), len(b))
    while k < m and a[-1 - k] == -b[k]:
        k += 1
    return _free_word(a[:len(a) - k] + b[k:])


def f2_inverse(u: FreeWord) -> FreeWord:
    return _free_word(tuple(-x for x in reversed(u.letters)))


def f2_power(u: FreeWord, k: int) -> FreeWord:
    if k < 0:
        return f2_power(f2_inverse(u), -k)
    acc = IDENTITY
    for _ in range(k):
        acc = f2_multiply(acc, u)
    return acc


def cyclic_reduce(w: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Split w = c * core * c^-1 with core cyclically reduced."""
    a = w.letters
    lo, hi = 0, len(a)
    while hi - lo >= 2 and a[lo] == -a[hi - 1]:
        lo += 1
        hi -= 1
    return _free_word(a[lo:hi]), _free_word(a[:lo])


def primitive_root(w: FreeWord) -> tuple[FreeWord, int]:
    """The primitive x with w = x^k, k >= 1 (identity gives (identity, 0)).

    The core of w is a clean concatenation of copies of its smallest-period
    prefix, so the root is that prefix conjugated back.
    """
    if w.is_identity():
        return IDENTITY, 0
    core, conj = cyclic_reduce(w)
    n = len(core)
    for p in range(1, n + 1):
        if n % p != 0:
            continue
        if core.letters == core.letters[:p] * (n // p):
            root_core = _free_word(core.letters[:p])
            root = f2_multiply(f2_multiply(conj, root_core), f2_inverse(conj))
            exp = n // p
            if f2_power(root, exp) != w:  # pragma: no cover - sanity guard
                raise RuntimeError(f"root extraction failed for {w}")
            return root, exp
    raise RuntimeError(f"no period found for {w}")  # pragma: no cover


@dataclass(frozen=True)
class CommonRoot:
    """Witness that two commuting words are powers of one primitive word."""

    root: FreeWord
    exp_u: int
    exp_v: int


def f2_commutes(u: FreeWord, v: FreeWord) -> Optional[CommonRoot]:
    """None if uv != vu; else the common primitive root with both exponents."""
    if f2_multiply(u, v) != f2_multiply(v, u):
        return None
    if u.is_identity() and v.is_identity():
        return CommonRoot(IDENTITY, 0, 0)
    if u.is_identity():
        root, e = primitive_root(v)
        return CommonRoot(root, 0, e)
    root, eu = primitive_root(u)
    if v.is_identity():
        return CommonRoot(root, eu, 0)
    # exponents scale with cyclically reduced core length, not word length
    # (powers of c x c^-1 grow only in the core)
    core_v, _ = cyclic_reduce(v)
    core_r, _ = cyclic_reduce(root)
    if len(core_v) % len(core_r) != 0:  # pragma: no cover - impossible here
        raise RuntimeError(f"{v} is not a power of {root}")
    m = len(core_v) // len(core_r)
    if f2_power(root, m) == v:
        return CommonRoot(root, eu, m)
    if f2_power(root, -m) == v:
        return CommonRoot(root, eu, -m)
    raise RuntimeError(f"{v} is not a power of {root}")  # pragma: no cover


def _rotation(letters: tuple[int, ...], r: int) -> tuple[int, ...]:
    return letters[r:] + letters[:r]


def f2_conjugate_test(u: FreeWord, v: FreeWord) -> Optional[FreeWord]:
    """Witness h with h u h^-1 = v, or None.

    Decided by rotation comparison of the cyclically reduced cores; the
    witness is rebuilt from the reduction trace and the matching rotation.
    """
    core_u, cu = cyclic_reduce(u)
    core_v, cv = cyclic_reduce(v)
    if len(core_u) != len(core_v):
        return None
    for r in range(max(1, len(core_u))):
        if _rotation(core_u.letters, r) != core_v.letters:
            continue
        prefix = _free_word(core_u.letters[:r])
        # core_v = prefix^-1 core_u prefix, hence v = h u h^-1 with:
        h = f2_multiply(f2_multiply(cv, f2_inverse(prefix)), f2_inverse(cu))
        if f2_multiply(f2_multiply(h, u), f2_inverse(h)) != v:  # pragma: no cover
            raise RuntimeError("conjugacy witness reconstruction failed")
        return h
    return None


@dataclass(frozen=True)
class ObstructionEvidence:
    """Why {u, w} is a TSS for no w != u.

    Any commuting partner is a power of the primitive root of u; a swap
    forces the partner exponent to be the negative of u's; and the final
    exact check shows root^n is not conjugate to root^-n.
    """

    word: FreeWord
    root: FreeWord
    exponent: int
    inverse_power: FreeWord
    conjugate_to_inverse: bool
    certified: bool


def f2_tss_obstruction(u: FreeWord) -> ObstructionEvidence:
    if u.is_identity():
        raise ValueError("obstruction evidence needs a nontrivial word")
    root, n = primitive_root(u)
    inverse_power = f2_power(root, -n)
    witness = f2_conjugate_test(u, inverse_power)
    return ObstructionEvidence(
        word=u,
        root=root,
        exponent=n,
        inverse_power=inverse_power,
        conjugate_to_inverse=witness is not None,
        certified=witness is None,
    )


def parse_f2_letters(text: str) -> list[int]:
    """Raw letters from a string over a, A, b, B ('e' or '' is the identity)."""
    if text in ("", "e", "1"):
        return []
    letters = []
    for ch in text:
        if ch not in _LETTER_OF_CHAR:
            raise ValueError(f"invalid letter {ch!r}: words use a, A, b, B")
        letters.append(_LETTER_OF_CHAR[ch])
    return letters


def parse_f2(text: str) -> FreeWord:
    """Strict parser: rejects non-reduced input with a normalization hint."""
    letters = parse_f2_letters(text)
    reduced = f2_reduce(letters)
    if tuple(letters) != reduced.letters:
        raise ValueError(
            f"word {text!r} is not freely reduced; did you mean {format_f2(reduced)!r}?"
        )
    return reduced


def format_f2(w: FreeWord) -> str:
    return "".join(_CHAR_OF_LETTER[x] for x in w.letters) if w.letters else "e"
