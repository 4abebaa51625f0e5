"""Totally symmetric sets: decision, enumeration, S(G), stabilizer decompositions.

A totally symmetric set pairwise commutes and every permutation of it is
realized by conjugation.  The decision procedure checks witnesses for the
adjacent transpositions only: realized permutations form a subgroup of
Sym(S), and adjacent transpositions generate it.

One level-wise search, ``tss_by_size``, produces every certified TSS one size
at a time; ``enumerate_tss`` and ``max_tss_size`` read its levels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .groups import FiniteGroup, GroupError, conjugacy_classes


class TssError(ValueError):
    """Raised for invalid candidate sets or failed TSS premises."""


@dataclass(frozen=True)
class TssCertificate:
    """A verified totally symmetric set.

    ``witnesses`` maps each adjacent transposition (i, i+1) of positions in
    the sorted element list to a conjugator swapping those two members and
    fixing the rest pointwise.
    """

    group: FiniteGroup
    elements: tuple[int, ...]
    witnesses: dict[tuple[int, int], int] = field(default_factory=dict)

    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class StabilizerDecomposition:
    """Setwise conjugation stabilizer of a set, its kernel, and the realized
    permutation group on the set (one witness per permutation)."""

    stabilizer: tuple[int, ...]
    kernel: tuple[int, ...]
    realized: dict[tuple[int, ...], int]


@dataclass(frozen=True)
class TssReport:
    group_description: str
    s_of_g: int
    maximal_sets: tuple[TssCertificate, ...]
    counts: dict[int, int]


def _normalize_set(g: FiniteGroup, s: Iterable[int]) -> tuple[int, ...]:
    elems = tuple(sorted(s))
    if not elems:
        raise TssError("candidate set must be nonempty")
    for x in elems:
        g.check_index(x)
    if len(set(elems)) != len(elems):
        raise TssError(f"candidate set has repeated elements: {elems}")
    return elems


def realized_permutations(g: FiniteGroup, s: Iterable[int]) -> StabilizerDecomposition:
    """Exact setwise stabilizer, kernel, and realized permutations of s.

    Correct whether or not s is a TSS; permutations are position tuples over
    the sorted element list.
    """
    elems = _normalize_set(g, s)
    pos = {x: i for i, x in enumerate(elems)}
    k = len(elems)
    ident = tuple(range(k))
    stab: list[int] = []
    kernel: list[int] = []
    realized: dict[tuple[int, ...], int] = {}
    for q in range(g.order):
        perm = []
        ok = True
        for x in elems:
            img = g.conj(q, x)
            p = pos.get(img)
            if p is None:
                ok = False
                break
            perm.append(p)
        if not ok:
            continue
        stab.append(q)
        t = tuple(perm)
        if t == ident:
            kernel.append(q)
        if t not in realized:
            realized[t] = q
    return StabilizerDecomposition(tuple(stab), tuple(kernel), realized)


def _transposition_witness(g: FiniteGroup, elems: tuple[int, ...], i: int) -> Optional[int]:
    a, b = elems[i], elems[i + 1]
    rest = elems[:i] + elems[i + 2:]
    for q in range(g.order):
        if g.conj(q, a) != b or g.conj(q, b) != a:
            continue
        if all(g.conj(q, x) == x for x in rest):
            return q
    return None


def certify_tss(g: FiniteGroup, s: Iterable[int]) -> Optional[TssCertificate]:
    """Certificate with adjacent-transposition witnesses, or None."""
    elems = _normalize_set(g, s)
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if not g.commutes(x, y):
                return None
    witnesses: dict[tuple[int, int], int] = {}
    for i in range(len(elems) - 1):
        w = _transposition_witness(g, elems, i)
        if w is None:
            return None
        witnesses[(i, i + 1)] = w
    return TssCertificate(g, elems, witnesses)


def is_tss(g: FiniteGroup, s: Iterable[int]) -> bool:
    return certify_tss(g, s) is not None


def factorial_divisibility(g: FiniteGroup, s: Iterable[int]) -> bool:
    """For a TSS s: |s|! divides |Stab(s)| and |Stab(s)| divides |G|."""
    cert = certify_tss(g, s)
    if cert is None:
        raise TssError(f"{tuple(s)} is not a totally symmetric set in {g.name}")
    dec = realized_permutations(g, cert.elements)
    nstab = len(dec.stabilizer)
    return nstab % math.factorial(len(cert.elements)) == 0 and g.order % nstab == 0


def tss_by_size(g: FiniteGroup) -> Iterator[list[TssCertificate]]:
    """Certified TSS of size 1, 2, ..., one lexicographically sorted list per size.

    Level k+1 extends each size-k set by a larger member of the same conjugacy
    class that commutes with every member, and certifies the result.  This is
    complete because subsets of a TSS are TSS (so the sorted k-prefix of a
    size-(k+1) TSS is on level k) and members of a TSS of size >= 2 are
    pairwise conjugate.  Stops after the last nonempty level, or before size k
    when k! does not divide |G| (|S|! | |Stab(S)| | |G| is necessary).
    """
    level = [TssCertificate(g, (x,), {}) for x in range(g.order)]
    size = 1
    while level:
        yield level
        size += 1
        if g.order % math.factorial(size) != 0:
            return
        part = conjugacy_classes(g)
        # level is sorted and class members ascend, so nxt comes out sorted
        nxt: list[TssCertificate] = []
        for cert in level:
            elems = cert.elements
            for x in part.classes[part.class_of[elems[0]]]:
                if x > elems[-1] and all(g.commutes(x, y) for y in elems):
                    ext = certify_tss(g, elems + (x,))
                    if ext is not None:
                        nxt.append(ext)
        level = nxt


def enumerate_tss(g: FiniteGroup, size: int) -> list[TssCertificate]:
    """All TSS of exactly the given size, in lexicographic element order:
    the size-th level of ``tss_by_size``."""
    if size < 1:
        raise TssError(f"size must be >= 1, got {size}")
    for k, level in enumerate(tss_by_size(g), start=1):
        if k == size:
            return level
    return []


def max_tss_size(g: FiniteGroup, up_to_conjugacy: bool = False) -> TssReport:
    """S(G) with all certified maximal sets, from the levels of ``tss_by_size``."""
    counts: dict[int, int] = {}
    for k, level in enumerate(tss_by_size(g), start=1):
        counts[k] = len(level)
        best = level
    if up_to_conjugacy:
        best = dedup_up_to_conjugacy(g, best)
    return TssReport(
        group_description=g.name,
        s_of_g=len(counts),
        maximal_sets=tuple(best),
        counts=counts,
    )


def dedup_up_to_conjugacy(g: FiniteGroup, certs: Sequence[TssCertificate]) -> list[TssCertificate]:
    """Keep one representative per orbit under simultaneous conjugation."""
    kept = []
    for cert in certs:
        canonical = min(
            tuple(sorted(g.conj(q, x) for x in cert.elements))
            for q in range(g.order)
        )
        if cert.elements == canonical:
            kept.append(cert)
    return kept


def brute_force_tss(g: FiniteGroup, size: int) -> list[tuple[int, ...]]:
    """No-pruning oracle: every size-subset of every commuting family, with a
    full witness search over all |S|! permutations.

    Kept independent of the pruned path: no conjugacy classes, no stabilizer
    reasoning, no adjacent-transposition shortcut.
    """
    if size < 1:
        raise TssError(f"size must be >= 1, got {size}")
    n = g.order
    out: list[tuple[int, ...]] = []
    for cand in itertools.combinations(range(n), size):
        if any(
            not g.commutes(cand[i], cand[j])
            for i in range(size)
            for j in range(i + 1, size)
        ):
            continue
        total = True
        for sigma in itertools.permutations(range(size)):
            found = False
            for q in range(n):
                if all(g.conj(q, cand[i]) == cand[sigma[i]] for i in range(size)):
                    found = True
                    break
            if not found:
                total = False
                break
        if total:
            out.append(cand)
    return out
