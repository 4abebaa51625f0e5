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

import numpy as np

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
    the sorted element list.  Row q of ``conj_table[:, s]`` holds the images
    of s under q, so one position lookup gives every q's permutation.
    """
    elems = _normalize_set(g, s)
    k = len(elems)
    pos = np.full(g.order, k, dtype=np.intp)
    pos[list(elems)] = np.arange(k)
    perms = pos[g.conj_table[:, elems]]  # perms[q, i]: position of q s_i q^-1, k if outside s
    stab = np.flatnonzero((perms < k).all(axis=1))
    kernel = np.flatnonzero((perms == np.arange(k)).all(axis=1))
    rows = perms[stab]
    by_perm = np.lexsort(rows.T[::-1])  # stable, so equal rows keep ascending q
    ranked = rows[by_perm]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = np.sort(by_perm[starts])  # each permutation's least q, ascending
    realized = {tuple(perm): q for perm, q in zip(rows[first].tolist(), stab[first].tolist())}
    return StabilizerDecomposition(tuple(stab.tolist()), tuple(kernel.tolist()), realized)


def certify_tss(g: FiniteGroup, s: Iterable[int]) -> Optional[TssCertificate]:
    """Certificate with adjacent-transposition witnesses, or None.

    The witness for (i, i+1) is the least q whose row of
    ``conj_table[:, s]`` is s with those two members swapped.
    """
    elems = _normalize_set(g, s)
    m = g.table
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if m[x, y] != m[y, x]:
                return None
    witnesses: dict[tuple[int, int], int] = {}
    if len(elems) > 1:
        images = g.conj_table[:, elems]
        for i in range(len(elems) - 1):
            want = list(elems)
            want[i], want[i + 1] = want[i + 1], want[i]
            hits = np.flatnonzero((images == want).all(axis=1))
            if not hits.size:
                return None
            witnesses[(i, i + 1)] = int(hits[0])
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
        classes = [np.array(cls) for cls in part.classes]
        m = g.table
        # level is sorted and class members ascend, so nxt comes out sorted
        nxt: list[TssCertificate] = []
        for cert in level:
            elems = cert.elements
            cls = classes[part.class_of[elems[0]]]
            cand = cls[np.searchsorted(cls, elems[-1], side="right"):]
            for y in elems:
                cand = cand[m[y, cand] == m[cand, y]]
            for x in cand.tolist():
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
    """Keep one representative per orbit under simultaneous conjugation: the
    sets that are the lexicographic minimum of their orbit."""
    kept = []
    for cert in certs:
        # row q: the sorted image of the set under q; the identity's row is the
        # set, and rows whose least entry is larger cannot be smaller than it
        images = g.conj_table[:, cert.elements]
        images = np.sort(images[images.min(axis=1) <= cert.elements[0]], axis=1)
        for j, x in enumerate(cert.elements):
            column = images[:, j]
            least = column.min()
            if least < x:
                break
            images = images[column == least]
        else:
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
