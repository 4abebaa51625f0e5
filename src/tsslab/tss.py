"""Totally symmetric sets: decision, enumeration, S(G), stabilizer decompositions.

A totally symmetric set pairwise commutes and every permutation of it is
realized by conjugation.  The decision procedure checks witnesses for the
adjacent transpositions only: realized permutations form a subgroup of
Sym(S), and adjacent transpositions generate it.

One level-wise search, ``tss_by_size``, produces every certified TSS one size
at a time; ``enumerate_tss`` and ``max_tss_size`` read its levels as arrays
(``_levels``) and certify only the level they return.  Every TSS is a
clique of the group's commuting graph (``FiniteGroup._commuting_graph``, kept
on the group and shared with the homomorphism search), and a set's candidates
are read from its rows.  A level is
held as an array of sorted rows and the next one is built from all of it at
once: candidates, commutation filters, witnesses and the orbit minima of
``dedup_up_to_conjugacy`` are array operations on blocks of parents or sets,
each block bounded by ``_BLOCK`` entries, so memory does not grow with the
size of a level beyond the level itself.  The witness
for a transposition is always the least conjugator realizing it, found by one
kernel, ``_least_witnesses``, that ``certify_tss`` shares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .groups import FiniteGroup, GroupError, _candidate_blocks, _conjugates, conjugacy_classes

# Block size of the level search and of dedup_up_to_conjugacy: a block of
# parents has about this many candidates, and a block of sets gathers about
# this many table entries per member (a block holds at least one of either).
_BLOCK = 1 << 15


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
    the sorted element list.  Row q of ``_conjugates(g, s)`` holds the images
    of s under q, so one position lookup gives every q's permutation.
    """
    elems = _normalize_set(g, s)
    k = len(elems)
    pos = np.full(g.order, k, dtype=np.intp)
    pos[list(elems)] = np.arange(k)
    perms = pos[_conjugates(g, elems)]  # perms[q, i]: position of q s_i q^-1, k if outside s
    stab = np.flatnonzero((perms < k).all(axis=1))
    kernel = np.flatnonzero((perms == np.arange(k)).all(axis=1))
    rows = perms[stab]
    by_perm = np.lexsort(rows.T[::-1])  # stable, so equal rows keep ascending q
    ranked = rows[by_perm]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = np.sort(by_perm[starts])  # each permutation's least q, ascending
    realized = dict(zip(map(tuple, rows[first].tolist()), g.element_tuple(stab[first])))
    return StabilizerDecomposition(g.element_tuple(stab), g.element_tuple(kernel), realized)


def certify_tss(g: FiniteGroup, s: Iterable[int]) -> Optional[TssCertificate]:
    """Certificate with adjacent-transposition witnesses, or None.

    The witness for (i, i+1) is the least q that conjugates s to s with
    those two members swapped.
    """
    elems = _normalize_set(g, s)
    m = g.table
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if m[x, y] != m[y, x]:
                return None
    sets = np.array([elems], dtype=np.intp)
    witnesses = _least_witnesses(g, sets) if len(elems) > 1 else sets[:, :0]  # none for a singleton
    if (witnesses < 0).any():
        return None
    return _certificates(g, sets, witnesses)[0]


def _least_witnesses(g: FiniteGroup, sets: np.ndarray) -> np.ndarray:
    """Least witnesses for a batch of sorted k-sets, an (e, k) array.

    Column i of the (e, k-1) result holds, for each set s, the least q with
    q s_j q^-1 = s_swap(j) for all j, swap exchanging i and i+1, or -1: that
    is q s_j = s_swap(j) q, a column of ``table`` against a row, with no
    inverse gathered.  Sets go through in blocks whose hit matrices hold
    about ``_BLOCK`` entries; ``argmax`` along q gives the first hit.
    """
    e, k = sets.shape
    # row i: the positions 0..k-1 with i and i+1 exchanged
    swaps = np.arange(k) + np.eye(k - 1, k, dtype=np.intp) - np.eye(k - 1, k, 1, dtype=np.intp)
    t = g.table
    out = np.empty((e, k - 1), dtype=np.intp)
    step = max(1, _BLOCK // (g.order * k * (k - 1)))
    for lo in range(0, e, step):
        block = sets[lo:lo + step]
        # hit[r, i, q]: q block[r, j] = block[r, swaps[i, j]] q for every j
        hit = (t[:, block].transpose(1, 2, 0)[:, None] == t[block][:, swaps]).all(axis=2)
        out[lo:lo + len(block)] = np.where(hit.any(axis=2), hit.argmax(axis=2), -1)
    return out


def tss_by_size(g: FiniteGroup) -> Iterator[list[TssCertificate]]:
    """Certified TSS of size 1, 2, ..., one lexicographically sorted list per size.

    Level k+1 extends each size-k set by a larger member of the same conjugacy
    class that commutes with every member, and certifies the result.  This is
    complete because subsets of a TSS are TSS (so the sorted k-prefix of a
    size-(k+1) TSS is on level k) and members of a TSS of size >= 2 are
    pairwise conjugate.  Stops after the last nonempty level, or before size k
    when k! does not divide |G| (|S|! | |Stab(S)| | |G| is necessary).

    The levels come from ``_levels`` as arrays, and the certificates are made
    from them.
    """
    for level, witnesses in _levels(g):
        yield _certificates(g, level, witnesses)


def _levels(g: FiniteGroup) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The levels of ``tss_by_size`` as arrays: each an (m, k) array of
    sorted rows in lexicographic order, and their (m, k-1) witnesses.

    The whole of a level is extended at once, in blocks of parents with about
    ``_BLOCK`` candidates, by ``_extend``.  Witnesses come from
    ``_least_witnesses``, as in ``certify_tss``.
    """
    level = np.arange(g.order, dtype=np.intp)[:, None]
    witnesses = np.empty((g.order, 0), dtype=np.intp)
    while len(level):
        yield level, witnesses
        if g.order % math.factorial(level.shape[1] + 1) != 0:
            return
        level, witnesses = _extend(g, level)


def _certificates(g: FiniteGroup, level: np.ndarray, witnesses: np.ndarray) -> list[TssCertificate]:
    """Certificates whose elements and witnesses are the group's shared ints."""
    keys = [(i, i + 1) for i in range(level.shape[1] - 1)]
    return [TssCertificate(g, tuple(elems), dict(zip(keys, wits)))
            for elems, wits in zip(g.ints[level].tolist(), g.ints[witnesses].tolist())]


def _extend(g: FiniteGroup, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level k+1 and its witnesses from level k.

    Every member of a parent lies in the class of its last member x and
    commutes with x, so the parent's candidates are the entries after x in
    x's row of the group's commuting graph (``FiniteGroup._commuting_graph``):
    the larger class members that commute with x.  Each is compared with the
    other k-1 members only, so level 2 makes no comparison.  Parents are
    taken in order and their candidates in ascending order, so the extensions
    come out lexicographically sorted.
    """
    t, graph = g.table, g._commuting_graph
    k = level.shape[1]
    first = graph.row_self[level[:, -1]] + 1
    count = graph.row_end[level[:, -1]] - first
    rows, wits = [], []
    for parent, cand in _candidate_blocks(graph.rows, first, count, _BLOCK):
        for j in range(k - 1):
            y = level[parent, j]
            commuting = t[y, cand] == t[cand, y]
            parent, cand = parent[commuting], cand[commuting]
        ext = np.concatenate([level[parent], cand[:, None]], axis=1)
        found = _least_witnesses(g, ext)
        certified = (found >= 0).all(axis=1)
        rows.append(ext[certified])
        wits.append(found[certified])
    return np.concatenate(rows), np.concatenate(wits)


def enumerate_tss(g: FiniteGroup, size: int) -> list[TssCertificate]:
    """All TSS of exactly the given size, in lexicographic element order:
    the size-th level of ``tss_by_size``."""
    if size < 1:
        raise TssError(f"size must be >= 1, got {size}")
    for level, witnesses in _levels(g):
        if level.shape[1] == size:
            return _certificates(g, level, witnesses)
    return []


def max_tss_size(g: FiniteGroup, up_to_conjugacy: bool = False) -> TssReport:
    """S(G) with all certified maximal sets, from the levels of ``tss_by_size``;
    only the last level's certificates are made."""
    counts: dict[int, int] = {}
    for level, witnesses in _levels(g):
        counts[level.shape[1]] = len(level)
        top = level, witnesses
    best = _certificates(g, *top)
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
    sets that are the lexicographic minimum of their orbit.

    Sets of one size are decided together by ``_orbit_minima``.
    """
    keep = np.zeros(len(certs), dtype=bool)
    by_size: dict[int, list[int]] = {}
    for i, cert in enumerate(certs):
        by_size.setdefault(len(cert.elements), []).append(i)
    for idx in by_size.values():
        sets = np.array([certs[i].elements for i in idx], dtype=np.intp)
        keep[idx] = _orbit_minima(g, sets)
    return [cert for cert, kept in zip(certs, keep.tolist()) if kept]


def _orbit_minima(g: FiniteGroup, sets: np.ndarray) -> np.ndarray:
    """For each sorted row of an (e, k) array, whether it is the least sorted
    image of itself under conjugation.

    That image starts with the least class member of the set's members, so
    only the rows that start with it go to ``_orbit_minima_kernel``.
    """
    part = conjugacy_classes(g)
    least = np.array(part.representatives, dtype=np.intp)[np.array(part.class_of)]
    out = least[sets].min(axis=1) == sets[:, 0]
    out[out] = _orbit_minima_kernel(g, sets[out])
    return out


def _orbit_minima_kernel(g: FiniteGroup, sets: np.ndarray) -> np.ndarray:
    """``_orbit_minima`` for every row, with no prefilter.

    Row q of a set's images is its image under q; the identity's row is the set
    itself.  The rows are narrowed to the lexicographically least sorted image
    one column at a time, and a set is kept iff each column minimum equals its
    own entry.  The rows still in after column j-1 share the j smallest
    entries, so their sorted column j is their least entry above the previous
    minimum, and no row is sorted.  Sets go through in blocks of about
    ``_BLOCK`` gathered entries.
    """
    e, k = sets.shape
    n = g.order
    out = np.empty(e, dtype=bool)
    step = max(1, _BLOCK // (n * k))
    for lo in range(0, e, step):
        block = sets[lo:lo + step]
        images = _conjugates(g, block)  # images[q, r, j] = q block[r, j] q^-1
        column = images.min(axis=2)
        keep = np.ones(len(block), dtype=bool)
        for j in range(k):
            least = column.min(axis=0)
            keep &= least == block[:, j]
            if j + 1 < k:
                above = np.where(images > least[:, None], images, n).min(axis=2)
                column = np.where(column == least, above, n)
        out[lo:lo + len(block)] = keep
    return out


def brute_force_tss(g: FiniteGroup, size: int) -> list[tuple[int, ...]]:
    """No-pruning oracle: every size-subset of the group, in
    ``itertools.combinations`` order, that pairwise commutes and realizes
    each of its |S|! permutations by conjugation, found by a search over all
    of G per permutation.

    Kept independent of the pruned path: it reads only ``table`` and ``inv``
    (no ``mul``, no conjugacy classes, no
    ``_least_witnesses``) and takes no adjacent-transposition shortcut.  The
    subsets are taken from ``combinations`` in blocks of about ``_BLOCK``
    entries and filtered for commutation; the survivors go through the
    permutation search in blocks whose conjugates, q s q^-1 =
    ``table[table[q, s], inv[q]]`` for every q in G, hold about ``_BLOCK``
    entries, so memory does not grow with the number of subsets.
    """
    if size < 1:
        raise TssError(f"size must be >= 1, got {size}")
    t, inv = g.table, g.inv
    q = np.arange(g.order)[:, None, None]
    perms = list(itertools.permutations(range(size)))
    subsets = itertools.chain.from_iterable(itertools.combinations(range(g.order), size))
    step = max(1, _BLOCK // (g.order * size))
    out: list[tuple[int, ...]] = []
    while True:
        sets = np.fromiter(itertools.islice(subsets, max(1, _BLOCK // size) * size),
                           dtype=t.dtype).reshape(-1, size)
        if not len(sets):
            return out
        for i, j in itertools.combinations(range(size), 2):
            sets = sets[t[sets[:, i], sets[:, j]] == t[sets[:, j], sets[:, i]]]
        for lo in range(0, len(sets), step):
            block = sets[lo:lo + step]
            images = t[t[q, block], inv[q]]  # images[q, r, i] = q block[r, i] q^-1
            total = np.ones(len(block), dtype=bool)
            for sigma in perms:
                total &= (images == block[:, sigma]).all(axis=2).any(axis=0)
                if not total.any():
                    break
            out += map(tuple, block[total].tolist())
