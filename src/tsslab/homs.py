"""Finite presentations, homomorphism enumeration, and the image checks that
machine-verify the TSS homomorphism obstructions.

Words over a presentation are sequences of signed 1-based generator numbers:
+i is generator i-1, -i its inverse.  Table-to-table homomorphisms are full
element maps verified on all pairs.

Every check runs as gathers on the groups' ``table`` and ``inv`` arrays, never
on the scalar rows ``mul``: relators, products, cosets and Schreier trees are
handled a level or a block of rows at a time.  The braid corollary check
searches sigma_1's image over conjugacy class representatives only and weighs
each map by its class size; a braid image is cyclic exactly when all generator
images are equal (``_braid_class_census``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .groups import (
    FiniteGroup,
    GroupError,
    _candidate_blocks,
    _conjugates,
    _row_blocks,
    conjugacy_classes,
    generated_subgroup,
    make_group,
)
from .tss import TssCertificate, TssError, certify_tss, max_tss_size

# Candidates per block of the homomorphism search: half the TSS search's
# block, because this search holds one block's children at every generator
# level while the later generators are assigned.
_BLOCK = 1 << 14


class HomError(ValueError):
    """Raised for invalid presentations, maps, or premise failures."""


class LemmaViolation(RuntimeError):
    """The fundamental lemma failed on verified premises (engine bug)."""


class BudgetExceeded(RuntimeError):
    def __init__(self, nodes: int, budget: int, found: int):
        super().__init__(
            f"enumeration budget exceeded: {nodes} nodes > {budget}; "
            f"{found} homomorphisms found before the cutoff"
        )
        self.nodes = nodes
        self.budget = budget
        self.found = found

    def __reduce__(self):
        # rebuilt from its fields when it crosses a --jobs worker boundary
        return BudgetExceeded, (self.nodes, self.budget, self.found)


DEFAULT_HOM_BUDGET = 10**8
# B_n has (n-1)(n-2)/2 relators, all built before the budget counts a node
BRAID_STRAND_CAP = 1000


@dataclass(frozen=True)
class Presentation:
    generator_count: int
    relators: tuple[tuple[int, ...], ...]
    name: str = "presentation"

    def __post_init__(self) -> None:
        if self.generator_count < 1:
            raise HomError("presentation needs at least one generator")
        for rel in self.relators:
            if not rel:
                raise HomError("relator words must be nonempty")
            for letter in rel:
                if letter == 0 or abs(letter) > self.generator_count:
                    raise HomError(f"relator letter {letter} references no generator")


@dataclass(frozen=True)
class GeneratorImageMap:
    presentation: Presentation
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.presentation.generator_count:
            raise HomError("one image per generator required")
        for x in self.images:
            self.target.check_index(x)


@dataclass(frozen=True)
class TableHom:
    """Homomorphism between table groups as a full element map."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) != self.source.order:
            raise HomError("mapping must cover every source element")
        for x in self.mapping:
            self.target.check_index(x)


def braid_presentation(n: int) -> Presentation:
    """B_n on Artin generators: far commutation plus the braid relation."""
    if n < 2:
        raise HomError(f"braid group needs at least 2 strands, got {n}")
    if n > BRAID_STRAND_CAP:
        raise HomError(f"braid group strands must be <= {BRAID_STRAND_CAP}, got {n}")
    k = n - 1
    relators: list[tuple[int, ...]] = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if j - i >= 2:
                relators.append((i, j, -i, -j))
            else:
                relators.append((i, j, i, -j, -i, -j))
    return Presentation(k, tuple(relators), name=f"braid:{n}")


def odd_artin_generators(n: int) -> tuple[int, ...]:
    """0-based indices of sigma_1, sigma_3, ... in B_n (a size-floor(n/2) TSS)."""
    if n < 2:
        raise HomError(f"braid group needs at least 2 strands, got {n}")
    return tuple(range(0, n - 1, 2))


def evaluate_word(target: FiniteGroup, images: np.ndarray, word: Sequence[int]) -> np.ndarray:
    """The value of ``word`` under each row of ``images``, an (m, k) array of
    generator images: m elements, in the dtype of ``target.table``.

    Each letter is one gather into ``target.table`` for all rows at once;
    inverse letters read their images through ``target.inv``.
    """
    table = target.table
    acc = np.full(len(images), target.identity, dtype=table.dtype)
    for letter in word:
        x = images[:, abs(letter) - 1]
        if letter < 0:
            x = target.inv[x]
        acc = table[acc, x]
    return acc


def is_homomorphism(m: GeneratorImageMap) -> bool:
    row = np.array([m.images], dtype=np.intp)
    return all(
        evaluate_word(m.target, row, rel)[0] == m.target.identity
        for rel in m.presentation.relators
    )


def _two_generator_relation(rel: tuple[int, ...]) -> Optional[tuple[str, int, int]]:
    """Classify x y x^-1 y^-1 ("commute") and x y x y^-1 x^-1 y^-1 ("braid",
    i.e. xyx = yxy) on two distinct generators x, y; returns the kind and the
    0-based generator indices in ascending order, or None for any other
    relator."""
    if len(rel) < 4:
        return None
    a, b = rel[0], rel[1]
    if a <= 0 or b <= 0 or a == b:
        return None
    i, j = min(a, b) - 1, max(a, b) - 1
    if rel[2:] == (-a, -b):
        return "commute", i, j
    if rel[2:] == (a, -b, -a, -b):
        return "braid", i, j
    return None


def _image_map(pres: Presentation, target: FiniteGroup,
               images: tuple[int, ...]) -> GeneratorImageMap:
    """A map whose images are in range by construction: no field check."""
    m = object.__new__(GeneratorImageMap)
    m.__dict__.update(presentation=pres, target=target, images=images)
    return m


def enumerate_homs(
    pres: Presentation,
    target: FiniteGroup,
    budget: int = DEFAULT_HOM_BUDGET,
    first_image_up_to_conjugacy: bool = False,
) -> Iterator[GeneratorImageMap]:
    """All homomorphisms, in lexicographic order of the image tuples.

    Images are assigned one generator at a time, to a whole level of partial
    image tuples at once: level j is an array of rows of the first j images,
    in lexicographic order.  Candidates for a generator come from what the
    relators already imply.  Braid relators (xyx = yxy) make their two
    generators conjugate, so a generator tied by them to an earlier one draws
    its image from the conjugacy class of the earliest tied generator's image
    x, ascending; an untied generator draws from every element.  When that
    earliest generator is also a commutator partner (every Artin generator
    from sigma_3 on), the generator draws from x's commuting pool instead: the
    members of x's class that commute with x, x's row of the target's
    commuting graph (``FiniteGroup._commuting_graph``, built once per group
    and shared with the TSS levels).  A commutator relator keeps only the candidates
    that commute with the earlier generator's image; a block's remaining
    partners are compared in one stacked gather, ``table[y, cand] ==
    table[cand, y]`` over the partner images y of each candidate's row.  A
    search node, counted against the budget, is a candidate that passes the
    class and commutator filters.  Then each braid relator with an earlier
    generator keeps the nodes whose images satisfy xyx = yxy, four table
    gathers on (row, candidate), and every other relator is evaluated by
    ``evaluate_word`` on the new rows as soon as all its generators are
    assigned.

    The parents of a level are extended in blocks of about ``_BLOCK``
    candidates (weighing each parent by its class size, also where it draws
    from a smaller pool), and each block's children are carried down to the
    last generator before the next block starts (a stack of one block
    iterator per generator, not recursion), so the stream is lazy and at most
    one block per generator is held at a time.  Nodes are counted a block at
    a time: ``BudgetExceeded`` is raised as soon as the count passes
    ``budget``, so its ``nodes`` can exceed ``budget + 1``, and its ``found``
    counts the maps already yielded.

    The optional symmetry reduction restricts the first generator image to one
    representative per conjugacy class (off by default; the stream then
    contains at least one member of each conjugation orbit of homomorphisms,
    and ``braid_cyclic_corollary_check`` reads it through
    ``_braid_class_census``).
    """
    k = pres.generator_count
    tied = list(range(k))  # union-find over braid relators; roots are least members

    def root(i: int) -> int:
        while tied[i] != i:
            i = tied[i]
        return i

    commutes_with: list[Sequence[int]] = [[] for _ in range(k)]
    index = list(range(k))  # one int object per generator, shared by its pairs
    braids_with: list[list[int]] = [[] for _ in range(k)]
    by_level: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    for rel in pres.relators:
        shape = _two_generator_relation(rel)
        if shape is None:
            by_level[max(abs(letter) for letter in rel) - 1].append(rel)
            continue
        kind, i, j = shape
        if kind == "commute":
            commutes_with[j].append(index[i])
        else:
            braids_with[j].append(i)
            lo, hi = sorted((root(i), root(j)))
            tied[hi] = lo
    earliest = [root(i) for i in range(k)]
    # a level whose earliest tied generator is also a commutator partner draws
    # from that image's commuting pool, which stands for that partner's filter
    pooled = [earliest[j] < j and earliest[j] in commutes_with[j] for j in range(k)]
    for j, partners in enumerate(commutes_with):  # to index arrays, in place
        partners = np.array(partners, dtype=np.intp)
        commutes_with[j] = partners[partners != earliest[j]] if pooled[j] else partners

    table = target.table
    everything = np.arange(target.order, dtype=table.dtype)  # images in the table's dtype
    first_pool = (np.array(conjugacy_classes(target).representatives, dtype=table.dtype)
                  if first_image_up_to_conjugacy else everything)
    nodes = found = 0

    def candidates(rows: np.ndarray, level: int) -> tuple[np.ndarray, ...]:
        """The pool, each row's first candidate and candidate count in it, and
        the weight that cuts the rows into blocks."""
        if level == 0:  # one empty row
            count = np.array([len(first_pool)])
            return first_pool, np.zeros(1, dtype=np.intp), count, count
        if earliest[level] < level:
            graph = target._commuting_graph
            x = rows[:, earliest[level]]
            size = graph.class_end[x] - graph.class_start[x]
            if pooled[level]:
                start = graph.row_start[x]
                return graph.rows, start, graph.row_end[x] - start, size
            return graph.members, graph.class_start[x], size, size
        count = np.full(len(rows), target.order)
        return everything, np.zeros(len(rows), dtype=np.intp), count, count

    def grow(rows: np.ndarray, level: int, parent: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """The rows one image longer made from a block of candidates: those
        that pass the commutator filter, counted as nodes, then the braid
        relators and every other relator of this level."""
        nonlocal nodes
        others = commutes_with[level]
        if len(others):
            keep = np.empty(len(cand), dtype=bool)
            step = max(1, _BLOCK // len(others))
            for lo in range(0, len(cand), step):
                y = rows[parent[lo:lo + step, None], others]
                c = cand[lo:lo + step, None]
                keep[lo:lo + step] = (table[y, c] == table[c, y]).all(axis=1)
            parent, cand = parent[keep], cand[keep]
        nodes += len(cand)
        if nodes > budget:
            raise BudgetExceeded(nodes, budget, found)
        for other in braids_with[level]:
            x = rows[parent, other]
            keep = table[table[x, cand], x] == table[table[cand, x], cand]
            parent, cand = parent[keep], cand[keep]
        children = np.concatenate([rows[parent], cand[:, None]], axis=1)
        for rel in by_level[level]:
            children = children[evaluate_word(target, children, rel) == target.identity]
        return children

    def extend(rows: np.ndarray, level: int) -> Iterator[np.ndarray]:
        # rows' children block by block; map lets go of a block once they exist
        pool, first, count, weight = candidates(rows, level)
        return map(lambda block: grow(rows, level, *block),
                   _candidate_blocks(pool, first, count, _BLOCK, weight))

    stack = [extend(np.empty((1, 0), dtype=table.dtype), 0)]
    while stack:
        children = next(stack[-1], None)
        if children is None:
            stack.pop()
        elif len(stack) < k:
            stack.append(extend(children, len(stack)))
        else:
            for images in children.tolist():
                found += 1
                yield _image_map(pres, target, tuple(images))


def image_subgroup(m: GeneratorImageMap) -> tuple[int, ...]:
    return generated_subgroup(m.target, set(m.images))


def is_table_homomorphism(h: TableHom) -> bool:
    """Whether f(ab) = f(a) f(b) for all a, b: ``f[S] == T[f[:, None], f]``,
    compared a block of rows a at a time."""
    f = np.array(h.mapping, dtype=h.target.table.dtype)
    s, t = h.source.table, h.target.table
    for rows in _row_blocks(h.source.order, max(h.source.order, h.target.order)):
        if not (f[s[rows]] == t.take(f[rows], 0).take(f, 1)).all():
            return False
    return True


def identity_hom(g: FiniteGroup) -> TableHom:
    return TableHom(g, g, tuple(range(g.order)))


def quotient_hom(g: FiniteGroup, normal: Sequence[int]) -> TableHom:
    """Quotient map G -> G/N for a normal subgroup given by its elements.

    Cosets are indexed in order of their least member, so the identity coset
    is element 0 of the quotient.
    """
    nset = tuple(sorted(set(normal)))
    if generated_subgroup(g, nset) != nset:
        raise HomError("normal-subgroup elements do not form a subgroup")
    outside = ~np.isin(_conjugates(g, nset), nset)  # [q, j]: q nset[j] q^-1 not in N
    if outside.any():
        q, j = map(int, np.argwhere(outside)[0])
        raise HomError(f"subgroup is not normal: {q} conjugates {nset[j]} outside it")
    # row x holds the coset xN; its least member names it
    reps, coset_of = np.unique(g.table[:, nset].min(axis=1), return_inverse=True)
    mul = coset_of[g.table[np.ix_(reps, reps)]]
    labels = [f"[{g.label(r)}]" for r in reps.tolist()]
    quotient = make_group(mul, labels, name=f"{g.name}/N{len(nset)}")
    return TableHom(g, quotient, tuple(coset_of.tolist()))


def enumerate_table_homs(
    source: FiniteGroup, target: FiniteGroup, budget: int = DEFAULT_HOM_BUDGET
) -> Iterator[TableHom]:
    """All homomorphisms between table groups, in lexicographic order of the
    images of ``source.generators`` (the identity for the trivial group).

    The source is presented by its Schreier presentation on that generating
    set: the breadth-first spanning tree of the Cayley graph spells each
    element as a word, and each non-tree edge x -> x*gen gives the relator
    word(x) gen word(x*gen)^-1.  ``enumerate_homs`` finds the generator images
    that satisfy these relators (``budget`` bounds its search nodes); each
    extends along the tree to a full element map, which is yielded only if it
    preserves all products.
    """
    gens = np.array(source.generators or (source.identity,))
    k = len(gens)
    words: list[Optional[tuple[int, ...]]] = [None] * source.order
    words[source.identity] = ()
    frontier = np.array([source.identity])
    tree = []  # per level: the new elements, their parents and generator positions
    relators: list[tuple[int, ...]] = []
    while frontier.size:
        # the edges x -> x*gen of one level, x in breadth-first order, then gen
        ends = source.table.take(frontier, 0).take(gens, 1).ravel()
        edges = []
        for pos, (x, y) in enumerate(zip(np.repeat(frontier, k).tolist(), ends.tolist())):
            word = words[x] + (pos % k + 1,)
            if words[y] is None:
                words[y] = word
                edges.append(pos)
            else:
                relators.append(word + tuple(-letter for letter in reversed(words[y])))
        edges = np.array(edges, dtype=np.intp)
        tree.append((ends[edges], frontier[edges // k], edges % k))
        frontier = ends[edges]
    if None in words:  # pragma: no cover
        raise GroupError("generating set does not reach the full group")
    pres = Presentation(k, tuple(relators), name=f"schreier:{source.name}")

    t = target.table
    for assignment in enumerate_homs(pres, target, budget=budget):
        images = np.array(assignment.images, dtype=t.dtype)
        f = np.full(source.order, target.identity, dtype=t.dtype)
        for children, parents, gen_pos in tree:
            f[children] = t[f[parents], images[gen_pos]]
        hom = TableHom(source, target, tuple(f.tolist()))
        if is_table_homomorphism(hom):
            yield hom


@dataclass(frozen=True)
class LemmaVerdict:
    """Outcome of a fundamental-lemma check: image collapsed to a point or
    carried over at full size (in which case it is a certified TSS)."""

    branch: str  # "collapsed" or "same_size"
    image: tuple[int, ...]
    certificate: Optional[TssCertificate]


def fundamental_lemma_check(
    hom: Union[TableHom, GeneratorImageMap], s: Sequence[int]
) -> LemmaVerdict:
    """Check that the image of a certified TSS has size |s| or 1, and in the
    former case is itself a certified TSS of the target.

    For table maps, s holds source element indices and is certified here.
    For braid presentations, s holds generator indices and must be a subset
    of the odd Artin generators (the stock TSS of B_n).
    """
    if isinstance(hom, TableHom):
        if not is_table_homomorphism(hom):
            raise HomError("table map does not preserve products")
        cert = certify_tss(hom.source, s)
        if cert is None:
            raise TssError(f"{tuple(s)} is not a TSS in {hom.source.name}")
        image = tuple(sorted({hom.mapping[x] for x in cert.elements}))
        size = len(cert.elements)
        target = hom.target
    elif isinstance(hom, GeneratorImageMap):
        pres, tail = hom.presentation, hom.presentation.name.removeprefix("braid:")
        if tail == pres.name or not tail.isdecimal() or pres != braid_presentation(int(tail)):
            raise HomError("presentation TSS fixtures are supported for braid groups only")
        if not is_homomorphism(hom):
            raise HomError("generator images do not satisfy the relators")
        allowed = set(odd_artin_generators(int(tail)))
        chosen = sorted(set(s))
        if not chosen or not set(chosen) <= allowed:
            raise TssError(
                f"{tuple(s)} is not a subset of the odd Artin generators {sorted(allowed)}"
            )
        image = tuple(sorted({hom.images[i] for i in chosen}))
        size = len(chosen)
        target = hom.target
    else:
        raise HomError(f"unsupported map type {type(hom)!r}")

    if len(image) == 1:
        return LemmaVerdict("collapsed", image, None)
    if len(image) != size:
        raise LemmaViolation(
            f"image size {len(image)} is neither 1 nor {size}: {image}"
        )
    target_cert = certify_tss(target, image)
    if target_cert is None:
        raise LemmaViolation(f"full-size image {image} is not a TSS in {target.name}")
    return LemmaVerdict("same_size", image, target_cert)


@dataclass(frozen=True)
class BraidCorollaryReport:
    strands: int
    target_name: str
    threshold: int
    s_target: int
    applicable: bool
    hom_count: int
    image_order_histogram: dict[int, int]
    all_cyclic: bool
    noncyclic_images: tuple[tuple[int, ...], ...]
    elapsed_s: float


def _braid_class_census(
    homs: Iterable[GeneratorImageMap],
    target: FiniteGroup,
    on_noncyclic: Optional[Callable[[GeneratorImageMap], None]] = None,
) -> tuple[int, dict[int, int], tuple[tuple[int, ...], ...]]:
    """The count, the image-order histogram (sorted) and the non-cyclic
    images of every homomorphism from a braid group to ``target``, read from
    the stream that sends sigma_1 to one representative per conjugacy class
    (``enumerate_homs(..., first_image_up_to_conjugacy=True)``).

    Conjugation by g maps the homomorphisms with sigma_1 -> x one-to-one onto
    those with sigma_1 -> g x g^-1, and keeps each image's order and whether
    it is cyclic.  So each map of the stream stands for |x^G| maps, its class
    size in the target's commuting graph, in the count and the histogram.

    Adjacent Artin generators satisfy xyx = yxy, so if their images commute
    then x^2 y = x y^2, that is x = y.  So an image is cyclic iff it is
    abelian iff all generator images are equal, and its order is then that
    image's, from ``element_orders``.  Only non-cyclic images are closed.
    Each non-cyclic map is expanded to its conjugates, q images q^-1 for
    every q (``_conjugates``): their distinct rows, in lexicographic order,
    are the non-cyclic images of the full stream, and ``on_noncyclic`` is
    called on them in that order once the stream ends.
    """
    graph = target._commuting_graph
    histogram: dict[int, int] = {}
    count = 0
    conjugates: list[np.ndarray] = []
    for hom in homs:
        first = hom.images[0]
        weight = int(graph.class_end[first] - graph.class_start[first])
        count += weight
        if hom.images.count(first) == len(hom.images):
            size = int(target.element_orders[first])
        else:
            size = len(image_subgroup(hom))
            conjugates.append(_conjugates(target, hom.images))
        histogram[size] = histogram.get(size, 0) + weight
    noncyclic: tuple[tuple[int, ...], ...] = ()
    if conjugates:
        rows = np.unique(np.concatenate(conjugates), axis=0)
        noncyclic = tuple(map(tuple, rows.tolist()))
    if on_noncyclic is not None:
        for images in noncyclic:
            on_noncyclic(_image_map(hom.presentation, target, images))
    return count, dict(sorted(histogram.items())), noncyclic


def braid_cyclic_corollary_check(
    n: int,
    target: FiniteGroup,
    budget: int = DEFAULT_HOM_BUDGET,
    on_noncyclic: Optional[Callable[[GeneratorImageMap], None]] = None,
) -> BraidCorollaryReport:
    """Exhaustively check that every homomorphism B_n -> target has cyclic
    image, under the hypothesis S(target) < floor(n/2).

    A violated hypothesis is reported as not applicable, never as a failure.
    The search sends sigma_1 to one representative per conjugacy class, and
    ``budget`` bounds its nodes; ``_braid_class_census`` reports from it on
    every homomorphism and calls ``on_noncyclic`` once the search ends.
    """
    if n < 5:
        raise HomError(f"the cyclic-image corollary is stated for n >= 5 strands, got {n}")
    start = time.perf_counter()
    threshold = n // 2
    s_target = max_tss_size(target).s_of_g
    count, histogram, noncyclic = 0, {}, ()
    if s_target < threshold:
        homs = enumerate_homs(braid_presentation(n), target, budget=budget,
                              first_image_up_to_conjugacy=True)
        count, histogram, noncyclic = _braid_class_census(homs, target, on_noncyclic)
    return BraidCorollaryReport(
        strands=n,
        target_name=target.name,
        threshold=threshold,
        s_target=s_target,
        applicable=s_target < threshold,
        hom_count=count,
        image_order_histogram=histogram,
        all_cyclic=not noncyclic,
        noncyclic_images=noncyclic,
        elapsed_s=time.perf_counter() - start,
    )

