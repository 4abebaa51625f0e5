"""Independent brute-force oracles for cross-checking the engine.

These deliberately avoid the library's own algorithms: conjugacy is decided
by naive witness search over all pairs, centralizers by direct scans.  The
helpers that only tests call sit here too, though some of them read the
library: ``factorial_divisibility`` calls ``certify_tss`` and
``realized_permutations``, and ``ref_free_product_scan`` is the free-product
suite's clique-by-clique loop over ``fp_tss_analyze``.
"""

import itertools
import math
from typing import Optional

import numpy as np

from tsslab.cayley import CayleyTableError
from tsslab.groups import (
    ConjugacyPartition,
    DerivedSeries,
    FiniteGroup,
    GroupError,
    SemidirectParams,
    conjugacy_classes,
    direct_product,
    make_cyclic,
    make_dihedral,
    make_group,
    make_semidirect_cyclic,
    make_symmetric,
    table_dtype,
    _cycle_notation,
)
from tsslab import tss
from tsslab.homs import (
    GeneratorImageMap,
    HomError,
    Presentation,
    TableHom,
    _two_generator_relation,
    is_homomorphism,
)
from tsslab.specs import parse_group_spec, split_spec_pair
from tsslab.tss import TssError, certify_tss, realized_permutations
from tsslab.words.baumslag import BS_IDENTITY, BsElement, bs_ab, bs_inverse, bs_multiply
from tsslab.words.freegroup import FreeWord, f2_reduce
from tsslab.words.freeproduct import (
    FpWord,
    format_fp,
    fp_ball,
    fp_inverse,
    fp_multiply,
    fp_tss_analyze,
)


def conj(g: FiniteGroup, q: int, x: int) -> int:
    """q * x * q^-1."""
    return g.mul[g.mul[q][x]][g.inv[q]]


def commutes(g: FiniteGroup, x: int, y: int) -> bool:
    return g.mul[x][y] == g.mul[y][x]


def brute_conjugate_witness(g: FiniteGroup, x: int, y: int):
    for q in range(g.order):
        if conj(g, q, x) == y:
            return q
    return None


def conj_column(g: FiniteGroup, x: int) -> np.ndarray:
    """q x q^-1 for every q, gathered from ``table`` and ``inv``."""
    return g.table[g.table[:, x], g.inv]


def conjugating_witness(g: FiniteGroup, x: int, y: int) -> Optional[int]:
    """Least q with q x q^-1 = y, or None, read from the conjugates of x."""
    g.check_index(x)
    g.check_index(y)
    hits = np.flatnonzero(conj_column(g, x) == y)
    return int(hits[0]) if hits.size else None


def brute_conjugacy_partition(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Pairwise witness search, merged into classes sorted by least member."""
    classes: list[set[int]] = []
    for x in range(g.order):
        placed = False
        for cls in classes:
            rep = min(cls)
            if brute_conjugate_witness(g, rep, x) is not None:
                cls.add(x)
                placed = True
                break
        if not placed:
            classes.append({x})
    return sorted(tuple(sorted(c)) for c in classes)


def ref_conjugacy_partition(g: FiniteGroup) -> ConjugacyPartition:
    """The partition as ``FiniteGroup.conjugacy_partition`` built it with one
    ``np.unique`` per class: each x not yet placed starts a class, the set of
    conjugates of x."""
    class_of = [-1] * g.order
    classes: list[tuple[int, ...]] = []
    for x in range(g.order):
        if class_of[x] >= 0:
            continue
        members = tuple(np.unique(conj_column(g, x)).tolist())
        for y in members:
            class_of[y] = len(classes)
        classes.append(members)
    return ConjugacyPartition(
        class_of=tuple(class_of),
        classes=tuple(classes),
        representatives=tuple(cls[0] for cls in classes),
    )


def brute_centralizer(g: FiniteGroup, x: int) -> tuple[int, ...]:
    return tuple(
        y for y in range(g.order) if g.mul[x][y] == g.mul[y][x]
    )


def is_subgroup(g: FiniteGroup, elems) -> bool:
    s = set(elems)
    if g.identity not in s:
        return False
    return all(g.mul[a][b] in s for a in s for b in s) and all(g.inv[a] in s for a in s)


# --- per-entry reference formulas for the dense constructors -----------------

def ref_cyclic_mul(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def ref_dihedral_mul(n: int) -> list[list[int]]:
    """D_2n with index eps*n + i for s^eps r^i."""
    def prod(a: int, b: int) -> int:
        e1, i1 = divmod(a, n)
        e2, i2 = divmod(b, n)
        i = ((i1 if e2 == 0 else -i1) + i2) % n
        return ((e1 + e2) % 2) * n + i

    return [[prod(a, b) for b in range(2 * n)] for a in range(2 * n)]


def ref_symmetric_mul(n: int) -> list[list[int]]:
    """S_n in lexicographic one-line order, (p q)(k) = p[q[k]]."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]


def ref_symmetric(n: int, rows=None):
    """S_n's table rows, labels and generators as ``make_symmetric`` built
    them row by row: row i is the lexicographic index of p_i q for every q,
    found by ``searchsorted`` on base-n keys of the one-line forms.  Only the
    ``rows`` given (default all) are built, in that order."""
    order = math.factorial(n)
    perms = list(itertools.permutations(range(n)))
    one_line = np.array(perms, dtype=np.intp).reshape(order, n)
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.intp)
    keys = one_line @ weights
    rows = range(order) if rows is None else rows
    table = np.empty((len(rows), order), dtype=table_dtype(order))
    for out, i in zip(table, rows):
        out[:] = np.searchsorted(keys, one_line[i][one_line] @ weights)
    labels = [_cycle_notation(p) for p in perms]
    gens = None
    if n >= 2:
        transposition = perms.index(tuple([1, 0] + list(range(2, n))))
        ncycle = perms.index(tuple(list(range(1, n)) + [0]))
        gens = (transposition,) if n == 2 else (transposition, ncycle)
    return table, labels, gens


def ref_semidirect_mul(p: int, m: int, k: int) -> list[list[int]]:
    """Z_p x| Z_m with index a*m + b for r^a s^b and s r s^-1 = r^k."""
    kpow = [pow(k, b, p) for b in range(m)]

    def prod(x: int, y: int) -> int:
        a1, b1 = divmod(x, m)
        a2, b2 = divmod(y, m)
        return ((a1 + a2 * kpow[b1]) % p) * m + (b1 + b2) % m

    return [[prod(x, y) for y in range(p * m)] for x in range(p * m)]


def ref_eager_labels(spec: str) -> list[str]:
    """The labels of a constructor spec's group, formatted the way the
    constructors once formatted them eagerly, at construction."""
    kind, _, args = spec.partition(":")
    if kind == "product":
        left, right = split_spec_pair(args)
        g_labels, h_labels = ref_eager_labels(left), ref_eager_labels(right)
        return [f"({x},{y})" for x in g_labels for y in h_labels]
    nums = [int(a) for a in args.split(",")]
    if kind == "cyclic":
        n, = nums
        return ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    if kind == "dihedral":
        n, = nums

        def rot_label(i: int) -> str:
            return "e" if i == 0 else ("r" if i == 1 else f"r^{i}")

        labels = [rot_label(i) for i in range(n)]
        return labels + ["s" if i == 0 else ("sr" if i == 1 else f"sr^{i}") for i in range(n)]
    if kind == "sym":
        n, = nums
        return [_cycle_notation(p) for p in itertools.permutations(range(n))]
    assert kind == "semidirect", spec
    p, m, _ = nums

    def lab(a: int, b: int) -> str:
        if a == 0 and b == 0:
            return "e"
        ra = "" if a == 0 else ("r" if a == 1 else f"r^{a}")
        sb = "" if b == 0 else ("s" if b == 1 else f"s^{b}")
        return ra + sb

    return [lab(a, b) for a in range(p) for b in range(m)]


def ref_product_mul(g: FiniteGroup, h: FiniteGroup) -> list[list[int]]:
    """Componentwise product with index x*|H| + y."""
    pairs = [(x, y) for x in range(g.order) for y in range(h.order)]
    return [[g.mul[x1][x2] * h.order + h.mul[y1][y2] for (x2, y2) in pairs]
            for (x1, y1) in pairs]


def dense_corpus() -> list[tuple[FiniteGroup, list[list[int]]]]:
    """Every constructor at small parameters, and products of them."""
    out = [(make_cyclic(n), ref_cyclic_mul(n)) for n in range(1, 13)]
    out += [(make_dihedral(n), ref_dihedral_mul(n)) for n in range(1, 13)]
    out += [(make_symmetric(n), ref_symmetric_mul(n)) for n in range(1, 6)]
    for p, m, k in [(2, 1, 1), (3, 2, 2), (3, 6, 2), (5, 4, 2), (7, 3, 2), (7, 6, 3),
                    (11, 5, 3), (13, 3, 3), (5, 4, 1)]:
        out.append((make_semidirect_cyclic(SemidirectParams(p, m, k)),
                    ref_semidirect_mul(p, m, k)))
    factors = [make_cyclic(1), make_cyclic(4), make_dihedral(3), make_symmetric(3),
               make_semidirect_cyclic(SemidirectParams(7, 3, 2))]
    for g, h in [(factors[0], factors[2]), (factors[1], factors[2]), (factors[2], factors[3]),
                 (factors[3], factors[1]), (factors[4], factors[1]),
                 (make_symmetric(4), factors[3])]:
        out.append((direct_product(g, h), ref_product_mul(g, h)))
    return out


# --- reference for table validation ------------------------------------------

def ref_check_latin(mul: np.ndarray) -> None:
    """The Latin-square check with both sorts made by ``np.sort``, the columns
    through the transposed view."""
    n = mul.shape[0]
    expect = np.arange(n, dtype=mul.dtype)
    rows_ok = (np.sort(mul, axis=1) == expect).all(axis=1)
    if not rows_ok.all():
        r = int(np.argmin(rows_ok))
        c = int(np.argmax(np.bincount(mul[r], minlength=n) > 1))
        raise GroupError(f"not a Latin square: row {r} repeats entry {c}")
    cols_ok = (np.sort(mul.T, axis=1) == expect).all(axis=1)
    if not cols_ok.all():
        c = int(np.argmin(cols_ok))
        r = int(np.argmax(np.bincount(mul[:, c], minlength=n) > 1))
        raise GroupError(f"not a Latin square: column {c} repeats entry {r}")


def ref_check_assoc(mul: np.ndarray) -> None:
    """The full associativity scan, x-major: raises GroupError naming the first
    failing triple (x, y, z)."""
    # (x*y)*z == x*(y*z), vectorized row by row to bound memory; the intp copy
    # (at most 512^2 entries here) saves converting the index on every row
    index = mul.astype(np.intp)
    for x in range(mul.shape[0]):
        lhs = mul[index[x]]         # lhs[y, z] = (x*y)*z
        rhs = mul[x][index]         # rhs[y, z] = x*(y*z)
        if not np.array_equal(lhs, rhs):
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            raise GroupError(f"associativity fails at triple ({x}, {y}, {z})")


def ref_check_table(mul: np.ndarray) -> None:
    """The checks of a table from outside in their fixed order, each on the
    whole table: the Latin square (``ref_check_latin``), the least two-sided
    identity, a two-sided inverse for every element, then, up to order 512,
    associativity by the full scan (``ref_check_assoc``), which names the
    first failing triple.  Above 512 ``make_group`` names Light's failing
    triple instead, which this reference does not compute, so it is compared
    only on tables that fail an earlier check."""
    mul = np.asarray(mul)
    n = mul.shape[0]
    every = np.arange(n)
    ref_check_latin(mul)
    identities = np.flatnonzero((mul == every).all(axis=1) & (mul.T == every).all(axis=1))
    if not identities.size:
        raise GroupError("table has no two-sided identity")
    e = int(identities[0])
    inv = np.argmax(mul == e, axis=1)
    for x in range(n):
        if mul[inv[x], x] != e:
            raise GroupError(f"element {x} has no two-sided inverse")
    if n <= 512:
        ref_check_assoc(mul)


# --- scalar references for the conjugation-table searches --------------------

def ref_realized_permutations(g: FiniteGroup, elems: tuple[int, ...]):
    """(stabilizer, kernel, realized) by conjugating each member with each q."""
    pos = {x: i for i, x in enumerate(elems)}
    ident = tuple(range(len(elems)))
    stab, kernel, realized = [], [], {}
    for q in range(g.order):
        perm = tuple(pos.get(conj(g, q, x)) for x in elems)
        if None in perm:
            continue
        stab.append(q)
        if perm == ident:
            kernel.append(q)
        realized.setdefault(perm, q)
    return tuple(stab), tuple(kernel), realized


def factorial_divisibility(g: FiniteGroup, s) -> bool:
    """For a TSS s: |s|! divides |Stab(s)| and |Stab(s)| divides |G|."""
    cert = certify_tss(g, s)
    if cert is None:
        raise TssError(f"{tuple(s)} is not a totally symmetric set in {g.name}")
    dec = realized_permutations(g, cert.elements)
    nstab = len(dec.stabilizer)
    return nstab % math.factorial(len(cert.elements)) == 0 and g.order % nstab == 0


def ref_transposition_witnesses(g: FiniteGroup, elems: tuple[int, ...]):
    """For each i, the least q swapping elems[i], elems[i+1] and fixing the rest."""
    m, inv = g.mul, g.inv.tolist()  # q x q^-1 as in ``conj``, with int inverses
    out = {}
    for i in range(len(elems) - 1):
        want = list(elems)
        want[i], want[i + 1] = want[i + 1], want[i]
        out[(i, i + 1)] = next(
            (q for q in range(g.order) if [m[m[q][x]][inv[q]] for x in elems] == want), None
        )
    return out


def ref_least_witnesses(g: FiniteGroup, sets: np.ndarray) -> np.ndarray:
    """``tss._least_witnesses`` as it scanned full rows of a conjugation
    table: for each sorted k-set (a row of ``sets``) and each i, the least q
    whose row of C[:, set], C[q, x] = q x q^-1, is the set with members i and
    i+1 swapped, or -1.  C is built here from ``table`` and ``inv``."""
    t = g.table
    c = t[t, g.inv[:, None]]  # c[q, x] = (q x) q^-1
    k = sets.shape[1]
    swaps = np.tile(np.arange(k), (k - 1, 1))
    for i in range(k - 1):
        swaps[i, i:i + 2] = i + 1, i
    step = max(1, (1 << 20) // (g.order * k * k))  # sets per block of hits
    out = [np.empty((0, k - 1), dtype=np.intp)]
    for lo in range(0, len(sets), step):
        block = sets[lo:lo + step]
        hit = (c[:, block][:, :, None, :] == block[:, swaps]).all(axis=3)  # [q, r, i]
        out.append(np.where(hit.any(axis=0), hit.argmax(axis=0), -1))
    return np.concatenate(out)


def ref_dedup(g: FiniteGroup, sets) -> list[tuple[int, ...]]:
    """The sets equal to the least sorted image of themselves under conjugation.

    The images q s q^-1 are read off ``table`` and ``inv`` for every q at once;
    each image is sorted, and the least one is the first row of a full
    lexicographic sort."""
    q = np.arange(g.order)
    inv = np.array(g.inv)
    kept = []
    for s in sets:
        images = np.sort(g.table[g.table[q[:, None], list(s)], inv[:, None]], axis=1)
        least = images[np.lexsort(images.T[::-1])[0]]
        if tuple(least.tolist()) == tuple(s):
            kept.append(s)
    return kept


# --- per-entry references for the table codec and the scalar rows ------------

def ref_eager_mul(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The rows of ``table`` as tuples, built the way groups once built them
    eagerly: gathered from one object array of the ints 0..order-1."""
    ints = np.array(range(g.order), dtype=object)
    return tuple(tuple(ints[row].tolist()) for row in g.table)


def ref_from_cayley_table(text: str, name: str = "table-group") -> FiniteGroup:
    """The token-by-token Cayley decoder: every row split and each entry looked
    up, or read by ``int`` when it is not the writer's spelling."""
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
    entry = {str(v): v for v in range(n)}.__getitem__
    for r in range(n):
        lineno, toks = rows[1 + r]
        if len(toks) != n:
            raise CayleyTableError(
                f"expected {n} entries, found {len(toks)}", line=lineno, row=r
            )
        try:
            table[r] = list(map(entry, toks))
        except KeyError:
            table[r] = _ref_parse_row(toks, n, lineno, r)

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


def _ref_parse_row(toks: list[str], n: int, lineno: int, r: int) -> list[int]:
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


# --- whole-word references for free-product and F2 word arithmetic -----------

def ref_fp_normalize(left: FiniteGroup, right: FiniteGroup, raw) -> FpWord:
    """Normal form of a raw syllable sequence by the cascading stack: merge
    each syllable into the top while they share a factor, drop identities.
    The result goes through the checking ``FpWord`` constructor."""
    stack: list[tuple[int, int]] = []
    for syl in raw:
        cur = syl
        while cur is not None:
            tag, elem = cur
            factor = left if tag == 0 else right
            if elem == factor.identity:
                cur = None
            elif stack and stack[-1][0] == tag:
                cur = (tag, factor.mul[stack.pop()[1]][elem])
            else:
                stack.append(cur)
                cur = None
    return FpWord(left, right, tuple(stack))


def ref_fp_multiply(u: FpWord, v: FpWord) -> FpWord:
    """u v by concatenating the words and re-normalizing the whole result."""
    return ref_fp_normalize(u.left, u.right, u.syllables + v.syllables)


def ref_fp_cyclic_reduce(w: FpWord) -> tuple[FpWord, FpWord]:
    """(core, conjugator) with w = c core c^-1, peeling one syllable pair at a
    time from a list copy; nothing is cached."""
    core = list(w.syllables)
    prefix: list[tuple[int, int]] = []
    while len(core) >= 2 and core[0][0] == core[-1][0]:
        tag, first = core[0]
        factor = w.factor(tag)
        prefix.append((tag, first))
        merged = factor.mul[core[-1][1]][first]
        core = core[1:-1]
        if merged != factor.identity:
            core.append((tag, merged))
    return (FpWord(w.left, w.right, tuple(core)),
            ref_fp_normalize(w.left, w.right, prefix))


def ref_fp_primitive_root(w: FpWord) -> tuple[FpWord, int]:
    """(root, k) with w = root^k and root primitive, from the least period of
    the core, conjugated back; raises ValueError for factor conjugates."""
    core, conj = ref_fp_cyclic_reduce(w)
    syls = core.syllables
    if len(syls) < 2:
        raise ValueError("primitive roots are extracted for non-factor words only")
    p = next(p for p in range(2, len(syls) + 1, 2)
             if len(syls) % p == 0 and syls == syls[:p] * (len(syls) // p))
    inv_conj = [(tag, int(w.factor(tag).inv[elem])) for tag, elem in reversed(conj.syllables)]
    root = ref_fp_normalize(w.left, w.right, [*conj.syllables, *syls[:p], *inv_conj])
    return root, len(syls) // p


def ref_fp_commuting_cliques(left: FiniteGroup, right: FiniteGroup, max_syllables: int):
    """The pairwise-commuting subsets of size >= 2 of the identity-free ball,
    listed one word at a time: each ``FpWord`` is keyed by its reference
    cyclic reduction and primitive root, the families follow the text of
    their keys, and each family's cliques are listed depth-first over an
    adjacency of exact products."""
    families: dict[tuple, list[FpWord]] = {}
    for w in fp_ball(left, right, max_syllables):
        if w.is_identity():
            continue
        core, conj = ref_fp_cyclic_reduce(w)
        if len(core) <= 1:
            key = ("factor", core.syllables[0][0], conj.syllables)
        else:
            root, _ = ref_fp_primitive_root(w)
            key = ("root", min(root.syllables, fp_inverse(root).syllables))
        families.setdefault(key, []).append(w)
    for key in sorted(families, key=str):
        members = families[key]
        adjacency = {
            (i, j): fp_multiply(members[i], members[j]) == fp_multiply(members[j], members[i])
            for i in range(len(members))
            for j in range(i + 1, len(members))
        }

        def extend(chosen: list[int], start: int):
            if len(chosen) >= 2:
                yield [members[i] for i in chosen]
            for idx in range(start, len(members)):
                if all(adjacency[(c, idx)] for c in chosen):
                    chosen.append(idx)
                    yield from extend(chosen, idx + 1)
                    chosen.pop()

        yield from extend([], 0)


def ref_free_product_scan(params: dict):
    """(verdict, detail, value, counterexample, repro) of the free-product
    suite by analyzing every clique of ``ref_fp_commuting_cliques`` with
    ``fp_tss_analyze``, root-family cliques included."""
    left_spec, right_spec = params["left"], params["right"]
    max_syllables = params["max_syllables"]
    g = parse_group_spec(left_spec)
    h = parse_group_spec(right_spec)
    bound = max(tss.max_tss_size(g).s_of_g, tss.max_tss_size(h).s_of_g)
    certified = 0
    biggest = 1
    for clique in ref_fp_commuting_cliques(g, h, max_syllables):
        verdict = fp_tss_analyze(clique)
        if not verdict.is_tss:
            continue
        certified += 1
        biggest = max(biggest, verdict.size)
        if verdict.size > bound:
            bad = f"TSS of size {verdict.size} > max factor bound {bound}"
        elif verdict.classification != "factor_conjugate":
            bad = f"certified TSS does not reduce to a factor: {verdict.classification}"
        else:
            continue
        words = [format_fp(w) for w in clique]
        repro = (f"tsslab word fp --factors '{left_spec},{right_spec}' analyze "
                 + " ".join(f"'{w}'" for w in words))
        return "fail", bad, None, {"words": words}, repro
    detail = (f"ball {max_syllables}: {certified} multi-element TSS, "
              f"largest {biggest} <= max factor bound {bound}")
    return "pass", detail, biggest, None, None


def ref_f2_multiply(u: FreeWord, v: FreeWord) -> FreeWord:
    """u v by freely reducing the whole concatenation."""
    return f2_reduce(u.letters + v.letters)


def bs_power(u: BsElement, k: int, n: int) -> BsElement:
    """u^k in BS(1, n), one product at a time."""
    if k < 0:
        return bs_power(bs_inverse(u, n), -k, n)
    acc = BS_IDENTITY
    for _ in range(k):
        acc = bs_multiply(acc, u, n)
    return acc


def ref_bs_commutes(u: BsElement, v: BsElement, n: int) -> bool:
    """uv = vu by multiplying both ways."""
    return bs_multiply(u, v, n) == bs_multiply(v, u, n)


def ref_bs_commuting_pairs(n: int, radius: int) -> list[tuple[BsElement, BsElement]]:
    """Distinct commuting pairs (u, v) of the ball a^i b^j, |i|, |j| <= radius,
    u before v in its i-major order, by testing every pair with
    ``ref_bs_commutes``."""
    elems = [bs_ab(i, j) for i in range(-radius, radius + 1) for j in range(-radius, radius + 1)]
    return [(u, v) for idx, u in enumerate(elems) for v in elems[idx + 1:]
            if ref_bs_commutes(u, v, n)]


# --- the per-candidate TSS search --------------------------------------------

def ref_tss_by_size(g: FiniteGroup):
    """Levels of certified TSS as lists of (elements, witnesses), one candidate
    at a time: each size-k set is extended by every larger member of its first
    member's class that commutes with all its members, and kept when
    ``ref_transposition_witnesses`` finds a witness for every transposition.
    Stops after the last nonempty level, or before size k when k! does not
    divide the order."""
    part = conjugacy_classes(g)
    level = [((x,), {}) for x in range(g.order)]
    size = 1
    while level:
        yield level
        size += 1
        if g.order % math.factorial(size):
            return
        nxt = []
        for elems, _ in level:
            for x in part.classes[part.class_of[elems[0]]]:
                if x > elems[-1] and all(commutes(g, x, y) for y in elems):
                    witnesses = ref_transposition_witnesses(g, elems + (x,))
                    if None not in witnesses.values():
                        nxt.append((elems + (x,), witnesses))
        level = nxt


# --- the depth-first homomorphism search ------------------------------------

def ref_evaluate_word(g: FiniteGroup, images, word) -> int:
    """The value of a word (signed 1-based generator numbers) under one tuple
    of generator images, one scalar product per letter."""
    acc = g.identity
    for letter in word:
        x = images[abs(letter) - 1]
        acc = g.mul[acc][x if letter > 0 else g.inv[x]]
    return acc


def ref_enumerate_homs(pres: Presentation, target: FiniteGroup,
                       first_image_up_to_conjugacy: bool = False):
    """The image tuples of ``enumerate_homs`` and its node total, one node at a
    time: a depth-first search that draws each generator's candidates from the
    class of its earliest braid-tied generator's image (every element when
    untied), keeps those commuting with the images of earlier commutator
    partners, counts each of them as a node, and checks every other relator
    as soon as its generators are assigned."""
    k = pres.generator_count
    tied = list(range(k))

    def root(i):
        while tied[i] != i:
            i = tied[i]
        return i

    commutes_with = [[] for _ in range(k)]
    by_level = [[] for _ in range(k)]
    for rel in pres.relators:
        shape = _two_generator_relation(rel)
        if shape is not None:
            kind, i, j = shape
            if kind == "commute":
                commutes_with[j].append(i)
                continue
            lo, hi = sorted((root(i), root(j)))
            tied[hi] = lo
        by_level[max(abs(letter) for letter in rel) - 1].append(rel)
    earliest = [root(i) for i in range(k)]
    part = conjugacy_classes(target)
    everything = range(target.order)
    found, images, nodes = [], [], 0

    def rec(level):
        nonlocal nodes
        if level == k:
            found.append(tuple(images))
            return
        if level == 0 and first_image_up_to_conjugacy:
            choices = part.representatives
        elif earliest[level] < level:
            choices = part.classes[part.class_of[images[earliest[level]]]]
        else:
            choices = everything
        for other in commutes_with[level]:
            choices = [y for y in choices if commutes(target, images[other], y)]
        for img in choices:
            nodes += 1
            images.append(img)
            if all(ref_evaluate_word(target, images, rel) == target.identity
                   for rel in by_level[level]):
                rec(level + 1)
            images.pop()

    rec(0)
    return found, nodes


# --- scalar references for the subgroup, series and homomorphism checks -----

def ref_generated_subgroup(g: FiniteGroup, gens) -> tuple[int, ...]:
    """Closure of gens by breadth-first search over the scalar rows ``mul``:
    each new element is multiplied by every generator."""
    gen_list = sorted(set(gens))
    m = g.mul
    members = {g.identity, *gen_list}
    frontier = list(members)
    while frontier:
        new = []
        for a in frontier:
            for b in gen_list:
                p = m[a][b]
                if p not in members:
                    members.add(p)
                    new.append(p)
        frontier = new
    return tuple(sorted(members))


def ref_derived_series(g: FiniteGroup) -> DerivedSeries:
    """G >= G' >= ...: every commutator [a, b] = (ab)(ba)^-1 of a term by a
    double loop over ``mul``, closed by ``ref_generated_subgroup``."""
    m, inv = g.mul, g.inv.tolist()
    current = tuple(range(g.order))
    terms = [current]
    while len(current) > 1:
        comms = {m[m[a][b]][inv[m[b][a]]] for a in current for b in current}
        nxt = ref_generated_subgroup(g, comms)
        if nxt == current:
            break
        terms.append(nxt)
        current = nxt
    return DerivedSeries(terms=tuple(terms), solvable=terms[-1] == (g.identity,))


def ref_brute_force_tss(g: FiniteGroup, size: int) -> list[tuple[int, ...]]:
    """Every commuting size-subset, in ``itertools.combinations`` order,
    with a scalar witness search over all q for each of its |S|! permutations,
    reading ``mul`` and a local ``inv.tolist()``."""
    if size < 1:
        raise TssError(f"size must be >= 1, got {size}")
    n = g.order
    m, inv = g.mul, g.inv.tolist()
    out: list[tuple[int, ...]] = []
    for cand in itertools.combinations(range(n), size):
        if any(
            not commutes(g, cand[i], cand[j])
            for i in range(size)
            for j in range(i + 1, size)
        ):
            continue
        total = True
        for sigma in itertools.permutations(range(size)):
            found = False
            for q in range(n):
                if all(m[m[q][cand[i]]][inv[q]] == cand[sigma[i]] for i in range(size)):
                    found = True
                    break
            if not found:
                total = False
                break
        if total:
            out.append(cand)
    return out


def ref_to_cayley_table(g: FiniteGroup) -> str:
    """The Cayley-table document, one ``" ".join`` of ``str`` entries per row."""
    lines = [str(g.order)] + [" ".join(map(str, row)) for row in g.table.tolist()]
    if g.labels is not None:
        lines += [f"label {i} {lab}" for i, lab in enumerate(g.labels)]
    return "\n".join(lines) + "\n"


def ref_element_order(g: FiniteGroup, x: int) -> int:
    """The least k with x^k = e, one scalar product at a time."""
    acc, k = x, 1
    while acc != g.identity:
        acc = g.mul[acc][x]
        k += 1
    return k


def ref_is_table_homomorphism(h: TableHom) -> bool:
    """f(ab) == f(a) f(b) for every pair, by a double loop over ``mul``."""
    sm, tm, f = h.source.mul, h.target.mul, h.mapping
    return all(f[sm[a][b]] == tm[f[a]][f[b]]
               for a in range(h.source.order) for b in range(h.source.order))


def image_is_cyclic(m: GeneratorImageMap) -> bool:
    """Whether the image subgroup of a homomorphism from any presentation is
    generated by a single element: the image closed by
    ``ref_generated_subgroup`` and scanned for a member of its order."""
    if not is_homomorphism(m):
        raise HomError("generator images do not satisfy the relators")
    sub = ref_generated_subgroup(m.target, m.images)
    return any(ref_element_order(m.target, x) == len(sub) for x in sub)


def ref_braid_image_census(homs):
    """(count, histogram, non-cyclic images) of a stream of homomorphisms:
    each image closed by ``ref_generated_subgroup`` and called cyclic when one
    of its members has the image's order."""
    histogram: dict[int, int] = {}
    count = 0
    noncyclic = []
    for hom in homs:
        count += 1
        sub = ref_generated_subgroup(hom.target, hom.images)
        histogram[len(sub)] = histogram.get(len(sub), 0) + 1
        if not any(ref_element_order(hom.target, x) == len(sub) for x in sub):
            noncyclic.append(hom.images)
    return count, dict(sorted(histogram.items())), tuple(noncyclic)
