"""Finite groups as dense multiplication tables with 0-based element indices.

Every group is a full order x order Cayley table, held once as a read-only
numpy array (``FiniteGroup.table``), the only array of order^2 entries a
group holds; ``inv`` is the array of inverses.  A group records one
generating set: subgroup closures are breadth-first searches over it
(``_close``), and conjugacy classes are the orbits of conjugation by it.
Other searches are gathers on ``table`` and ``inv``, conjugates included
(``_conjugates``).  ``mul``, the rows of ``table`` as tuples, is derived on
first use for the one scalar walk over small groups, free-product word
arithmetic on the factors.  Labels are advisory display strings only,
formatted on first read.

A group is made one of two ways.  A table from outside the library passes
the group axioms (``make_group``).  A table the library writes is not
checked at runtime: the constructors pay only for writing it, and give its
identity and inverses in closed form from the index layout, or, for a
direct product, from its factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, NoReturn, Optional, Sequence, Union

import numpy as np

DEFAULT_ASSOC_CAP = 512
DEFAULT_ORDER_CAP = 20000
DEFAULT_SYMMETRIC_CAP = 8
# Entries per block of the gathers in Light's test and in the homomorphism
# checks (a single block up to order 512), and of the index arrays of the
# commuting graph's build.
_ASSOC_BLOCK = 1 << 18
# Rows, and columns, per slab of the Latin check, which sorts a slab at a time.
_LATIN_SLAB = 256


class GroupError(ValueError):
    """Raised for invalid group constructions or out-of-range elements."""


# What a group's labels are read from: None (each element's index), the
# labels themselves, or a picklable callable that formats them.
LabelSource = Union[None, tuple[str, ...], Callable[[], tuple[str, ...]]]


def table_dtype(order: int) -> np.dtype:
    """The smallest integer dtype of ``FiniteGroup.table``: int16 up to order
    32767, else int32."""
    return np.dtype(np.int16 if order <= np.iinfo(np.int16).max else np.int32)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """An order-n group: identity, multiplication and inverse tables.

    ``table`` is the read-only order x order array, a Latin square over
    0..order-1 of dtype ``table_dtype(order)``, and ``inv`` the read-only
    array of inverses in the same dtype.  ``mul`` and ``inverses`` (the rows
    of ``table`` and ``inv`` as tuples, read only by free-product word
    arithmetic), ``element_orders``, ``conjugacy_partition`` and the
    commuting graph that the TSS levels and the homomorphism search read
    (``_commuting_graph``) are derived from them on first use and kept.
    ``ints`` holds one int object per element, and the element tuples the
    library returns are gathered from it (``element_tuple``): the rows of
    ``mul``, the ``ConjugacyPartition`` fields, ``centralizer``,
    ``generated_subgroup`` and the ``derived_series`` terms, and in ``tss``
    the certificates' elements and witnesses and the stabilizer, kernel and
    witnesses of ``realized_permutations``.  Above order 256 each entry of
    such a tuple then costs a pointer, not a pointer and a fresh int.
    ``assoc_verified`` records whether associativity is verified for all
    triples: by Light's test at runtime for every table from outside
    (``make_group``), and for the primitive constructors' tables up to order
    ``DEFAULT_ASSOC_CAP``, which the test suite checks by the group axioms
    family by family, as nothing is checked when they are built; a direct
    product is verified when both factors are and it is within that cap.
    ``generators``, None only for the trivial group, generate it (see
    ``make_group``).  ``labels`` are formatted from ``_label_source`` on
    first read and kept (``LabelSource``): tables from outside pass the
    labels, the constructors and quotients a picklable formatter.
    """

    order: int
    identity: int
    inv: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)
    _label_source: LabelSource = field(default=None, repr=False)
    generators: Optional[tuple[int, ...]] = None
    name: str = "group"
    assoc_verified: bool = True

    def check_index(self, x: int) -> int:
        if not (0 <= x < self.order):
            raise GroupError(f"element index {x} out of range for {self.name} (order {self.order})")
        return x

    @cached_property
    def labels(self) -> Optional[tuple[str, ...]]:
        """The display labels, or None when the elements are shown by index."""
        return _read_labels(self._label_source)

    def label(self, x: int) -> str:
        if self.labels is not None:
            return self.labels[x]
        return str(x)

    @cached_property
    def ints(self) -> np.ndarray:
        """Read-only object array of the ints 0..order-1, one int object per
        element, from which ``element_tuple`` gathers."""
        ints = np.array(range(self.order), dtype=object)
        ints.flags.writeable = False
        return ints

    def element_tuple(self, index: Sequence[int] | np.ndarray) -> tuple[int, ...]:
        """The elements at ``index`` as a tuple of the shared ints of ``ints``,
        so that it holds references, not fresh ints."""
        return tuple(self.ints[index].tolist())

    @cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        """The rows of ``table`` as tuples, for scalar lookups, each gathered
        by ``element_tuple``."""
        return tuple(self.element_tuple(row) for row in self.table)

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        """``inv`` as a tuple, for scalar lookups, gathered by ``element_tuple``."""
        return self.element_tuple(self.inv)

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    @cached_property
    def element_orders(self) -> np.ndarray:
        """Read-only array of element orders, in the dtype of ``table``, by
        descent from |G| one prime at a time.  For p^a exactly dividing |G|,
        y = x^(|G|/p^a) has order the p-part of o(x), which is p^j for the
        least j with y^(p^j) = e; o(x) is the product of the p-parts.  The
        powers are taken for all x at once by squaring on ``table``, so the
        work is O(order log order) gathers, not the sum of the orders."""
        t = self.table
        orders = np.ones(self.order, dtype=t.dtype)
        doubling = [np.arange(self.order)]  # x^(2^i) for every x, shared by the primes
        for p, a in _prime_powers(self.order):
            y = _power(t, doubling, self.order // p ** a)
            for j in range(a):
                above = y != self.identity
                orders[above] *= p
                if j + 1 == a or not above.any():
                    break
                y = _power(t, [y], p)
        orders.flags.writeable = False
        return orders

    @cached_property
    def conjugacy_partition(self) -> ConjugacyPartition:
        """Exact conjugacy partition; read it through ``conjugacy_classes``.

        The classes are the orbits of x -> g x g^-1, g in ``generators``: each
        label, x at first, takes the least label along each such permutation,
        both ways, then its label's label, until none moves; it is then the
        least member of the class.  A cumsum over these representatives ranks
        the classes, and a stable argsort lists each class ascending.
        """
        t, inv = self.table, self.inv
        gens = np.array(self.generators or (), dtype=np.intp)
        perms = t[t[gens], inv[gens][:, None]].astype(np.intp)  # [i, x] = g_i x g_i^-1
        least, before = np.arange(self.order), None
        while not np.array_equal(least, before):
            before = least
            for p in perms:
                least = np.minimum(least, least[p])
                least[p] = np.minimum(least[p], least)
            least = least[least]
        is_rep = least == np.arange(self.order)
        class_of = (np.cumsum(is_rep) - 1)[least]
        members = self.ints[np.argsort(class_of, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(class_of)).tolist()
        classes = tuple(tuple(members[lo:hi]) for lo, hi in zip([0] + ends, ends))
        return ConjugacyPartition(
            class_of=self.element_tuple(class_of),
            classes=classes,
            representatives=self.element_tuple(np.flatnonzero(is_rep)),
        )

    @cached_property
    def _commuting_graph(self) -> _CommutingGraph:
        """The class layout and commuting rows of ``_CommutingGraph``, built on
        first use and kept.  A stable argsort of ``class_of`` lays the classes
        out; then each unordered pair of class members x, y is compared once,
        xy = yx, and each edge found is entered in both rows: one sort of the
        keys row n + column, the diagonal included, makes the rows.  A pair
        takes about eight index entries, so a block of about
        ``_ASSOC_BLOCK // 8`` pairs holds about ``_ASSOC_BLOCK`` of them."""
        t, n = self.table, self.order
        class_of = np.array(self.conjugacy_partition.class_of, dtype=np.intp)
        members = class_of.argsort(kind="stable")
        sizes = np.bincount(class_of)
        class_end = sizes.cumsum()[class_of]
        class_start = class_end - sizes[class_of]
        # layout position p pairs with the positions after it in its class
        at = np.arange(n)
        keys = [at * (n + 1)]
        for p, y in _candidate_blocks(members, at + 1, class_end[members] - at - 1,
                                      _ASSOC_BLOCK // 8):
            x = members[p]
            hit = t[x, y] == t[y, x]
            x, y = x[hit], y[hit]
            keys += [x * n + y, y * n + x]
        keys = np.concatenate(keys)
        keys.sort(kind="stable")  # a merge sort, along the ascending runs of keys
        bounds = keys.searchsorted(np.arange(n + 1) * n)
        return _CommutingGraph(
            members=members.astype(t.dtype),
            class_start=class_start,
            class_end=class_end,
            rows=(keys % n).astype(t.dtype),
            row_start=bounds[:-1],
            row_end=bounds[1:],
            row_self=keys.searchsorted(at * (n + 1)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class _CommutingGraph:
    """The conjugacy classes laid out one after another, and the graph on each
    class in which every TSS is a clique: x -- y when they commute.

    ``members`` holds the classes' members class by class, ascending within
    each, and x's class is ``members[class_start[x]:class_end[x]]``.  Row x,
    ``rows[row_start[x]:row_end[x]]``, holds the members of x's class that
    commute with x, ascending, x included at ``row_self[x]``.  ``members`` and
    ``rows`` are in the dtype of ``table``; the row of x lies in C_G(x), so it
    has at most |G| / |class(x)| entries.
    """

    members: np.ndarray
    class_start: np.ndarray
    class_end: np.ndarray
    rows: np.ndarray
    row_start: np.ndarray
    row_end: np.ndarray
    row_self: np.ndarray


@dataclass(frozen=True)
class ConjugacyPartition:
    """Partition of a group into conjugacy classes, ids ordered by least member."""

    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]


@dataclass(frozen=True)
class SemidirectParams:
    """Parameters for Z_p x| Z_m with action r |-> r^k (p the normal factor)."""

    p: int
    m: int
    k: int

    def __post_init__(self) -> None:
        self.check_ranges(self.p, self.m, self.k)
        if pow(self.k, self.m, self.p) != 1:
            raise GroupError(
                f"k^m = {self.k}^{self.m} is not 1 mod {self.p}; the action is ill-defined"
            )

    @staticmethod
    def check_ranges(p: int, m: int, k: int) -> None:
        """Raise unless m >= 1, p*m is within the order cap, p is prime and
        1 <= k < p; k^m = 1 mod p is left to the constructor.  The primality
        test comes last: its trial division takes sqrt(p) steps."""
        if m < 1:
            raise GroupError(f"m={m} must be positive")
        _order_cap(f"SD({p},{m},{k})", p * m)
        if _prime_powers(p) != [(p, 1)]:
            raise GroupError(f"p={p} is not prime")
        if not (1 <= k < p):
            raise GroupError(f"k={k} must satisfy 1 <= k < p={p}")


@dataclass(frozen=True)
class DerivedSeries:
    terms: tuple[tuple[int, ...], ...]
    solvable: bool


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, a) for each prime power p^a exactly dividing n, p ascending."""
    out, p = [], 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            out.append((p, a))
        p += 1
    return out + [(n, 1)] * (n > 1)


def _power(table: np.ndarray, doubling: list[np.ndarray], k: int) -> np.ndarray:
    """x^k for every entry of an array x (k >= 1), by binary powering on
    ``table``.  ``doubling[i]`` holds x^(2^i); squares read from the table's
    diagonal are appended to it as needed, so later powers of x reuse them."""
    result = None
    for i in range(k.bit_length()):
        if i == len(doubling):
            doubling.append(np.diagonal(table)[doubling[-1]])
        if k >> i & 1:
            result = doubling[i] if result is None else table[result, doubling[i]]
    return result


def _order_cap(what: str, order: int) -> None:
    """Reject an order above the cap before any table is allocated."""
    if order > DEFAULT_ORDER_CAP:
        raise GroupError(
            f"{what} has order {order}, above the global order cap {DEFAULT_ORDER_CAP}")


def _check_latin(mul: np.ndarray) -> None:
    """Raise unless every row and column of ``mul`` is a permutation of
    0..n-1, naming the first bad row, else the first bad column.  Rows, then
    columns, are sorted ``_LATIN_SLAB`` at a time, so the extra memory is
    O(n * _LATIN_SLAB) at any order."""
    n = mul.shape[0]
    expect = np.arange(n, dtype=mul.dtype)
    for kind, lines in (("row", mul), ("column", mul.T)):
        for lo in range(0, n, _LATIN_SLAB):
            # a slab as the rows of a C-ordered copy, sorted in place: sorting
            # contiguous rows is the faster sort
            slab = lines[lo:lo + _LATIN_SLAB].copy()
            slab.sort(axis=1)
            ok = (slab == expect).all(axis=1)
            if not ok.all():
                i = lo + int(np.argmin(ok))
                j = int(np.argmax(np.bincount(lines[i], minlength=n) > 1))
                raise GroupError(f"not a Latin square: {kind} {i} repeats entry {j}")


def _find_identity(mul: np.ndarray) -> int:
    # a two-sided identity e has e*e = e, so only the diagonal's fixed points
    # are tried, least first
    expect = np.arange(mul.shape[0], dtype=mul.dtype)
    for e in np.flatnonzero(np.diagonal(mul) == expect).tolist():
        if (mul[e] == expect).all() and (mul[:, e] == expect).all():
            return e
    raise GroupError("table has no two-sided identity")


def _power_inverses(mul: np.ndarray) -> np.ndarray:
    """x^(2n-1) for every x, in the table's dtype: x^-1 in a group of order n."""
    n = mul.shape[0]
    return _power(mul, [np.arange(n)], 2 * n - 1).astype(mul.dtype)


def _group_axioms(mul: np.ndarray) -> Optional[tuple[int, np.ndarray, tuple[int, ...]]]:
    """The identity, inverses and Light's checked elements of a group's
    table, or None when ``mul`` is not one: a two-sided identity
    (``_find_identity``), each inverse taken as x^(2n-1) and confirmed by one
    O(n) gather, x * x^-1 = e, then Light's test (``_light_test``).  A table
    that passes is associative with a two-sided identity and right inverses,
    so it is a group's table (if x y = e and y z = e, then
    x = x (y z) = (x y) z = z, so y x = e too) and a Latin square.  The work
    is O(n^2 log n) whatever the table: the reached set is a group by the
    same argument, so each checked element at least doubles it.
    """
    n = mul.shape[0]
    try:
        identity = _find_identity(mul)
    except GroupError:
        return None
    inv = _power_inverses(mul)
    if not (mul[np.arange(n), inv] == identity).all():
        return None
    checked, failure = _light_test(mul, identity)
    return None if failure else (identity, inv, checked)


def _light_test(mul: np.ndarray,
                identity: int) -> tuple[tuple[int, ...], Optional[tuple[int, int, int]]]:
    """Light's associativity test: the elements it checked, and the failing
    triple (x, y, z) of the first failing y (with its least failing (x, z)),
    or None.

    The y with (x*y)*z == x*(y*z) for all x, z form a set A closed under
    products, and A holds the identity.  So y is checked only while some
    element is not yet a product of checked elements: the least such element
    is checked with two order^2 gathers, made ``_ASSOC_BLOCK`` entries at a
    time, then the reached set is closed over the checked elements
    (``_close``), which closes it under products as they lie in A: for
    v = v'*g, g checked, u*v = (u*v')*g.  In a group each checked element at
    least doubles the reached subgroup, so at most log2(order) elements are
    checked, and they generate the group.
    """
    reached = np.arange(mul.shape[0]) == identity
    checked = []
    while not reached.all():
        y = int(reached.argmin())
        failure = _light_failure(mul, y)
        if failure is not None:
            return tuple(checked), (failure[0], y, failure[1])
        checked.append(y)
        _close(mul, reached, checked)
    return tuple(checked), None


def _assoc_failure(mul: np.ndarray, x: int, y: int, z: int) -> NoReturn:
    """Raise for a failing triple (x, y, z) of Light's test.  Up to order
    ``DEFAULT_ASSOC_CAP`` the full scan runs first and names the first
    failing triple; above it, the scan's order^2 index copy and O(order^3)
    work are too much, and (x, y, z) is named."""
    if mul.shape[0] <= DEFAULT_ASSOC_CAP:
        _assoc_scan(mul)
    raise GroupError(f"associativity fails at triple ({x}, {y}, {z})")


def _close(mul: np.ndarray, reached: np.ndarray, gens: Sequence[int]) -> None:
    """Close the mask ``reached`` (holding the identity, inside <gens>) to
    <gens>, in place and breadth-first: each round multiplies the elements
    new in the round before (all reached, at first) by every generator and
    its repeated squares, order.bit_length() of them, so <g> takes that many
    rounds, not |g| of them."""
    n = mul.shape[0]
    is_mult = np.zeros(n, dtype=bool)
    square = np.asarray(gens, dtype=np.intp)
    for _ in range(n.bit_length()):
        if is_mult[square].all():
            break  # the later squares are squares of multipliers already held
        is_mult[square] = True
        square = np.diagonal(mul)[square]
    mults = is_mult.nonzero()[0]
    frontier = reached.nonzero()[0]
    while frontier.size:
        before = reached.copy()
        reached[mul[frontier[:, None], mults]] = True
        frontier = (reached ^ before).nonzero()[0]


def _row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Slices cutting 0..rows-1 into blocks of about ``_ASSOC_BLOCK`` entries,
    for rows of ``width`` entries each."""
    step = max(1, _ASSOC_BLOCK // width)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _candidate_blocks(
    pool: np.ndarray, first: np.ndarray, count: np.ndarray, block: int,
    weight: Optional[np.ndarray] = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The candidates of a level's parents, block by block.

    Parent p's candidates are ``pool[first[p]:first[p] + count[p]]``.  A block
    holds the candidates of consecutive parents whose weights (by default
    their counts) sum to about ``block``, and those of at least one parent, as
    two flat arrays: each candidate's parent and the candidate itself, parents
    ascending and each parent's candidates in pool order.
    """
    total = np.cumsum(count)
    ends = total if weight is None else np.cumsum(weight)
    lo = 0
    while lo < len(count):
        done = total[lo - 1] if lo else 0
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(ends.searchsorted(start + block, side="right")))
        # parent p's candidates start at total[p - 1] - done in the flat arrays;
        # the frame keeps no reference to the block while it is out
        n_cand = count[lo:hi]
        shift = first[lo:hi] - (total[lo:hi] - n_cand - done)
        yield (np.arange(lo, hi, dtype=np.int32).repeat(n_cand),
               pool[np.arange(total[hi - 1] - done) + shift.repeat(n_cand)])
        lo = hi


def _light_failure(mul: np.ndarray, y: int) -> Optional[tuple[int, int]]:
    """The least (x, z), row-major, with (x*y)*z != x*(y*z), or None; the
    two gathers are made ``_ASSOC_BLOCK`` entries at a time."""
    n = mul.shape[0]
    xy, yz = mul[:, y], mul[y]
    for rows in _row_blocks(n, n):
        fails = mul.take(xy[rows], 0) != mul[rows].take(yz, 1)
        if fails.any():
            x, z = divmod(int(fails.argmax()), n)
            return rows.start + x, z
    return None


def _assoc_scan(mul: np.ndarray) -> None:
    # (x*y)*z == x*(y*z), vectorized row by row to bound memory; the intp copy
    # (at most DEFAULT_ASSOC_CAP^2 entries) saves converting the index on every row
    index = mul.astype(np.intp)
    for x in range(mul.shape[0]):
        lhs = mul[index[x]]         # lhs[y, z] = (x*y)*z
        rhs = mul[x][index]         # rhs[y, z] = x*(y*z)
        if not np.array_equal(lhs, rhs):
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            raise GroupError(f"associativity fails at triple ({x}, {y}, {z})")


def make_group(
    mul: Sequence[Sequence[int]] | np.ndarray,
    labels: LabelSource | Sequence[str] = None,
    name: str = "group",
) -> FiniteGroup:
    """Validate a table from outside the library and build a FiniteGroup.

    Cayley documents, ``file:`` specs, quotients and raw tables come here; the
    constructors write their tables, identity and inverses by construction
    and go straight to ``_group`` unchecked.
    Every such table is held to the order cap by its row count, and at every
    order must hold integers (``_integer_table``) and pass the group axioms
    (``_group_axioms``), in O(n^2 log n) work with no order^2 temporary; the
    group records the elements Light's test checked, and ``assoc_verified``
    is True.  A table that fails the axioms gets the checks in their fixed
    order only to name its first fault (``_first_fault``).  An integer
    ndarray already of dtype ``table_dtype(order)`` becomes the group's
    read-only ``table`` without a copy.  ``labels`` are strings, one per
    element, or a formatter run on first read (``LabelSource``).
    """
    table = _integer_table(mul)
    axioms = _group_axioms(table)
    if axioms is None:
        _first_fault(table)
    identity, inv, generators = axioms
    return _group(table, identity, inv, labels, generators, name, True)


def _integer_table(mul: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """``mul`` as a square array of dtype ``table_dtype(order)``, or a
    GroupError naming the first fault: a row count above the order cap
    (``_order_cap``, before anything is allocated), the shape, an entry that
    is not an int (none is truncated or parsed, and a bool is not an int),
    then an entry outside 0..order-1."""
    try:
        rows = len(mul)
    except TypeError:  # a scalar: refused below as no square matrix
        rows = 0
    _order_cap("the table", rows)
    try:
        arr = np.asarray(mul)
    except ValueError:
        raise GroupError("multiplication table rows differ in length") from None
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise GroupError("multiplication table must be a nonempty square matrix")
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise GroupError("multiplication table is not square")
    # np.asarray turns bools among ints into ints, so rows holding one are read here
    if arr.dtype.kind not in "iu" or (not isinstance(mul, np.ndarray) and any(
            not {bool, np.bool_}.isdisjoint(map(type, row)) for row in mul)):
        arr = np.array(mul, dtype=object)  # ints past int64 stay ints
        for (r, c), v in np.ndenumerate(arr):
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise GroupError(f"non-integer entry {v!r} at row {r}, column {c}")
    if arr.min() < 0 or arr.max() >= n:
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        raise GroupError(f"entry out of range at row {bad[0]}, column {bad[1]}")
    return np.ascontiguousarray(arr, dtype=table_dtype(n))


def _first_fault(table: np.ndarray) -> NoReturn:
    """Raise naming the first fault of a table that fails the group axioms,
    by the checks in their fixed order: the Latin square (``_check_latin``),
    the two-sided identity, the two-sided inverses, then Light's test
    (``_assoc_failure``).  A Latin square with a two-sided identity that
    passes Light's test is a group's, so the last check fails if none before
    it does."""
    _check_latin(table)
    identity = _find_identity(table)
    n = table.shape[0]
    # each row is a permutation, so it holds the identity exactly once
    inv = np.empty(n, dtype=table.dtype)
    for rows in _row_blocks(n, n):
        inv[rows] = np.argmax(table[rows] == identity, axis=1)
    two_sided = table[inv, np.arange(n)] == identity
    if not two_sided.all():
        raise GroupError(f"element {int(np.argmin(two_sided))} has no two-sided inverse")
    _, failure = _light_test(table, identity)
    _assoc_failure(table, *failure)


def _group(table: np.ndarray, identity: int, inv: np.ndarray,
           labels: LabelSource | Sequence[str], generators: Optional[Sequence[int]],
           name: str, assoc_verified: bool) -> FiniteGroup:
    """Freeze a table with its identity and inverses into a group that records
    ``generators``: checked ones from ``make_group``, or a constructor's,
    which are not checked.  Labels given as strings are counted and kept as a
    tuple; a formatter is kept to run on first read (``FiniteGroup.labels``)."""
    if labels is not None and not callable(labels):
        if len(labels) != table.shape[0]:
            raise GroupError("label count does not match group order")
        labels = tuple(labels)
    table.flags.writeable = False
    inv.flags.writeable = False
    return FiniteGroup(
        order=table.shape[0],
        identity=identity,
        inv=inv,
        table=table,
        _label_source=labels,
        generators=tuple(generators or ()) or None,
        name=name,
        assoc_verified=assoc_verified,
    )


def _cyclic_sums(n: int, dtype: np.dtype) -> np.ndarray:
    """The read-only view W[i, j] = (i + j) mod n: n windows over 0..n-1 twice."""
    twice = np.tile(np.arange(n, dtype=dtype), 2)
    return np.lib.stride_tricks.sliding_window_view(twice, n)[:n]


def _read_labels(source: LabelSource) -> Optional[tuple[str, ...]]:
    return source() if callable(source) else source


def _cyclic_labels(n: int) -> tuple[str, ...]:
    """Z_n's elements as powers of a generator g."""
    return ("e",) + tuple(f"g^{i}" if i > 1 else "g" for i in range(1, n))


def make_cyclic(n: int) -> FiniteGroup:
    """Z_n with labels as powers of a generator g."""
    if n < 1:
        raise GroupError(f"cyclic group order must be >= 1, got {n}")
    _order_cap(f"Z_{n}", n)
    dtype = table_dtype(n)
    mul = np.ascontiguousarray(_cyclic_sums(n, dtype))
    inv = -np.arange(n, dtype=dtype) % n
    return _group(mul, 0, inv, partial(_cyclic_labels, n), (1,) if n > 1 else None, f"Z{n}",
                  n <= DEFAULT_ASSOC_CAP)


def make_dihedral(n: int) -> FiniteGroup:
    """D_2n of order 2n: elements s^eps r^i, with s r s = r^-1.

    Index layout: eps*n + i for eps in {0,1}, 0 <= i < n.
    """
    if n < 1:
        raise GroupError(f"dihedral parameter must be >= 1, got {n}")
    order = 2 * n
    _order_cap(f"D_{order}", order)
    # r^i1 r^i2 = r^(i1+i2), s r^i1 r^i2 = s r^(i1+i2), and since
    # r^i1 s = s r^-i1: r^i1 s r^i2 = s r^(i2-i1), s r^i1 s r^i2 = r^(i2-i1)
    sums = _cyclic_sums(n, table_dtype(order))
    mul = np.empty((order, order), dtype=sums.dtype)
    mul[:n, :n] = sums
    np.add(sums, n, out=mul[n:, :n])
    mul[n, n:] = sums[0]  # row i1: i2 - i1, row n - i1 of sums; a view copy needs no temporary
    mul[n + 1:, n:] = sums[:0:-1]
    np.add(mul[n:, n:], n, out=mul[:n, n:])
    # (r^i)^-1 = r^-i, and each reflection s r^i is its own inverse
    inv = np.concatenate([-sums[0] % n, sums[0] + n])
    return _group(mul, 0, inv, partial(_dihedral_labels, n), (1, n) if n > 1 else (n,),
                  f"D{order}", order <= DEFAULT_ASSOC_CAP)


def _dihedral_labels(n: int) -> tuple[str, ...]:
    """D_2n's elements s^eps r^i in the index layout eps*n + i."""
    rotations = ["e" if i == 0 else ("r" if i == 1 else f"r^{i}") for i in range(n)]
    reflections = ["s" if i == 0 else ("sr" if i == 1 else f"sr^{i}") for i in range(n)]
    return tuple(rotations + reflections)


def _cycle_notation(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "e"


def _symmetric_labels(n: int) -> tuple[str, ...]:
    """S_n's elements in lexicographic one-line order, in cycle notation."""
    return tuple(map(_cycle_notation, itertools.permutations(range(n))))


def make_symmetric(n: int) -> FiniteGroup:
    """S_n with elements in lexicographic one-line order, labels in cycle notation.

    Only the generators' rows are computed from one-line forms.  Every other
    row is composed: row(y s) = row(y)[row(s)], since (y s) q = y (s q), so a
    breadth-first search over the generators fills the table one gather per
    level and generator.
    """
    if n < 1:
        raise GroupError(f"symmetric group parameter must be >= 1, got {n}")
    if n > DEFAULT_SYMMETRIC_CAP:
        raise GroupError(f"symmetric group parameter {n} exceeds cap {DEFAULT_SYMMETRIC_CAP}")
    order = math.factorial(n)
    _order_cap(f"S_{n}", order)
    perms = list(itertools.permutations(range(n)))
    labels = partial(_symmetric_labels, n)
    mul = np.empty((order, order), dtype=table_dtype(order))
    mul[0] = np.arange(order)  # the identity is first in lexicographic order
    one_line = np.array(perms, dtype=np.intp).reshape(order, n)
    # base-n keys of the one-line forms ascend with the lexicographic order
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.intp)
    keys = one_line @ weights
    # the inverse of a permutation, in one-line form, is its argsort
    inv = np.searchsorted(keys, np.argsort(one_line, axis=1) @ weights).astype(mul.dtype)
    if n == 1:
        return _group(mul, 0, inv, labels, None, "S1", True)
    transposition = perms.index(tuple([1, 0] + list(range(2, n))))
    ncycle = perms.index(tuple(list(range(1, n)) + [0]))
    gens = (transposition,) if n == 2 else (transposition, ncycle)
    # (s q)(k) = s[q[k]] for every q at once
    gen_rows = [np.searchsorted(keys, one_line[s][one_line] @ weights) for s in gens]
    built = np.zeros(order, dtype=bool)
    built[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        reached = []
        for s, row in zip(gens, gen_rows):
            ys = mul[frontier, s]  # y s for each y in the frontier, all distinct
            new = ~built[ys]
            ys = ys[new]
            mul[ys] = mul[frontier[new]][:, row]
            built[ys] = True
            reached.append(ys)
        frontier = np.concatenate(reached)
    return _group(mul, 0, inv, labels, gens, f"S{n}", order <= DEFAULT_ASSOC_CAP)


def make_semidirect_cyclic(params: SemidirectParams) -> FiniteGroup:
    """Group of order p*m with elements r^a s^b and s r s^-1 = r^k.

    Index layout: a*m + b for 0 <= a < p, 0 <= b < m.
    """
    p, m, k = params.p, params.m, params.k
    order = p * m  # within the cap, which SemidirectParams checks
    # (r^a1 s^b1)(r^a2 s^b2) = r^(a1 + a2 k^b1) s^(b1 + b2)
    kpow = np.array([pow(k, b1, p) for b1 in range(m)], dtype=np.int64)
    twisted = np.outer(kpow, np.arange(p, dtype=np.int64)) % p  # [b1, a2] -> a2 k^b1
    s_sums = _cyclic_sums(m, np.int64)
    mul = np.empty((order, order), dtype=table_dtype(order))
    blocks = mul.reshape(p, m, p, m)  # [a1, b1, a2, b2]
    for a1 in range(p):
        r_part = (a1 + twisted) % p * m
        np.add(r_part[:, :, None], s_sums[:, None, :], out=blocks[a1])
    # (r^a s^b)^-1 = s^-b r^-a = r^(-a k^-b) s^-b, and k^-b = k^((m - b) mod m)
    a, b = np.divmod(np.arange(order, dtype=np.int64), m)
    b_inv = -b % m
    inv = (-a * kpow[b_inv] % p * m + b_inv).astype(mul.dtype)
    gens = (m, 1)  # r = (a=1,b=0), s = (a=0,b=1)
    return _group(mul, 0, inv, partial(_semidirect_labels, p, m), gens, f"SD({p},{m},{k})",
                  order <= DEFAULT_ASSOC_CAP)


def _semidirect_labels(p: int, m: int) -> tuple[str, ...]:
    """Z_p x| Z_m's elements r^a s^b in the index layout a*m + b."""
    def lab(a: int, b: int) -> str:
        if a == 0 and b == 0:
            return "e"
        ra = "" if a == 0 else ("r" if a == 1 else f"r^{a}")
        sb = "" if b == 0 else ("s" if b == 1 else f"s^{b}")
        return ra + sb

    return tuple(lab(a, b) for a in range(p) for b in range(m))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (x,y) is indexed as x*|H| + y.

    Only the table is written.  The rest is read from the factors in
    O(order), with no pass over the table: the identity (e, e), the inverses
    (x^-1, y^-1), the generators (x, e) and (e, y), and the labels "(x,y)",
    formatted from the factors' label sources on first read.  The product is
    associative iff both factors are, so ``assoc_verified`` holds when it
    holds for both and the order is within ``DEFAULT_ASSOC_CAP``, the cap up to
    which the primitive constructors' tables count as verified.
    """
    order, name = g.order * h.order, f"{g.name}x{h.name}"
    _order_cap(name, order)
    oh = h.order
    dtype = table_dtype(order)
    mul = np.empty((order, order), dtype=dtype)
    # [x1, y1, x2, y2] -> g(x1, x2) * |H| + h(y1, y2)
    np.add((g.table.astype(dtype) * oh)[:, None, :, None], h.table[None, :, None, :],
           out=mul.reshape(g.order, oh, g.order, oh))
    inv = (g.inv.astype(dtype)[:, None] * oh + h.inv).ravel()
    labels = partial(_product_labels, g._label_source, g.order, h._label_source, oh)
    # (x, e) for each generator x of G, then (e, y) for each y of H
    gens = ([x * oh + h.identity for x in g.generators or ()]
            + [g.identity * oh + y for y in h.generators or ()])
    assoc_verified = order <= DEFAULT_ASSOC_CAP and g.assoc_verified and h.assoc_verified
    return _group(mul, g.identity * oh + h.identity, inv, labels, gens, name, assoc_verified)


def _product_labels(g_source: LabelSource, g_order: int,
                    h_source: LabelSource, h_order: int) -> tuple[str, ...]:
    """G x H's elements "(x,y)" in the index layout x*|H| + y, each factor's
    element shown as ``FiniteGroup.label`` shows it."""
    g_labels, h_labels = _shown(g_source, g_order), _shown(h_source, h_order)
    return tuple(f"({x},{y})" for x in g_labels for y in h_labels)


def _coset_labels(source: LabelSource, order: int, reps: Sequence[int]) -> tuple[str, ...]:
    """G/N's cosets "[x]", each by its least member x as ``FiniteGroup.label``
    shows x in G, whose label source and order are given."""
    labels = _shown(source, order)
    return tuple(f"[{labels[x]}]" for x in reps)


def _shown(source: LabelSource, order: int) -> tuple[str, ...]:
    labels = _read_labels(source)
    return labels if labels is not None else tuple(map(str, range(order)))


def split_product_index(idx: int, h_order: int) -> tuple[int, int]:
    """Recover (x, y) from the fixed product index layout x*|H| + y."""
    return divmod(idx, h_order)


def _conjugates(g: FiniteGroup, cols: Sequence[int] | np.ndarray) -> np.ndarray:
    """q x q^-1 for every q (axis 0) and every x in the index array ``cols``,
    in the dtype of ``table``.  One gather at flat indices (q x, q^-1) keeps
    the memory order of ``table[:, cols]``, q innermost, which the reductions
    over the axes of ``cols`` run along."""
    cols = np.asarray(cols, dtype=np.intp)
    index = np.multiply(g.table[:, cols], g.order, dtype=np.intp)
    index += g.inv.reshape((-1,) + (1,) * cols.ndim)
    return g.table.ravel()[index]


def conjugacy_classes(g: FiniteGroup) -> ConjugacyPartition:
    """Exact conjugacy partition; class ids ordered by least member.

    Computed once per group and kept on it (``FiniteGroup.conjugacy_partition``).
    """
    return g.conjugacy_partition


def centralizer(g: FiniteGroup, x: int) -> tuple[int, ...]:
    """All y commuting with x, sorted."""
    g.check_index(x)
    return g.element_tuple(np.flatnonzero(g.table[x] == g.table[:, x]))


def generated_subgroup(g: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    """Closure of gens under multiplication (inverses follow by finiteness)."""
    gen_list = [g.check_index(x) for x in gens]
    if not gen_list:
        raise GroupError("generator set must be nonempty")
    reached = np.arange(g.order) == g.identity
    _close(g.table, reached, gen_list)
    return g.element_tuple(reached.nonzero()[0])


def derived_series(g: FiniteGroup) -> DerivedSeries:
    """G >= G' >= G'' >= ... until it stabilizes, from ``g.generators``.  For
    H = <X>, H' is the normal closure in H of the commutators
    [x, y] = (xy)(yx)^-1 of x, y in X: a commutator, or a conjugate x c x^-1
    of a generator c, that falls outside the closure so far becomes a
    generator, and those generators are the X of the next term."""
    table, inv = g.table, g.inv
    gens = np.array(g.generators or (), dtype=np.intp)
    terms = [tuple(g.ints.tolist())]
    while gens.size:
        xy = table[np.ix_(gens, gens)]
        pending = table[xy, inv[xy.T]].ravel().tolist()
        reached = np.arange(g.order) == g.identity
        nxt = []
        while pending:
            c = pending.pop()
            if not reached[c]:
                nxt.append(c)
                _close(table, reached, nxt)
                pending += table[table[gens, c], inv[gens]].tolist()
        term = g.element_tuple(reached.nonzero()[0])
        if len(term) == len(terms[-1]):
            break
        terms.append(term)
        gens = np.array(nxt, dtype=np.intp)
    return DerivedSeries(terms=tuple(terms), solvable=terms[-1] == (g.identity,))
