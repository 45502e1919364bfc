"""Finite groups over dense integer ids, with one vectorised product.

Cyclic groups, Z_2^n and direct products compute a product by arithmetic
on the ids; only a group given by an explicit table stores n x n data, and
that table is checked against every group axiom. Associativity is decided
exactly at every order by Light's test: at most ceil(log2 n) slabs
(a*x)*y = a*(x*y), one per element of a greedy generating set.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import GroupTooLarge, InvalidGeneratorSet, NonGroupTable

ORDER_CAP = 1 << 16

# The one scratch budget of every blocked pass, in array cells (512 KiB of
# float64): each row block of an associativity slab, of host distances and
# of the distance certificate, the d(x, v) + d(v, y) cells of a
# geodesic-scan block, the pair-scan gather buffers, ball dilation's live
# arrays together, each block of sample times of the heat stencil (its
# states, the copy or buffers its eta scan reads them through, and their
# eta rows), each row block of omega (its masks and admitted triples),
# each row block of the extremal scans and each column block of the
# residuals. Larger blocks save little time and raise peak memory.
_SCAN_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A group on the element ids 0..order-1.

    `_law` says how `product` works: "add" is a + b mod order (Z_n), "xor"
    is a XOR b (Z_2^n), "direct" is the direct product of `_factors` =
    (g, h), where (a, b) has id a * |h| + b, and "table" reads the explicit
    validated `_table`.
    """

    order: int
    identity: int
    inverse: np.ndarray
    name: str = ""
    _law: str = "table"
    _table: Optional[np.ndarray] = field(default=None, repr=False)
    _factors: tuple = field(default=(), repr=False)

    def product(self, a, b) -> np.ndarray:
        """a * b elementwise, over broadcast arrays of element ids."""
        a, b = np.asarray(a), np.asarray(b)
        if self._law == "add":
            return (a + b) % self.order
        if self._law == "xor":
            return a ^ b
        if self._law == "direct":
            g, h = self._factors
            (ag, ah), (bg, bh) = np.divmod(a, h.order), np.divmod(b, h.order)
            return g.product(ag, bg) * h.order + h.product(ah, bh)
        return self._table[a, b]

    @property
    def table(self) -> np.ndarray:
        """The n x n multiplication table: an explicit group's own; for any
        other group, formed from `product` on each read."""
        if self._table is not None:
            return self._table
        ids = np.arange(self.order, dtype=np.int32)
        return self.product(ids[:, None], ids)

    def mul(self, a: int, b: int) -> int:
        return int(self.product(a, b))

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def __repr__(self):
        return f"FiniteGroup({self.name or 'order ' + str(self.order)})"


@dataclass(frozen=True)
class GeneratorSet:
    """Symmetric generating set (excludes the identity)."""

    elements: tuple = field(default_factory=tuple)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _ro(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _kept(obj, key, make):
    """The value kept on `obj` under `key`: make() on the first read, the
    same object on every later one; a raise keeps nothing."""
    kept = obj.__dict__.setdefault("_kept", {})
    if key not in kept:
        kept[key] = make()
    return kept[key]


def _validate_table(table: np.ndarray) -> FiniteGroup:
    n = table.shape[0]
    if table.ndim != 2 or table.shape[1] != n:
        raise NonGroupTable("shape", table.shape, "table must be square")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NonGroupTable("range", tuple(bad), "entries must be element ids")

    ids = np.arange(n)
    row_ok = (np.sort(table, axis=1) == ids).all(axis=1)
    if not row_ok.all():
        a = int(np.argmin(row_ok))
        raise NonGroupTable("latin_row", (a,), f"row {a} is not a permutation")
    col_ok = (np.sort(table, axis=0) == ids[:, None]).all(axis=0)
    if not col_ok.all():
        b = int(np.argmin(col_ok))
        raise NonGroupTable("latin_col", (b,), f"column {b} is not a permutation")

    # identity: the unique e with e*x = x and x*e = x for all x
    is_id = (table == ids).all(axis=1) & (table == ids[:, None]).all(axis=0)
    if not is_id.any():
        raise NonGroupTable("identity", None, "no two-sided identity element")
    e = int(np.argmax(is_id))

    # each row contains e exactly once (Latin property), giving right inverses
    inverse = np.argmax(table == e, axis=1).astype(np.int32)
    if not (table[inverse, ids] == e).all():
        a = int(np.argmin(table[inverse, ids] == e))
        raise NonGroupTable("inverse", (a,), f"element {a} has no two-sided inverse")

    # Light's test over a greedy generating set: the elements a whose slab
    # (a*x)*y = a*(x*y) holds for all x, y are closed under the product, so
    # once the left closure of e under the checked ones (the elements with
    # a word over them) is everything, the table is associative. Each new a
    # lies outside that closure, a subgroup, so a passed slab at least
    # doubles it: at most ceil(log2 n) slabs, in row blocks of _SCAN_CELLS.
    group = FiniteGroup(order=n, identity=e, inverse=_ro(inverse),
                        _table=_ro(table.astype(np.int32)))
    step = max(1, _SCAN_CELLS // n)
    taken, inside = [], ids == e
    while not inside.all():
        a = int(np.argmin(inside))
        for x in range(0, n, step):
            lhs = table[table[a, x:x + step]]       # (x, y) -> (a*x)*y
            rhs = table[a, table[x:x + step]]       # (x, y) -> a*(x*y)
            if not (lhs == rhs).all():
                i, y = map(int, np.argwhere(lhs != rhs)[0])
                raise NonGroupTable("associativity", (a, x + i, y))
        taken.append(a)
        inside = word_lengths(group, taken) >= 0
    return group


def _check_cap(order: int):
    if order > ORDER_CAP:
        raise GroupTooLarge(f"order {order} exceeds cap {ORDER_CAP}")
    if order < 1:
        raise NonGroupTable("order", order, "order must be positive")


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with addition mod n; element ids are the residues."""
    _check_cap(n)
    inverse = -np.arange(n, dtype=np.int32) % n
    return FiniteGroup(order=n, identity=0, inverse=_ro(inverse),
                       name=f"Z{n}", _law="add")


def elementary_abelian_2(n: int) -> FiniteGroup:
    """Z_2^n with XOR composition; element ids are n-bit masks."""
    # the cap is checked on n: a huge n would first build a huge 2^n
    if n >= ORDER_CAP.bit_length():
        raise GroupTooLarge(f"order 2^{n} exceeds cap {ORDER_CAP}")
    if n < 0:
        raise NonGroupTable("order", f"2^{n}", "order must be positive")
    order = 1 << n
    return FiniteGroup(order=order, identity=0,
                       inverse=_ro(np.arange(order, dtype=np.int32)),
                       name=f"Z2^{n}", _law="xor")


def direct_product(*groups: FiniteGroup) -> FiniteGroup:
    """Direct product; element id of (a, b) is a * |G2| + b, folded left."""
    if not groups:
        raise ValueError("need at least one factor")
    g = groups[0]
    for h in groups[1:]:
        order = g.order * h.order
        _check_cap(order)
        ga, gb = np.divmod(np.arange(order, dtype=np.int32), h.order)
        g = FiniteGroup(order=order, identity=g.identity * h.order + h.identity,
                        inverse=_ro(g.inverse[ga] * h.order + h.inverse[gb]),
                        name=f"{g.name}x{h.name}", _law="direct",
                        _factors=(g, h))
    return g


def group_from_table(table, name: str = "") -> FiniteGroup:
    """Build from an explicit table, checking every group axiom."""
    table = np.asarray(table, dtype=np.int64)
    _check_cap(table.shape[0] if table.ndim == 2 else 0)
    return replace(_validate_table(table), name=name)


def build_group(spec) -> FiniteGroup:
    """Dispatch on a group description.

    Accepts {"kind": "cyclic", "n": 6}, {"kind": "elementary_abelian_2",
    "n": 3}, {"kind": "direct_product", "factors": [...]}, or
    {"kind": "table", "table": [[...]]}.
    """
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "cyclic":
        return cyclic_group(int(spec["n"]))
    if kind == "elementary_abelian_2":
        return elementary_abelian_2(int(spec["n"]))
    if kind == "direct_product":
        return direct_product(*(build_group(s) for s in spec["factors"]))
    if kind == "table":
        return group_from_table(spec["table"], name=spec.get("name", ""))
    raise ValueError(f"unknown group spec: {spec!r}")


def generator_set(group: FiniteGroup, elements) -> GeneratorSet:
    """Validated symmetric generating set for `group`."""
    elems = tuple(sorted({int(a) for a in elements}))
    if not elems:
        raise InvalidGeneratorSet("generator set is empty")
    for a in elems:
        if not 0 <= a < group.order:
            raise InvalidGeneratorSet(f"element {a} out of range")
        if a == group.identity:
            raise InvalidGeneratorSet("generator set must exclude the identity")
        if group.inv(a) not in elems:
            raise InvalidGeneratorSet(
                f"not symmetric: {a} present but inverse {group.inv(a)} missing")
    if not (word_lengths(group, elems) >= 0).all():
        raise InvalidGeneratorSet("set does not generate the group")
    return GeneratorSet(elements=elems)


def word_lengths(group: FiniteGroup, gens) -> np.ndarray:
    """BFS word length |g| over the generating set; -1 if unreachable.

    Kept on `group` (`_kept`) per generator tuple (sorted, duplicates
    dropped), so generator_set's validation and build_cayley share one BFS;
    the array is read-only because every caller receives the same one.

    The BFS runs in plain Python over the k generator rows a * x, read
    through memoryviews of one int32 array: O(k n) element steps in all,
    with no numpy call per level and no Python object per row entry. A
    cycle C_n has n / 2 levels, so per-level array calls cost far more than
    the elements they touch, and at Z_2^14 the rows as Python lists would
    take 9 MiB.
    """
    key = tuple(sorted({int(a) for a in gens}))

    def make():
        act = group.product(np.array(key, dtype=np.int32)[:, None],
                            np.arange(group.order, dtype=np.int32))
        rows = [memoryview(np.ascontiguousarray(r, dtype=np.int32))
                for r in act]
        wl = [-1] * group.order
        wl[group.identity] = 0
        frontier = [group.identity]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for row in rows:
                for x in frontier:
                    y = row[x]
                    if wl[y] < 0:
                        wl[y] = level
                        nxt.append(y)
            frontier = nxt
        return _ro(np.array(wl, dtype=np.int32))
    return _kept(group, ("word_lengths", key), make)


def check_invariance(group: FiniteGroup, gens: GeneratorSet) -> bool:
    """True iff a K a^-1 = K for every a in K."""
    ks = np.asarray(list(gens), dtype=np.int32)
    kset = set(gens)
    for a in gens:
        conj = group.product(group.product(a, ks), group.inverse[a])
        if set(conj.tolist()) != kset:
            return False
    return True
