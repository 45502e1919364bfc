"""Finite groups as explicit multiplication tables over dense integer ids.

Everything downstream (word metric, Cayley graphs) reduces to table lookups,
which keeps the algebra trivially correct at the sizes this toolkit targets.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GroupTooLarge, InvalidGeneratorSet, NonGroupTable

ORDER_CAP = 1 << 16

# exhaustive associativity check is cubic; above this order sample triples
ASSOC_EXHAUSTIVE_MAX = 256
ASSOC_SAMPLES = 1_000_000


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Multiplication-table group: table[a, b] = a*b as element ids."""

    table: np.ndarray
    identity: int
    inverse: np.ndarray
    name: str = ""

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

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

    if n <= ASSOC_EXHAUSTIVE_MAX:
        # (a*b)*c == a*(b*c), checked in slabs over a to bound memory
        for a in range(n):
            lhs = table[table[a], :]            # (b, c) -> (a*b)*c
            rhs = table[a, table]               # (b, c) -> a*(b*c)
            if not (lhs == rhs).all():
                b, c = map(int, np.argwhere(lhs != rhs)[0])
                raise NonGroupTable("associativity", (a, b, c))
    else:
        rng = np.random.default_rng(0xA550C)
        a = rng.integers(0, n, ASSOC_SAMPLES)
        b = rng.integers(0, n, ASSOC_SAMPLES)
        c = rng.integers(0, n, ASSOC_SAMPLES)
        lhs = table[table[a, b], c]
        rhs = table[a, table[b, c]]
        if not (lhs == rhs).all():
            i = int(np.argmax(lhs != rhs))
            raise NonGroupTable("associativity", (int(a[i]), int(b[i]), int(c[i])))

    return FiniteGroup(table=_ro(table.astype(np.int32)), identity=e,
                       inverse=_ro(inverse))


def _check_cap(order: int):
    if order > ORDER_CAP:
        raise GroupTooLarge(f"order {order} exceeds cap {ORDER_CAP}")
    if order < 1:
        raise NonGroupTable("order", order, "order must be positive")


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with addition mod n; element ids are the residues."""
    _check_cap(n)
    ids = np.arange(n, dtype=np.int32)
    table = (ids[:, None] + ids[None, :]) % n
    inverse = (-ids) % n
    return FiniteGroup(table=_ro(table), identity=0,
                       inverse=_ro(inverse.astype(np.int32)),
                       name=f"Z{n}")


def elementary_abelian_2(n: int) -> FiniteGroup:
    """Z_2^n with XOR composition; element ids are n-bit masks."""
    order = 1 << n
    _check_cap(order)
    ids = np.arange(order, dtype=np.int32)
    table = ids[:, None] ^ ids[None, :]
    return FiniteGroup(table=_ro(table), identity=0, inverse=_ro(ids),
                       name=f"Z2^{n}")


def direct_product(*groups: FiniteGroup) -> FiniteGroup:
    """Direct product; element id of (a, b) is a * |G2| + b, folded left."""
    if not groups:
        raise ValueError("need at least one factor")
    g = groups[0]
    for h in groups[1:]:
        order = g.order * h.order
        _check_cap(order)
        ga, gb = np.divmod(np.arange(order, dtype=np.int64), h.order)
        table = (g.table[np.ix_(ga, ga)].astype(np.int64) * h.order
                 + h.table[np.ix_(gb, gb)])
        inverse = g.inverse[ga].astype(np.int64) * h.order + h.inverse[gb]
        e = g.identity * h.order + h.identity
        g = FiniteGroup(table=_ro(table.astype(np.int32)), identity=int(e),
                        inverse=_ro(inverse.astype(np.int32)),
                        name=f"{g.name}x{h.name}")
    return g


def group_from_table(table, name: str = "") -> FiniteGroup:
    """Build from an explicit table, checking every group axiom."""
    table = np.asarray(table, dtype=np.int64)
    _check_cap(table.shape[0] if table.ndim == 2 else 0)
    g = _validate_table(table)
    return FiniteGroup(table=g.table, identity=g.identity, inverse=g.inverse,
                       name=name)


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

    Cached on `group` per generator tuple (sorted, duplicates dropped), so
    generator_set's validation and build_cayley share one BFS; the array is
    read-only because every caller receives the same one.

    The BFS runs in plain Python over the k generator rows a * x taken as
    lists: O(k n) element steps in all, with no numpy call per level. A
    cycle C_n has n / 2 levels, so per-level array calls cost far more than
    the elements they touch.
    """
    key = tuple(sorted({int(a) for a in gens}))
    cache = group.__dict__.setdefault("_word_lengths", {})
    if key in cache:
        return cache[key]
    rows = [group.table[a].tolist() for a in key]
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
    cache[key] = _ro(np.array(wl, dtype=np.int32))
    return cache[key]


def check_invariance(group: FiniteGroup, gens: GeneratorSet) -> bool:
    """True iff a K a^-1 = K for every a in K."""
    ks = np.asarray(list(gens), dtype=np.int64)
    kset = set(gens)
    for a in gens:
        conj = group.table[group.table[a, ks], group.inverse[a]]
        if set(int(x) for x in conj) != kset:
            return False
    return True
