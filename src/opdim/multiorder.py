"""Finite n-multi-orders: one universe carrying n strict total orders.

Orders are stored as permutations of the universe, so totality and
strictness hold by construction.  Multi-cuts are position-count tuples,
canonical and O(1) to store.
"""
from __future__ import annotations

import itertools
import json
import math
import random

from .contexts import BudgetExceededError, FiniteContext
from .logic import FiniteStructure, Record, Signature, _set


class MultiOrderError(Exception):
    pass


class MultiOrder(Record):
    """n strict total orders on one universe; order i lists the universe in
    increasing sequence."""

    __slots__ = ("n", "universe",
                 "orders",   # n permutations of the universe
                 "_ranks")

    def __init__(self, n, universe, orders):
        _set(self, "n", n)
        _set(self, "universe", tuple(universe))
        _set(self, "orders", tuple(tuple(o) for o in orders))
        if self.n < 1:
            raise MultiOrderError("n must be >= 1")
        if len(self.orders) != self.n:
            raise MultiOrderError(f"expected {self.n} orders, got {len(self.orders)}")
        if len(set(self.universe)) != len(self.universe):
            raise MultiOrderError("universe has repeated elements")

    @property
    def size(self):
        return len(self.universe)

    def positions(self, i):
        """Element -> 0-based rank in order i.  The mapping is shared by
        every call; read it, do not change it."""
        try:
            return self._ranks[i]
        except AttributeError:
            # built on first use, not in __init__: generate_generic makes
            # |B| intermediate multi-orders that are never compared
            _set(self, "_ranks", tuple({b: r for r, b in enumerate(o)} for o in self.orders))
            return self._ranks[i]

    def less(self, i, a, b):
        pos = self.positions(i)
        return pos[a] < pos[b]

    def restrict(self, subset):
        subset = set(subset)
        return MultiOrder(self.n,
                          tuple(b for b in self.universe if b in subset),
                          tuple(tuple(b for b in o if b in subset)
                                for o in self.orders))


class MultiCut(Record):
    """One cut per order, as the count of elements below it."""

    __slots__ = ("cuts",)

    def __init__(self, cuts):
        _set(self, "cuts", tuple(cuts))


class ExtensionSpec(Record):
    """Insertion position of a new point in each order."""

    __slots__ = ("positions",)

    def __init__(self, positions):
        _set(self, "positions", tuple(positions))


GRID = "grid"


class Embedding(Record):
    """Point map into another multi-order, or into the coordinatewise grid."""

    __slots__ = ("source",
                 "target",      # a MultiOrder, or the string "grid"
                 "point_map")   # pairs (element, image), source order

    def __call__(self, a):
        return dict(self.point_map)[a]

    def image(self):
        return tuple(img for _, img in self.point_map)


def _grid_less(i, p, q):
    return p[i] < q[i]


def check_embedding(e: Embedding):
    """(ok, reason): injectivity plus preserve-and-reflect for every order."""
    fmap = dict(e.point_map)
    if set(fmap) != set(e.source.universe):
        return False, "point map does not cover the source"
    if len(set(fmap.values())) != len(fmap):
        return False, "point map is not injective"
    grid = e.target == GRID
    for i in range(e.source.n):
        less = (lambda p, q, i=i: _grid_less(i, p, q)) if grid else \
            (lambda p, q, i=i: e.target.less(i, p, q))
        for a, b in itertools.combinations(e.source.universe, 2):
            for x, y in ((a, b), (b, a)):
                if e.source.less(i, x, y) != less(fmap[x], fmap[y]):
                    return False, f"order {i} not preserved on ({x}, {y})"
    return True, None


# ---------------------------------------------------------------------------
# Operations


class ValidationReport(Record):
    __slots__ = ("ok", "order_index", "message")

    def __init__(self, ok, order_index=None, message=None):
        _set(self, "ok", ok)
        _set(self, "order_index", order_index)
        _set(self, "message", message)


def validate(B: MultiOrder) -> ValidationReport:
    base = set(B.universe)
    for i, order in enumerate(B.orders):
        if len(order) != len(B.universe) or set(order) != base or \
                len(set(order)) != len(order):
            return ValidationReport(False, i, f"order {i} is not a permutation "
                                              f"of the universe")
    return ValidationReport(True)


def enumerate_multicuts(B: MultiOrder):
    """All (|B|+1)^n multi-cuts in lexicographic position order."""
    return [MultiCut(c) for c in
            itertools.product(range(B.size + 1), repeat=B.n)]


def multicut_sets(B: MultiOrder, z: MultiCut):
    """The downward-closed set below each cut, per order."""
    return tuple(frozenset(B.orders[i][:z.cuts[i]]) for i in range(B.n))


def grid_embed(B: MultiOrder) -> Embedding:
    """b -> (rank_0(b), ..., rank_{n-1}(b)), into the coordinatewise grid."""
    rep = validate(B)
    if not rep.ok:
        raise MultiOrderError(rep.message)
    pos = [B.positions(i) for i in range(B.n)]
    point_map = tuple((b, tuple(pos[i][b] for i in range(B.n)))
                      for b in B.universe)
    return Embedding(B, GRID, point_map)


def linearize_grid(N, n, seed, size_cap=4096):
    """Extend the coordinatewise grid on {0..2^N-1}^n to a genuine
    multi-order; ties in coordinate i are broken by a seeded shuffle.
    Returns (multi-order, identity-is-injective-homomorphism check)."""
    count = (2 ** N) ** n
    if count > size_cap:
        raise BudgetExceededError(f"grid of {count} points exceeds the cap {size_cap}")
    points = list(itertools.product(range(2 ** N), repeat=n))
    rng = random.Random(seed)
    orders = []
    for i in range(n):
        shuffled = list(points)
        rng.shuffle(shuffled)
        tiebreak = {p: r for r, p in enumerate(shuffled)}
        orders.append(tuple(sorted(points, key=lambda p: (p[i], tiebreak[p]))))
    mo = MultiOrder(n, tuple(points), tuple(orders))
    ok = all(mo.less(i, p, q)
             for i in range(n)
             for p, q in itertools.permutations(points, 2)
             if _grid_less(i, p, q))
    return mo, ok


class Amalgam(Record):
    __slots__ = ("result", "embed_b", "embed_c")


def _topo_merge(elements, arcs):
    """Deterministic topological order (least-ready-first Kahn)."""
    indeg = {e: 0 for e in elements}
    succ = {e: set() for e in elements}
    for a, b in arcs:
        if b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1
    key = lambda e: (str(type(e)), repr(e))
    ready = sorted((e for e in elements if indeg[e] == 0), key=key)
    out = []
    while ready:
        e = ready.pop(0)
        out.append(e)
        changed = False
        for s in sorted(succ[e], key=key):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
                changed = True
        if changed:
            ready.sort(key=key)
    if len(out) != len(list(elements)):
        raise MultiOrderError("order constraints are cyclic; inputs disagree on A")
    return tuple(out)


def amalgamate(A, B, C, e1: Embedding, e2: Embedding) -> Amalgam:
    """Amalgam of B and C over A: the union of both order diagrams, glued
    along the images of A and completed to total orders deterministically."""
    if not A.n == B.n == C.n:
        raise MultiOrderError(f"A, B and C carry {A.n}, {B.n} and {C.n} orders")
    for e, src, tgt, name in ((e1, A, B, "e1"), (e2, A, C, "e2")):
        if e.source is not src and e.source != src:
            raise MultiOrderError(f"{name} does not start at A")
        if e.target != tgt:
            raise MultiOrderError(f"{name} does not land in the expected target")
        ok, why = check_embedding(e)
        if not ok:
            raise MultiOrderError(f"{name} is not an embedding: {why}")
    glue = {e2(a): e1(a) for a in A.universe}  # C-element -> B-element
    fb = {b: ("B", b) for b in B.universe}
    fc = {c: ("B", glue[c]) if c in glue else ("C", c) for c in C.universe}
    elements = tuple(dict.fromkeys(list(fb.values()) + list(fc.values())))
    orders = []
    for i in range(A.n):
        arcs = []
        for x, y in zip(B.orders[i], B.orders[i][1:]):
            arcs.append((fb[x], fb[y]))
        for x, y in zip(C.orders[i], C.orders[i][1:]):
            arcs.append((fc[x], fc[y]))
        orders.append(_topo_merge(elements, arcs))
    D = MultiOrder(A.n, elements, tuple(orders))
    emb_b = Embedding(B, D, tuple((b, fb[b]) for b in B.universe))
    emb_c = Embedding(C, D, tuple((c, fc[c]) for c in C.universe))
    for emb, name in ((emb_b, "B"), (emb_c, "C")):
        ok, why = check_embedding(emb)
        if not ok:
            raise MultiOrderError(f"amalgam does not embed {name}: {why}")
    return Amalgam(D, emb_b, emb_c)


def one_point_extend(B: MultiOrder, spec: ExtensionSpec, element=None) -> MultiOrder:
    if len(spec.positions) != B.n:
        raise MultiOrderError("one position per order required")
    for p in spec.positions:
        if not 0 <= p <= B.size:
            raise MultiOrderError(f"position {p} out of range 0..{B.size}")
    if element is None:
        k = B.size
        element = f"e{k}"
        while element in B.universe:
            k += 1
            element = f"e{k}"
    elif element in B.universe:
        raise MultiOrderError(f"element {element!r} already present")
    orders = tuple(o[:p] + (element,) + o[p:]
                   for o, p in zip(B.orders, spec.positions))
    return MultiOrder(B.n, B.universe + (element,), orders)


def generate_generic(n, size, seed, size_cap=4096) -> MultiOrder:
    """Iterated one-point extension with uniformly random position tuples."""
    if size < 0:
        raise MultiOrderError("size must be nonnegative")
    if size > size_cap:
        raise BudgetExceededError(f"size {size} exceeds the cap {size_cap}")
    rng = random.Random(seed)
    mo = MultiOrder(n, (), ((),) * n)
    for _ in range(size):
        spec = ExtensionSpec(tuple(rng.randrange(mo.size + 1) for _ in range(n)))
        mo = one_point_extend(mo, spec)
    return mo


def extension_property_level(B: MultiOrder, k) -> bool:
    """True iff every one-point position spec over every <=k-subset is
    realized by an existing element."""
    if k < 0:
        raise MultiOrderError("k must be nonnegative")
    if k > B.size:
        raise MultiOrderError("k exceeds the universe size")
    positions = [B.positions(i) for i in range(B.n)]
    for m in range(k + 1):
        for subset in itertools.combinations(B.universe, m):
            ranks = [sorted(positions[i][s] for s in subset) for i in range(B.n)]

            def relative(b):
                return tuple(sum(1 for r in ranks[i] if r < positions[i][b])
                             for i in range(B.n))

            realized = {relative(b) for b in B.universe if b not in subset}
            want = set(itertools.product(range(m + 1), repeat=B.n))
            if not want <= realized:
                return False
    return True


# ---------------------------------------------------------------------------
# The finite multi-order-property witness check


class PictureWitness(Record):
    """A multi-order drawn inside a host structure: g maps elements to host
    tuples, and phi is the candidate cut-defining formula."""

    __slots__ = ("source",
                 "host",        # a FiniteStructure, FiniteContext, or the symbolic context
                 "point_map",   # pairs (element, host tuple)
                 "phi")

    def __init__(self, source, host, point_map, phi):
        _set(self, "source", source)
        _set(self, "host", host)
        _set(self, "point_map", point_map)
        _set(self, "phi", phi)
        images = [img for _, img in self.point_map]
        if len(set(images)) != len(images):
            raise MultiOrderError("the picture map must be injective")
        if {a for a, _ in self.point_map} != set(self.source.universe):
            raise MultiOrderError("the picture map must cover the source")

    def context(self):
        if isinstance(self.host, FiniteStructure):
            return FiniteContext(self.host)
        return self.host


class MopReport(Record):
    """The definable multi-cuts are the product of the per-order lists
    `cuts`: cuts[i] holds the positions c such that the first c elements of
    order i form a trace.  Every other multi-cut is missing."""

    __slots__ = ("total", "definable",
                 "cuts",     # per order, the definable cut positions in increasing order
                 "status")   # "exhaustive" | "budget"

    @property
    def complete(self):
        return self.status == "exhaustive" and self.definable == self.total

    def to_json(self):
        return {"total": self.total, "definable": self.definable,
                "missing": self.total - self.definable,
                "cuts": [list(c) for c in self.cuts], "status": self.status}


def check_mop_witness(w: PictureWitness, budget=None) -> MopReport:
    """For every multi-cut of the source, search parameters b_0..b_{n-1}
    with X_i = {a : phi(g(a), b_i)}.  The per-order searches are independent,
    so a multi-cut is definable iff each of its n sides is a trace, and the
    report keeps, per order, the cut positions that are.  A trace is an int
    over the universe's positions (the context's `traces`), so the traces
    form a set of ints and each order's prefixes are built bit by bit: the
    cost is one trace per candidate and n·(|B|+1) int lookups.  On Q, with
    one coordinate per point, a trace costs O(|constants| + k) decisions of
    phi, one per run of points between consecutive breakpoints; points of
    more coordinates, and finite hosts, cost |B| decisions.  The budget
    charges |B| per candidate, and the report has O(n·|B|) entries, however
    many of the (|B|+1)^n multi-cuts are missing.
    """
    if budget is not None and budget < 0:
        raise MultiOrderError("the budget must be nonnegative")
    B = w.source
    phi = w.phi
    ctx = w.context()
    gmap = dict(w.point_map)
    extra = sorted({v for img in gmap.values() for v in img})
    candidates = ctx.witness_params(phi, extra=extra)
    rows = ctx.traces(phi, [gmap[a] for a in B.universe], candidates)
    traces = set()
    used = 0
    status = "exhaustive"
    for _ in candidates:
        if budget is not None and used + B.size > budget:
            status = "budget"
            break
        traces.add(next(rows))
        used += B.size
    bit = {a: 1 << i for i, a in enumerate(B.universe)}
    cuts = []
    for order in B.orders:  # the cut positions c whose first c elements form a trace
        prefix, found = 0, [0] if 0 in traces else []
        for c, a in enumerate(order, 1):
            prefix |= bit[a]
            if prefix in traces:
                found.append(c)
        cuts.append(tuple(found))
    cuts = tuple(cuts)
    return MopReport((B.size + 1) ** B.n, math.prod(map(len, cuts)), cuts, status)


def pairwise_comparable(points):
    """Coordinatewise comparability of distinct tuples in every index;
    returns (True, None) or (False, (p, q, order_index))."""
    points = [tuple(p) for p in points]
    if len(set(points)) != len(points):
        raise MultiOrderError("points must be pairwise distinct")
    for p, q in itertools.combinations(points, 2):
        for i in range(len(p)):
            if not (p[i] < q[i] or q[i] < p[i]):
                return False, (p, q, i)
    return True, None


# ---------------------------------------------------------------------------
# Conversions and serialization


def as_structure(B: MultiOrder) -> FiniteStructure:
    """The relational structure with one binary relation <i per order."""
    sig = Signature(tuple((f"<{i}", 2) for i in range(B.n)))
    rels = {}
    for i in range(B.n):
        pos = B.positions(i)
        rels[f"<{i}"] = frozenset(
            (a, b) for a in B.universe for b in B.universe if pos[a] < pos[b])
    return FiniteStructure(sig, B.universe, rels, allow_empty=not B.universe)


def multiorder_to_dict(B: MultiOrder):
    return {"n": B.n, "universe": [str(b) for b in B.universe],
            "orders": [[str(b) for b in o] for o in B.orders]}


def multiorder_from_dict(d) -> MultiOrder:
    try:
        mo = MultiOrder(int(d["n"]), tuple(d["universe"]),
                        tuple(tuple(o) for o in d["orders"]))
    except (KeyError, TypeError) as exc:
        raise MultiOrderError(f"malformed multi-order document: {exc}") from exc
    rep = validate(mo)
    if not rep.ok:
        raise MultiOrderError(rep.message)
    return mo


def load_multiorder(path) -> MultiOrder:
    with open(path) as fh:
        return multiorder_from_dict(json.load(fh))


def dump_multiorder(B: MultiOrder, path):
    with open(path, "w") as fh:
        json.dump(multiorder_to_dict(B), fh, indent=2, sort_keys=True)
        fh.write("\n")
