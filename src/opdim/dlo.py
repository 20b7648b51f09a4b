"""The symbolic (Q, <) engine.  Every first-order formula is compiled once
into a decision (see `_compile`) at places of its free variables and
constants, integer positions or the rationals themselves, in the order of
the points they stand for: an atom compares places, and a quantifier tries
its variable on and between the ranked places of the formula it binds,
which the homogeneity of (Q,<) makes exact.  `evaluate_q` runs a decision
at rationals; the context runs it on cell positions, with an instance's
parameter values placed among the constants.  One cell
algebra holds every set: a subset of Q^k is a product of factors over
disjoint groups of variables (see `DloSet`), each a set of integer cells
over its own variables and constants (see `Factor`).  A restrict refines
and splits only the factor its instance mentions, joining first the
factors the instance links, and keeps both sign sets in a partition memo;
`DloContext.to_set` restricts `top` by each top-level conjunct.  That fold
gives every query its set: `order_diagrams` lists the cells of its joined
form as `OrderDiagram`s, `qe_dlo` writes them as a disjunction, `dimension`
reads the blocks of each factor's cells, and `sat_sample` picks a point.
The rank memo keys a set, and the candidate grids read it, through the
normal form of its joined form (`DloSet.joined`, `Factor.normal_form`);
restrict, emptiness, sat and pick work on the factors as given.

All arithmetic is exact (fractions.Fraction); no floating point anywhere.
"""
from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from fractions import Fraction

from .contexts import BudgetExceededError, Context
from .logic import (
    And, Atom, Bot, Eq, Exists, Forall, Imp, LogicError, Not, Or, Rat, Record, Top, Var,
    FALSE, TRUE, PartitionedFormula, _print_term, _set, conj_all, disj_all, free_vars,
    rename_vars,
)


class DloError(Exception):
    pass


HALF = Fraction(1, 2)


def constants_of(f):
    if isinstance(f, (Atom, Eq)):
        return {a.value for a in (f.args if isinstance(f, Atom) else (f.left, f.right))
                if isinstance(a, Rat)}
    if isinstance(f, (Not, Forall, Exists)):
        return constants_of(f.sub)
    if isinstance(f, (And, Or, Imp)):
        return constants_of(f.left) | constants_of(f.right)
    return set()


# ---------------------------------------------------------------------------
# Cells: the listing, elimination and satisfiability queries


class OrderDiagram(Record):
    """A cell as `order_diagrams` lists it: a complete consistent arrangement
    of variables and constants, blocks in strictly increasing order; members
    of a block are equal."""

    __slots__ = ("blocks",)  # ((frozenset_of_var_names, const_value_or_None), ...)

    def sample(self):
        """Rationals for the variables: the point `DloContext.pick` reads off
        the cell (see `_point`)."""
        names = [v for vs, _ in self.blocks for v in vs]
        stride, gap, j, cell = len(names) + 1, 0, 0, []
        for vs, c in self.blocks:
            gap, j = (gap, j + 1) if c is None else (gap + 1, 0)
            cell += [gap * stride + j] * len(vs)
        consts = tuple(c for _, c in self.blocks if c is not None)
        return dict(zip(names, _point(cell, consts, stride)))

    def to_formula(self):
        """Each block's variables equal to its constant or to its first
        variable, then each block's representative below the next one's
        (two constants compare without an atom)."""
        parts, reps = [], []
        for vs, c in self.blocks:
            ordered = sorted(vs)
            reps.append(Rat(c) if c is not None else Var(ordered.pop(0)))
            parts += [Eq(Var(v), reps[-1]) for v in ordered]
        return conj_all(parts + [Atom("<", pair) for pair in zip(reps, reps[1:])
                                 if not all(isinstance(r, Rat) for r in pair)])


_cname = "#{}".format   # the name under which an env places a constant


def _place(a):
    """The name under which an env places the term a: a variable's own, a
    constant's `_cname`.  DloError for a term (Q,<) does not interpret."""
    if isinstance(a, Rat):
        return _cname(a.value)
    if not isinstance(a, Var):
        raise DloError(f"term {_print_term(a)} has no rational value")
    return a.name


def _compile(f):
    """f as a decision: a function of an env that places f's free variables
    and constants (see `_place`) at integer positions or at rationals, in the
    order of the points they stand for, so that env decides each atom.  A
    quantified subformula depends only on the order of the places of its
    free variables and constants, which it ranks to 1, 3, ..., 2m-1; by the
    homogeneity of (Q,<), `exists v. g` holds iff g holds with v at one of
    0, 1, ..., 2m (on a ranked position or in a gap between two), and
    `forall v. g` iff at all of them.  Its decision keeps the answer on each
    rank tuple.  DloError for what (Q,<) does not interpret: a relation
    other than binary `<`, or a term that is neither a variable nor a
    rational."""
    if isinstance(f, Atom):
        if f.rel != "<" or len(f.args) != 2:
            raise DloError(f"relation {f.rel} is not part of the order signature")
        a, b = map(_place, f.args)
        return lambda env: env[a] < env[b]
    if isinstance(f, Eq):
        a, b = _place(f.left), _place(f.right)
        return lambda env: env[a] == env[b]
    if isinstance(f, (And, Or, Imp)):
        left, right = _compile(f.left), _compile(f.right)
        if isinstance(f, And):
            return lambda env: left(env) and right(env)
        if isinstance(f, Or):
            return lambda env: left(env) or right(env)
        return lambda env: not left(env) or right(env)
    if isinstance(f, Not):
        sub = _compile(f.sub)
        return lambda env: not sub(env)
    if isinstance(f, (Exists, Forall)):
        scope, var, sub = (tuple(free_vars(f).union(map(_cname, constants_of(f)))),
                           f.var, _compile(f.sub))
        found, answers = any if isinstance(f, Exists) else all, {}

        def quantified(env):
            at = [env[v] for v in scope]
            rank = {p: 2 * i + 1 for i, p in enumerate(sorted(set(at)))}
            key = tuple(map(rank.__getitem__, at))
            if key not in answers:
                ranked = dict(zip(scope, key))
                answers[key] = found(sub({**ranked, var: p}) for p in range(2 * len(rank) + 1))
            return answers[key]
        return quantified
    if isinstance(f, (Top, Bot)):
        return (lambda env: True) if isinstance(f, Top) else (lambda env: False)
    raise DloError(f"cannot evaluate {f!r} over the rationals")


def evaluate_q(f, env=None):
    """Whether f, quantifiers allowed, holds over (Q,<) where env places its
    free variables at rationals: f's decision (see `_compile`), each
    constant placed at its own value."""
    env = env or {}
    unbound = sorted(free_vars(f).difference(env))
    if unbound:
        raise DloError(f"unbound variable {unbound[0]}")
    return _compile(f)({**env, **{_cname(c): c for c in constants_of(f)}})


def _diagram(cell, consts, names, stride):
    """The order diagram over `consts` of the variables `names` at integer
    positions of stride `stride` (see `Factor`); the positions need only be
    in order, not canonical."""
    at = {(r + 1) * stride: [] for r in range(len(consts))}
    for v, q in zip(names, cell):
        at.setdefault(q, []).append(v)
    return OrderDiagram(tuple((frozenset(at[p]), None if p % stride else consts[p // stride - 1])
                              for p in sorted(at)))


def _enumeration_key(d):
    """Where the diagram comes when the variables are added one at a time,
    in name order, to the constants: each joins a block placed before it,
    (False, i) for the i-th, or takes a gap between them, (True, g) for the
    g-th."""
    at = {v: i for i, (vs, _) in enumerate(d.blocks) for v in vs}
    placed = {i for i, (_, c) in enumerate(d.blocks) if c is not None}
    key = []
    for v in sorted(at):
        key.append((at[v] not in placed, sum(p < at[v] for p in placed)))
        placed.add(at[v])
    return tuple(key)


def order_diagrams(f, variables=None, extra_consts=()):
    """The cells of the set that f defines over `variables` (by default its
    free variables, sorted; DloError names a free variable they lack),
    quantifiers allowed: the cells of its joined form (see
    `DloContext._fold`) refined by the constants of f and `extra_consts`, as
    order diagrams in enumeration order.  Their union is exactly the set."""
    if variables is None:
        variables = sorted(free_vars(f))
    unbound = sorted(free_vars(f).difference(variables))
    if unbound:
        raise DloError(f"unbound variable {unbound[0]}")
    joined, stride = DloContext(len(variables))._fold(f, variables).joined(), len(variables) + 1
    consts, cells, _ = _refine(joined.consts, joined.cells, stride,
                               sorted(constants_of(f).union(extra_consts)))
    return sorted((_diagram(cell, consts, variables, stride) for cell in cells),
                  key=_enumeration_key)


def qe_dlo(f):
    """Equivalent quantifier-free formula, normalized to a canonical
    disjunction of order diagrams over its free variables and constants.
    The whole space has a cell for each merge, blocks allowed to coincide,
    of the b blocks of one of its constant-free cells with the m constants
    (`_interleavings(b, m)`), so counting decides it."""
    variables = sorted(free_vars(f))
    diagrams = order_diagrams(f, variables)
    if not diagrams:
        return FALSE
    whole = DloContext(len(variables)).top().joined().cells
    if len(diagrams) == sum(len(_interleavings(max(c, default=0), len(constants_of(f))))
                            for c in whole):
        return TRUE
    return disj_all(d.to_formula() for d in diagrams)


def sat_sample(f):
    """A point of the set that f defines, quantifiers allowed, as a value for
    each free variable (the context's `pick`), or None when it is empty."""
    variables = sorted(free_vars(f))
    ctx = DloContext(len(variables))
    s = ctx._fold(f, variables)
    return None if ctx.is_empty(s) else dict(zip(variables, ctx.pick(s)))


def satisfiable_q(f):
    return sat_sample(f) is not None


# ---------------------------------------------------------------------------
# Dimension


class DimensionReport(Record):
    __slots__ = ("dimension",  # an int, or None for the empty set
                 "method", "coords",
                 "box")        # per coordinate, an open interval (lo, hi)

    def __init__(self, dimension, method, coords=None, box=None):
        _set(self, "dimension", dimension)
        _set(self, "method", method)
        _set(self, "coords", coords)
        _set(self, "box", box)

    @property
    def empty(self):
        return self.dimension is None

    def to_json(self):
        return {
            "dim": "empty" if self.empty else self.dimension,
            "method": self.method,
            "coords": list(self.coords) if self.coords is not None else None,
            "box": [[str(lo), str(hi)] for lo, hi in self.box] if self.box else None,
        }


def _outside(extra, m):
    """The error for free variables that are not among the m coordinates."""
    where = f"outside x0..x{m - 1}" if m else "but there are no coordinates (m = 0)"
    return DloError(f"free variables {sorted(extra)} {where}")


def _open_box(factor, consts):
    """The factor's lexicographically first largest coordinates that one of
    its cells holds in distinct blocks off the constants, each with an open
    interval: its value in the sample of the first such cell, in
    enumeration order, of the cells refined by `consts` and projected to the
    coordinates, widened halfway to the neighbouring blocks' values (one
    unit out beyond the last).  Pairs (coordinate, interval)."""
    stride = len(factor.group) + 1

    def least(cell):  # the least coordinate of each block off the constants
        out = {}
        for i, q in zip(factor.group, cell):
            if q % stride:
                out.setdefault(q, i)
        return sorted(out.values())

    coords = min(map(least, factor.cells), key=lambda c: (-len(c), c))
    if not coords:
        return []
    at, names = [factor.group.index(i) for i in coords], [f"x{i}" for i in coords]
    consts, cells, _ = _refine(factor.consts, factor.cells, stride, consts)
    first = min((_diagram(p, consts, names, stride)
                 for p in {tuple(cell[j] for j in at) for cell in cells}
                 if len(set(p)) == len(p) and all(q % stride for q in p)),
                key=_enumeration_key)
    env = first.sample()
    values = [c if c is not None else env[min(vs)] for vs, c in first.blocks]
    ends = [values[0] - 1] + values + [values[-1] + 1]
    where = {v: b for b, (vs, _) in enumerate(first.blocks) for v in vs}
    return [(i, ((ends[b] + ends[b + 1]) * HALF, (ends[b + 1] + ends[b + 2]) * HALF))
            for i, b in zip(coords, map(where.__getitem__, names))]


def dimension(f, m, method="both") -> DimensionReport:
    """Dimension of the set defined by f over (Q,<)^m, read off the factors
    of its set (see `DloContext.to_set`).

    diagram method: the sum over the factors of the most blocks off the
    constants that one of a factor's cells has.  projection method: the
    largest coordinate projection containing an open box, the union of each
    factor's coordinates and box (see `_open_box`).  The empty set gets a
    distinguished report.
    """
    ctx = _coordinates(f, m)
    if method not in ("diagram", "projection", "both"):
        raise DloError(f"unknown method {method!r}")
    return _dimension_of(ctx, ctx.to_set(f), f, method)


def _coordinates(f, m):
    """The context of (Q,<)^m, once f's free variables are known to be among
    its coordinates x0..x{m-1}."""
    if m < 0:
        raise DloError("the variable count m must be nonnegative")
    ctx = DloContext(m)
    extra = free_vars(f) - set(ctx.obj_vars)
    if extra:
        raise _outside(extra, m)
    return ctx


def _dimension_of(ctx, s, f, method):
    """`dimension`'s report by `method` on s, the set of f in ctx."""
    if ctx.is_empty(s):
        return DimensionReport(None, method)
    d_dim = sum(max(len({q for q in cell if q % (len(g.group) + 1)}) for cell in g.cells)
                for g in s.factors)
    if method == "diagram":
        return DimensionReport(d_dim, "diagram")
    consts = sorted(constants_of(f))
    box = dict(pair for g in s.factors for pair in _open_box(g, consts))
    coords = tuple(sorted(box))
    if method == "both" and d_dim != len(coords):
        raise DloError(f"dimension methods disagree: diagram={d_dim} projection={len(coords)}")
    return DimensionReport(len(coords), method, coords, tuple(map(box.__getitem__, coords)))


def product(f, m0, g, m1):
    """Conjunction on disjoint variables: g's coordinates are shifted up."""
    renaming = {f"x{i}": f"x{m0 + i}" for i in range(m1)}
    extra = free_vars(g) - set(renaming)
    if extra:
        raise _outside(extra, m1)
    return And(f, rename_vars(g, renaming))


# ---------------------------------------------------------------------------
# The symbolic context


def standard_grid(consts):
    """The points of the one-variable cells over the constants (see
    `_point`): the constants, midpoints between neighbours, and one point
    beyond each extreme; [0] when there are no constants."""
    consts = tuple(sorted(set(map(Fraction, consts))))
    return [_point((q,), consts, 2)[0] for q in range(1, 2 * len(consts) + 2)]


class Factor(Record):
    """A subset of (Q,<)^group for a group of the context's variables (their
    indices, increasing): `consts` is the sorted tuple c_0 < ... < c_{m-1}
    of its constants, and `cells` its cells, in a fixed order, as order
    diagrams over them in integer form.  A cell holds one position per
    variable of the group, with stride k+1 for k = |group|: c_i sits at
    (i+1)(k+1), and the j-th variable block (1 <= j <= k) of the gap below
    c_i (above every constant for i = m) at i(k+1)+j.  The form is
    canonical, so equal cells are equal tuples."""

    __slots__ = ("group", "consts", "cells", "_hash", "_normal", "_key")

    def __init__(self, group, consts, cells):
        _set(self, "group", group)
        _set(self, "consts", consts)
        _set(self, "cells", cells)

    def __hash__(self):
        # hashing the Fraction constants is hot in restrict's partition memo; cache it
        try:
            return self._hash
        except AttributeError:
            h = hash((self.group, self.consts, self.cells))
            _set(self, "_hash", h)
            return h

    def normal_form(self):
        """The same subset over only the constants it depends on (cached,
        like the hash).  From the top rank down, c_r goes when splitting the
        cells merged across it (see `_merge`) by c_r gives back exactly the
        cells: as a merged cell with b blocks in gap r splits into 2b+1, that
        is a count.  Dropping a constant never makes a lower one droppable
        that was not, so one pass finds the least constant set."""
        try:
            return self._normal
        except AttributeError:
            pass
        consts, cells = self.consts, self.cells
        stride = len(self.group) + 1
        for r in reversed(range(len(consts))):
            lo, hi = r * stride, (r + 1) * stride
            merged = dict.fromkeys(_merge(cell, r, stride) for cell in cells)
            if len(cells) == sum(2 * max((q - lo for q in m if lo < q < hi), default=0) + 1
                                 for m in merged):
                consts, cells = consts[:r] + consts[r + 1:], tuple(merged)
        normal = self if consts is self.consts else Factor(self.group, consts, cells)
        _set(self, "_normal", normal)
        return normal


_UNIT = Factor((), (), ((),))   # the one point of (Q,<)^0


class DloSet(Record):
    """A subset of (Q,<)^k as the product of its `factors`, `Factor`s over
    disjoint groups of the context's variables that cover them all, in the
    order of their least variables (k = 0 has the one factor `_UNIT`).  The
    context keeps every factor of a nonempty set nonempty, and gives the
    empty set as one factor over every variable with no cells, so a set is
    empty iff its first factor is."""

    __slots__ = ("factors", "_hash", "_joined")

    def __init__(self, factors):
        _set(self, "factors", factors)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self.factors)
            _set(self, "_hash", h)
            return h

    def joined(self):
        """The same set as one factor over every variable, the form whose
        normal form keys and grids read (cached, like the hash; a one-factor
        set's is that factor)."""
        joined = getattr(self, "_joined", None)  # no exception to catch: most sets are asked once
        if joined is None:
            joined = functools.reduce(_join, self.factors)
            _set(self, "_joined", joined)
        return joined


def _merge(cell, r, stride):
    """The cell with the constant of rank r dropped, the inverse of `_split`:
    the constant's block, if a variable sits on it, follows the t blocks of
    gap r, and the blocks of gap r+1 follow it; every position above gap r+1
    moves down one gap."""
    lo, at = r * stride, (r + 1) * stride
    d = max((q - lo for q in cell if lo < q < at), default=0) + (at in cell)
    return tuple(q if q < at else q - stride + d if q < at + stride else q - stride
                 for q in cell)


def _gap_blocks(cell, stride, gaps):
    """The number of variable blocks of the cell in each of `gaps` gaps."""
    blocks = [0] * gaps
    for q in cell:
        g, j = divmod(q, stride)
        blocks[g] = max(blocks[g], j)
    return blocks


def _point(cell, consts, stride):
    """The point the cell's order diagram samples (`OrderDiagram.sample`),
    read off the positions: c_i at a constant's; the j-th of b blocks in gap
    g at c_{g-1} + (c_g - c_{g-1}) j/(b+1) between two constants,
    c_0 - (b+1-j) below them, c_last + j above them, and j - 1 when there
    are none."""
    blocks = _gap_blocks(cell, stride, len(consts) + 1)
    point = []
    for q in cell:
        g, j = divmod(q, stride)
        if not j:
            point.append(consts[g - 1])
        elif not consts:
            point.append(Fraction(j - 1))
        elif g == 0:
            point.append(consts[0] - (blocks[0] + 1 - j))
        elif g == len(consts):
            point.append(consts[-1] + j)
        else:
            lo, hi = consts[g - 1], consts[g]
            point.append(lo + (hi - lo) * Fraction(j, blocks[g] + 1))
    return tuple(point)


def _split(cell, r, stride):
    """The cells refining `cell` by a new constant of rank r, in the order: a
    new block after 0 of the b blocks of gap r, joining block 1, a new block
    after 1, ..., after b.  The gap's blocks above it, and every position
    above the gap, move up one gap."""
    lo = r * stride
    hi = lo + stride
    b = lo
    for q in cell:
        if b < q < hi:
            b = q
    b -= lo
    if not b:  # no block in the gap: the one refined cell moves what lies above it
        return [tuple([q if q < hi else q + stride for q in cell])]
    out = []
    for i in range(2 * b + 1):
        # positions from u on move; t blocks of gap r stay below the constant
        u, t = lo + 1 + i // 2, (i + 1) // 2
        out.append(tuple([q if q < u else q + stride - t if q < hi else q + stride
                          for q in cell]))
    return out


def _refine(consts, cells, stride, new):
    """A factor's constants and cells refined by the sorted constants `new`,
    and the position of each of those in the refined cells."""
    consts, at, r = list(consts), [], 0
    for c in new:
        # new is sorted, so a later insertion never moves an earlier rank
        r = bisect_left(consts, c, r)
        if r == len(consts) or consts[r] != c:
            consts.insert(r, c)
            cells = [e for cell in cells for e in _split(cell, r, stride)]
        at.append((r + 1) * stride)
    return tuple(consts), cells, at


@functools.cache
def _interleavings(p, q):
    """The merges of a chain of p blocks with one of q blocks, each kept in
    order, where a block of one may coincide with a block of the other:
    pairs (a, b), a[j] and b[j] the merged index (from 1) of block j+1 of
    each chain."""
    if not p or not q:
        return ((tuple(range(1, p + 1)), tuple(range(1, q + 1))),)
    out = []
    for dp, dq in ((1, 0), (0, 1), (1, 1)):  # the last merged block: p's, q's or both
        for a, b in _interleavings(p - dp, q - dq):
            n = max(a[-1:] + b[-1:], default=0) + 1
            out.append((a + (n,) * dp, b + (n,) * dq))
    return tuple(out)


def _join(a, b):
    """The product of two factors as one factor over both groups: each
    refined by the other's constants, then for each pair of cells every
    interleaving, gap by gap, of the two cells' blocks."""
    sa, sb = len(a.group) + 1, len(b.group) + 1
    consts, xs, _ = _refine(a.consts, a.cells, sa, b.consts)
    _, ys, _ = _refine(b.consts, b.cells, sb, a.consts)
    group = a.group + b.group
    order = sorted(range(len(group)), key=group.__getitem__)
    stride, gaps = len(group) + 1, len(consts) + 1
    ys = [(y, _gap_blocks(y, sb, gaps)) for y in ys]
    cells = []
    for x in xs:
        bx = _gap_blocks(x, sa, gaps)
        for y, by in ys:
            for ways in itertools.product(*map(_interleavings, bx, by)):
                at = [g * stride + (ways[g][0][j - 1] if j else 0)
                      for g, j in (divmod(q, sa) for q in x)]
                at += [g * stride + (ways[g][1][j - 1] if j else 0)
                       for g, j in (divmod(q, sb) for q in y)]
                cells.append(tuple(at[i] for i in order))
    return Factor(tuple(sorted(group)), consts, tuple(cells))


def _divide(factor, variables, decide, names, values):
    """The factor's constants refined by the sorted values `values`, which
    the env places under `names` (a repeated value takes one position), and
    its refined cells split by the decision `decide` (see `_compile`) into
    (where it fails, where it holds); variables[i] is the decision's name for
    the context's variable i."""
    own = [variables[i] for i in factor.group]
    consts, cells, at = _refine(factor.consts, factor.cells, len(own) + 1, values)
    env = dict(zip(names, at))
    halves = ([], [])
    for cell in cells:
        env.update(zip(own, cell))
        halves[decide(env)].append(cell)
    return consts, halves


def _decision(body, variables):
    """What `DloContext._partition` reads of a body whose name for the
    context's variable i is variables[i]: its decision, its constants'
    names and values (sorted), and the indices of the variables it
    mentions."""
    consts, free = tuple(sorted(constants_of(body))), free_vars(body)
    return (_compile(body), tuple(map(_cname, consts)), consts,
            frozenset(i for i, v in enumerate(variables) if v in free))


class DloContext(Context):
    """Exposes the finite-context interface over the symbolic dense order.

    A set is a `DloSet`, a product of factors over disjoint groups of
    variables: `top` has one free factor per variable, `to_set` restricts
    it by each top-level conjunct, and a restrict refines and splits only
    the factor its instance mentions, joining first the factors the
    instance links.  Every formula, quantified or not, is decided on cell
    positions by its decision (see `_compile`), which `evaluate_q` runs at
    rationals; an instance is phi's decision with the parameter values
    placed among the refined constants.  Only `order_diagrams` turns cells
    into order diagrams, to list them.  A context keeps what it computes
    for the life of the object: each phi's decision, candidate grids per
    (phi, extra constants), and the partition memo, which holds for each
    (set, phi, params) that restrict has seen the set's two sign sets; a
    sign pair is answered from the last partition, found by identity of the
    set, phi and params, with no key hashed.  Make a new context to drop
    them.
    `cache_key` and `instance_candidates` read a set through the normal
    form of its joined form, so neither the factoring nor a constant the
    set does not depend on splits its key or adds points to its grid;
    restrict, emptiness, sat and pick work on the factors as given."""

    def __init__(self, num_vars=1, max_candidates=4096):
        self.obj_vars = tuple(f"x{i}" for i in range(num_vars))
        self.arity = num_vars
        self.max_candidates = max_candidates
        self._decisions = {}  # phi -> what restrict reads of it, see _instance
        self._grids = {}   # (phi, extra constants) -> the candidate parameter tuples
        self._fixed = ()   # the sorted constants of every formula asked about
        self._splits = {}  # (set, phi, params) -> the set's two sign sets, see restrict
        self._last = (None, None, None, None)  # restrict's last key and its two sign sets
        self._top = DloSet(tuple(Factor((i,), (), ((1,),)) for i in range(num_vars))
                           or (_UNIT,))
        self._empty = DloSet((Factor(tuple(range(num_vars)), (), ()),))

    def top(self, arity=None):
        if arity not in (None, self.arity):
            raise DloError("symbolic context has a fixed arity")
        return self._top

    def to_set(self, x):
        """x's set: `top` restricted by each top-level conjunct of x in turn,
        so the conjuncts that share variables land in one factor, a ground
        conjunct keeps the set or empties it, and a variable no conjunct
        mentions keeps its free factor.  Unlike restrict it fixes no
        constant: the set alone does not change the rank memo's keys."""
        if isinstance(x, DloSet):
            return x
        extra = free_vars(x) - set(self.obj_vars)
        if extra:
            raise DloError(f"free variables {sorted(extra)} outside the context sort")
        return self._fold(x, self.obj_vars)

    def _fold(self, f, variables):
        """`to_set`'s fold, for a formula whose name for the context's
        variable i is variables[i]."""
        s, conjuncts = self._top, [f]
        while conjuncts:
            g = conjuncts.pop()
            if isinstance(g, And):
                conjuncts += (g.right, g.left)
            else:
                s = self._partition(s, variables, *_decision(g, variables))[1]
        return s

    def _fix(self, consts):
        if not consts.issubset(self._fixed):  # the same tuple keeps cached keys
            self._fixed = tuple(sorted(consts.union(self._fixed)))

    def _instance(self, phi: PartitionedFormula, params):
        """phi's instance at params as `_partition` reads it: phi's body as
        `_decision` gives it, kept per phi, with the values of the parameters
        that occur in it placed, under their names, among its constants by
        bisection."""
        if len(phi.obj_vars) != self.arity:
            raise DloError("formula object sort does not match the context")
        kept = self._decisions.get(phi)
        if kept is None:
            self._fix(constants_of(phi.body))
            free = free_vars(phi.body)
            kept = self._decisions[phi] = (
                _decision(phi.body, phi.obj_vars),
                tuple(j for j, y in enumerate(phi.param_vars) if y in free))
        if len(params) != len(phi.param_vars):
            raise LogicError("parameter tuple has wrong length")
        (decide, names, consts, mentions), free = kept
        if free:
            consts, names = list(consts), list(names)
            for j in free:
                v = params[j]
                if not isinstance(v, Fraction):
                    v = Fraction(v)
                at = bisect_left(consts, v)
                consts.insert(at, v)
                names.insert(at, phi.param_vars[j])
        return decide, names, consts, mentions

    def restrict(self, s, phi, params, sign):
        last = self._last
        # the other sign of the last call's partition: the same objects, so no key to hash
        if last[2] is params and last[0] is s and last[1] is phi:
            return last[3][1 if sign else 0]
        key = (s, phi, tuple(params))  # a list's tuple is new, so it never matches above
        halves = self._splits.get(key)
        if halves is None:
            halves = self._splits[key] = self._partition(s, phi.obj_vars,
                                                         *self._instance(phi, key[2]))
        self._last = key + (halves,)
        return halves[1 if sign else 0]

    def _partition(self, s, variables, decide, names, values, mentions):
        """s split into (where the decision fails, where it holds): the
        factors it mentions are joined, refined by the values it places
        under `names` and divided (see `_divide`), and the other factors are
        kept.  The decision's name for the context's variable i is
        variables[i]."""
        factors = s.factors
        hit = [f for f in factors if not mentions.isdisjoint(f.group)]
        if not hit:  # a ground decision holds everywhere or nowhere
            holds = _divide(_UNIT, variables, decide, names, values)[1][1]
            return (self._empty, s) if holds else (s, self._empty)
        joined = functools.reduce(_join, hit)
        consts, halves = _divide(joined, variables, decide, names, values)
        # the joined factor takes the place of the first one it joins
        at = factors.index(hit[0])
        before, after = factors[:at], factors[at + 1:]
        if len(hit) > 1:
            after = tuple(f for f in after if f not in hit)

        def product(cells):
            if not cells:
                return self._empty
            return DloSet(before + (Factor(joined.group, consts, tuple(cells)),) + after)
        return product(halves[0]), product(halves[1])

    def is_empty(self, s):
        return not s.factors[0].cells  # see DloSet

    def size(self, s):
        return None

    def cache_key(self, s):
        """Equal for two sets when an order automorphism fixing the constants
        of every formula asked about carries one's normal form onto the
        other's: the cells; the fixed constants of the set by value; where
        each fixed constant falls among the set's.  Sound for the rank memo,
        as a node's candidates are one point per gap of Delta's constants
        and the normal form's, and the set is a union of cells over those.
        The key is cached on the normal form with the fixed constants it was
        computed for, as the rank engines ask again for the same sets."""
        fixed, s = self._fixed, s.joined().normal_form()
        try:
            if s._key[0] is fixed:
                return s._key[1]
        except AttributeError:
            pass
        key = (frozenset(s.cells), tuple(c if c in fixed else None for c in s.consts),
               tuple(bisect_left(s.consts, c) for c in fixed))
        _set(s, "_key", (fixed, key))
        return key

    def pick(self, s):
        """The point each factor's first cell gives its variables."""
        if self.is_empty(s):
            raise DloError("cannot pick from an empty set")
        point = [None] * self.arity
        for f in s.factors:
            for i, v in zip(f.group, _point(f.cells[0], f.consts, len(f.group) + 1)):
                point[i] = v
        return tuple(point)

    def instance_candidates(self, phi: PartitionedFormula, s=None):
        return self.witness_params(phi, s.joined().normal_form().consts if s is not None else ())

    def witness_params(self, phi: PartitionedFormula, extra=()):
        """Every parameter tuple for phi over the grid of its constants and
        `extra`, as a tuple kept per (phi, set of extra constants)."""
        key = (phi, frozenset(extra))
        if key not in self._grids:
            consts = constants_of(phi.body)
            self._fix(consts)
            grid = standard_grid(consts | key[1])
            k = len(phi.param_vars)
            if len(grid) ** k > self.max_candidates:
                raise BudgetExceededError(
                    f"symbolic parameter grid too large: {len(grid)} points ^ {k} parameters"
                    f" = {len(grid) ** k} tuples exceeds max_candidates {self.max_candidates}")
            self._grids[key] = tuple(itertools.product(grid, repeat=k))
        return self._grids[key]

    def traces(self, phi: PartitionedFormula, points, candidates):
        """For each candidate b, in order and lazily, the int whose bit i is
        set when phi(points[i], b) holds.  Values are ints or Fractions.
        Each of phi's constants, the points' coordinates and the candidates'
        values (a sequence: it is read twice) is scaled once by the common
        denominator of all of them, an exact integer in the same order, and
        phi's decision (see `_compile`) is run on these integers.  With one
        object variable the breakpoints of b are phi's constants and b's
        values, and by homogeneity phi(x, b) is constant on each run of
        points strictly between two consecutive breakpoints: the decision
        runs once per run and once per breakpoint a point sits on, so a
        candidate costs O(|constants| + k) decisions however many points
        there are.  Points of more coordinates are decided one by one."""
        consts = constants_of(phi.body)
        scale = math.lcm(*(v.denominator for v in itertools.chain(consts, *points, *candidates)))

        def image(v):
            return v.numerator * (scale // v.denominator)
        decide, env = _compile(phi.body), {_cname(c): image(c) for c in consts}
        if len(phi.obj_vars) != 1:
            points = [tuple(zip(phi.obj_vars, map(image, p), strict=True)) for p in points]
            for b in candidates:
                env.update(zip(phi.param_vars, map(image, b), strict=True))
                trace = 0
                for i, p in enumerate(points):
                    env.update(p)
                    if decide(env):
                        trace |= 1 << i
                yield trace
            return
        x, = phi.obj_vars
        bits = {}  # a point's image -> the bits of the points there
        for i, (v,) in enumerate(points):
            v = image(v)
            bits[v] = bits.get(v, 0) | 1 << i
        at = sorted(bits)  # the points' distinct images, increasing
        below = [0]  # below[j]: the bits of the points below at[j]
        for v in at:
            below.append(below[-1] | bits[v])
        fixed = set(env.values())  # the images of phi's constants
        for b in candidates:
            values = list(map(image, b))
            env.update(zip(phi.param_vars, values, strict=True))
            trace = lo = 0  # lo: the first point above the last breakpoint
            for r in sorted(fixed.union(values)):
                j = bisect_left(at, r, lo)
                if j > lo:  # the run below r
                    env[x] = at[lo]
                    if decide(env):
                        trace |= below[j] ^ below[lo]
                if j < len(at) and at[j] == r:  # the points on r
                    env[x] = r
                    if decide(env):
                        trace |= bits[r]
                    j += 1
                lo = j
            if lo < len(at):  # the run above the last breakpoint
                env[x] = at[lo]
                if decide(env):
                    trace |= below[-1] ^ below[lo]
            yield trace


# ---------------------------------------------------------------------------
# The pattern construction behind the dimension/pattern-depth equality


def ird_witness_from_dim(f, m, length=3):
    """From a positive-dimension set, build the coordinate-comparison
    threshold pattern of depth equal to the dimension: row i compares the
    i-th witnessed projection coordinate, with witnesses marching along a
    grid line of the interior box.  Returns None for empty or 0-dimensional
    sets."""
    from .patterns import IRDPattern, check_ird

    if length < 0:
        raise DloError("the pattern length must be nonnegative")
    ctx = _coordinates(f, m)
    s = ctx.to_set(f)
    report = _dimension_of(ctx, s, f, "projection")
    if report.empty or report.dimension == 0:
        return None
    formulas = []
    witnesses = []
    for i, coord in enumerate(report.coords):
        psi = PartitionedFormula(
            Atom("<", (Var(f"x{coord}"), Var("w"))), ctx.obj_vars, ("w",))
        lo, hi = report.box[i]
        row = tuple((lo + (hi - lo) * Fraction(j + 1, length + 1),)
                    for j in range(length))
        formulas.append(psi)
        witnesses.append(row)
    pattern = IRDPattern(ctx, s, tuple(formulas), tuple(witnesses))
    ok, failing = check_ird(pattern)
    if not ok:
        raise DloError(f"constructed pattern failed at selector {failing}")
    return pattern
