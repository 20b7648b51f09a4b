"""An independent reference for the cell algebra of `opdim.dlo`, used only by
the tests.

- Order diagrams are enumerated one variable at a time over the constants,
  and each is decided by a grid evaluator at its block indices, the
  constants read as variables there: a quantifier ranges over the
  constants and the values bound so far, the midpoints between neighbours
  and one point beyond each end.
- Dimension is read off the diagrams twice: by their free blocks, and by the
  coordinate projections that hold an open cell.
- A satisfiability solver works by disjunctive normal form and order graphs.
- `_split`, the integer-cell kernel that refines a cell by a new constant,
  is kept in its first, plainly written form.

It imports nothing from `opdim.dlo` but `constants_of` and `DloError`
(`tests/test_dlo.py::test_reference_imports_nothing_it_checks` holds that),
so it never reuses the code it checks.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from opdim.contexts import BudgetExceededError
from opdim.dlo import DloError, constants_of
from opdim.logic import (
    And, Atom, Bot, Eq, Exists, Forall, Imp, Not, Or, Rat, Top, Var,
    conj_all, disj_all, free_vars,
)


# ---------------------------------------------------------------------------
# Order diagrams


@dataclass(frozen=True)
class OrderDiagram:
    """A complete consistent arrangement of variables and constants: blocks
    in strictly increasing order; members of a block are equal."""

    blocks: tuple  # ((frozenset_of_var_names, const_value_or_None), ...)

    def free_block_count(self):
        return sum(1 for vs, c in self.blocks if vs and c is None)

    def project(self, names):
        """The diagram of the variables in `names` alone: the others dropped,
        and every block they leave empty."""
        return OrderDiagram(tuple((vs & names, c) for vs, c in self.blocks
                                  if c is not None or vs & names))

    def extensions(self, v):
        """The diagrams adding the variable v: it joins one of the blocks or
        takes one of the gaps."""
        blocks = self.blocks
        for i, (vs, c) in enumerate(blocks):
            yield OrderDiagram(blocks[:i] + ((vs | {v}, c),) + blocks[i + 1:])
        for gap in range(len(blocks) + 1):
            yield OrderDiagram(blocks[:gap] + ((frozenset({v}), None),) + blocks[gap:])

    def sample(self):
        """Rationals for the variables: blocks step by 1 below the first
        constant and above the last (from block 0 at 0 when there is none),
        and are evenly spaced between two constants."""
        anchors = [(i, c) for i, (_, c) in enumerate(self.blocks) if c is not None]
        anchors = anchors or [(0, Fraction(0))]
        (i0, c0), (i1, c1) = anchors[0], anchors[-1]
        values = [c0 - (i0 - i) for i in range(i0)]
        for (ia, ca), (ib, cb) in zip(anchors, anchors[1:]):
            values += [ca + (cb - ca) * Fraction(k, ib - ia) for k in range(ib - ia)]
        values += [c1 + (i - i1) for i in range(i1, len(self.blocks))]
        return {v: values[i] for i, (vs, _) in enumerate(self.blocks) for v in vs}

    def to_formula(self):
        parts = []
        reps = []
        for vs, c in self.blocks:
            ordered = sorted(vs)
            if c is not None:
                reps.append(Rat(c))
                for v in ordered:
                    parts.append(Eq(Var(v), Rat(c)))
            else:
                rep = Var(ordered[0])
                reps.append(rep)
                for v in ordered[1:]:
                    parts.append(Eq(Var(v), rep))
        for r1, r2 in zip(reps, reps[1:]):
            if isinstance(r1, Rat) and isinstance(r2, Rat):
                continue
            parts.append(Atom("<", (r1, r2)))
        return conj_all(parts)


def enumerate_diagrams(variables, consts):
    """All complete arrangements of the variables relative to the constants."""
    diagrams = [OrderDiagram(tuple((frozenset(), c) for c in sorted(set(consts))))]
    for v in sorted(variables):
        diagrams = [e for d in diagrams for e in d.extensions(v)]
    return diagrams


def grid(consts):
    """Constants, midpoints between neighbours, and one point beyond each
    extreme; [0] when there are no constants."""
    consts = sorted(set(map(Fraction, consts)))
    if not consts:
        return [Fraction(0)]
    mids = [(a + b) / 2 for a, b in zip(consts, consts[1:])]
    return sorted(consts + mids + [consts[0] - 1, consts[-1] + 1])


def grid_holds(f, env, consts):
    """f at env, each quantifier ranging over the grid of the constants and
    the values bound so far."""
    if isinstance(f, (Exists, Forall)):
        points = grid(set(consts) | set(env.values()))
        found = (grid_holds(f.sub, {**env, f.var: w}, consts) for w in points)
        return any(found) if isinstance(f, Exists) else all(found)
    if isinstance(f, Not):
        return not grid_holds(f.sub, env, consts)
    if isinstance(f, And):
        return grid_holds(f.left, env, consts) and grid_holds(f.right, env, consts)
    if isinstance(f, Or):
        return grid_holds(f.left, env, consts) or grid_holds(f.right, env, consts)
    if isinstance(f, Imp):
        return not grid_holds(f.left, env, consts) or grid_holds(f.right, env, consts)
    if isinstance(f, (Top, Bot)):
        return isinstance(f, Top)
    value = lambda t: t.value if isinstance(t, Rat) else env[t.name]
    if isinstance(f, Eq):
        return value(f.left) == value(f.right)
    left, right = f.args
    return value(left) < value(right)


def _lift(f):
    """f with each constant c read as the variable `#c`."""
    term = lambda a: Var(f"#{a.value}") if isinstance(a, Rat) else a
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(map(term, f.args)))
    if isinstance(f, Eq):
        return Eq(term(f.left), term(f.right))
    if isinstance(f, Not):
        return Not(_lift(f.sub))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, _lift(f.sub))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(_lift(f.left), _lift(f.right))
    return f


def _positions(d):
    """Each variable of d, and each constant's lifted name, at its block's
    index: a point in the order that d describes, once f is lifted."""
    env = {f"#{c}": i for i, (_, c) in enumerate(d.blocks) if c is not None}
    env.update((v, i) for i, (vs, _) in enumerate(d.blocks) for v in vs)
    return env


def order_diagrams(f, variables, extra_consts=()):
    """The diagrams over `variables` and the constants of f and
    `extra_consts` at whose block positions the grid evaluator finds the
    lifted f true, in enumeration order."""
    lifted = _lift(f)
    return [d for d in enumerate_diagrams(variables, constants_of(f) | set(extra_consts))
            if grid_holds(lifted, _positions(d), ())]


def qe(f):
    """A quantifier-free equivalent of f: the disjunction of its diagrams
    over its free variables."""
    return disj_all(d.to_formula() for d in order_diagrams(f, sorted(free_vars(f))))


def dimension(f, m):
    """The dimension of f's set in Q^m read two ways: the largest free-block
    count of its diagrams, and the lexicographically first largest
    coordinate tuple whose projection holds an open cell.  (None, None) for
    the empty set."""
    variables = [f"x{i}" for i in range(m)]
    diagrams = order_diagrams(f, variables)
    if not diagrams:
        return None, None
    by_blocks = max(d.free_block_count() for d in diagrams)
    for k in range(m, 0, -1):
        for coords in itertools.combinations(range(m), k):
            names = {variables[i] for i in coords}
            if any(d.project(names).free_block_count() == k for d in diagrams):
                return by_blocks, coords
    return by_blocks, ()


# ---------------------------------------------------------------------------
# Cell kernels, kept as they were before `opdim.dlo` rewrote them for speed


def _split(cell, r, stride):
    """The cells refining `cell` by a new constant of rank r, in the order: a
    new block after 0 of the b blocks of gap r, joining block 1, a new block
    after 1, ..., after b.  The gap's blocks above it, and every position
    above the gap, move up one gap."""
    lo = r * stride
    hi = lo + stride
    b = max((q - lo for q in cell if lo < q < hi), default=0)
    # positions from u on move; t blocks of gap r stay below the constant
    return [tuple(q if q < u else q + stride - t if q < hi else q + stride for q in cell)
            for u, t in ((lo + 1 + i // 2, (i + 1) // 2) for i in range(2 * b + 1))]


# ---------------------------------------------------------------------------
# Literal-level satisfiability (disjunctive normal form + order graph)
#
# Nodes are variables ("v", name) or rational constants ("c", value), and
# consecutive constants are joined by strict edges.  A conjunct is consistent
# iff no strict edge and no disequality joins two nodes of one strongly
# connected component of its <=-graph.

_CONJUNCT_BOUND = 200_000


def _term_node(t):
    if isinstance(t, Var):
        return ("v", t.name)
    if isinstance(t, Rat):
        return ("c", t.value)
    raise DloError(f"term {t!r} is not symbolic-order material")


def _conjuncts(f, neg=False):
    """Lazily yield DNF conjuncts as frozensets of literals."""
    if isinstance(f, Atom):
        a, b = (_term_node(x) for x in f.args)
        yield frozenset({("le", b, a)}) if neg else frozenset({("lt", a, b)})
        return
    if isinstance(f, Eq):
        a, b = _term_node(f.left), _term_node(f.right)
        yield frozenset({("ne", a, b)}) if neg else frozenset({("eq", a, b)})
        return
    if isinstance(f, Not):
        yield from _conjuncts(f.sub, not neg)
        return
    if isinstance(f, Imp):
        if neg:
            for l in _conjuncts(f.left, False):
                for r in _conjuncts(f.right, True):
                    yield l | r
        else:
            yield from _conjuncts(f.left, True)
            yield from _conjuncts(f.right, False)
        return
    if isinstance(f, (And, Or)):
        conjunctive = isinstance(f, And) != neg
        if conjunctive:
            for l in _conjuncts(f.left, neg):
                for r in _conjuncts(f.right, neg):
                    yield l | r
        else:
            yield from _conjuncts(f.left, neg)
            yield from _conjuncts(f.right, neg)
        return
    if isinstance(f, Top):
        if not neg:
            yield frozenset()
        return
    if isinstance(f, Bot):
        if neg:
            yield frozenset()
        return
    raise DloError(f"cannot normalize {f!r} (quantifier-free only)")


def _scc(succ):
    """Iterative Tarjan over nodes 0..n-1 with successor lists: each node's
    component id.  A component gets its id only after every component it
    reaches, so decreasing ids are a topological order."""
    n = len(succ)
    index = [None] * n
    low = [0] * n
    comp = [None] * n
    stack = []
    counter = ncomp = 0
    for root in range(n):
        if index[root] is not None:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if index[nxt] is None:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if comp[nxt] is None:  # visited without a component: on the stack
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if low[node] == index[node]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == node:
                            break
                    ncomp += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return comp


def _solve_conjunct(literals):
    """A satisfying rational assignment for a conjunct, or None."""
    nodes = sorted({node for _, a, b in literals for node in (a, b)})
    at = {node: i for i, node in enumerate(nodes)}
    succ = [set() for _ in nodes]
    strict, apart = [], []
    for kind, a, b in literals:
        i, j = at[a], at[b]
        if kind == "ne":
            apart.append((i, j))
            continue
        succ[i].add(j)
        if kind == "lt":
            strict.append((i, j))
        elif kind == "eq":
            succ[j].add(i)
    # constants sort first, by value
    nconsts = sum(1 for kind, _ in nodes if kind == "c")
    for i in range(nconsts - 1):
        succ[i].add(i + 1)
        strict.append((i, i + 1))
    comp = _scc([sorted(s) for s in succ])
    if any(comp[i] == comp[j] for i, j in strict + apart):
        return None
    members = [[] for _ in range(max(comp, default=-1) + 1)]
    for node, cid in zip(nodes, comp):
        members[cid].append(node)
    blocks = tuple(
        (frozenset(x for kind, x in block if kind == "v"),
         next((x for kind, x in block if kind == "c"), None))
        for block in reversed(members))
    return OrderDiagram(blocks).sample()


def sat_sample(f, bound=_CONJUNCT_BOUND):
    """A satisfying rational assignment for a quantifier-free formula, or None."""
    seen = 0
    for conj in _conjuncts(f):
        seen += 1
        if seen > bound:
            raise BudgetExceededError("disjunctive normal form too large")
        sample = _solve_conjunct(conj)
        if sample is not None:
            return sample
    return None
