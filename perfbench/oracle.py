"""Independent answers for the benchmark's correctness checks.

Nothing here calls the opdim engines.  Finite ranks are recomputed on plain
bitmasks from Python predicates, truths over (Q, <) come from hand-written
tables and from a small evaluator of opdim's formula trees, and multi-order
facts are recomputed from the orders themselves.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# Splitting ranks on finite sets, as bitmasks


class MaskRanks:
    """The n-variable splitting rank over a fixed family of instance masks:
    rank >= r + 1 iff n instances cut the set into 2^n nonempty sign cells
    of rank >= r each.  For n = 1 this is the Shelah 2-rank."""

    def __init__(self, masks, n):
        self.splitters = list(itertools.combinations(sorted(set(masks)), n))
        self.n = n
        self.memo = {}

    def _cells(self, s, split):
        cells = [s]
        for m in split:
            cells = [c & m for c in cells] + [c & ~m for c in cells]
        return cells

    def at_least(self, s, r):
        if r == 0:
            return s != 0
        if s.bit_count() < (1 << self.n) ** r:
            return False
        key = (s, r)
        hit = self.memo.get(key)
        if hit is None:
            hit = any(all(c and self.at_least(c, r - 1) for c in self._cells(s, split))
                      for split in self.splitters)
            self.memo[key] = hit
        return hit

    def rank(self, s, cap):
        """(value, capped) in the engines' cap-truncated convention."""
        r = 0
        while r < cap and self.at_least(s, r + 1):
            r += 1
        return (r, r >= cap)


def instance_masks(universe, predicate, n_params):
    """Bitmask of {x : predicate(x, params)} for every parameter tuple;
    bit i stands for universe[i]."""
    out = []
    for params in itertools.product(universe, repeat=n_params):
        mask = 0
        for i, x in enumerate(universe):
            if predicate(x, *params):
                mask |= 1 << i
        out.append(mask)
    return out


def chain_rank(size, predicate, n_params, cap):
    """Shelah 2-rank of the whole chain 0 < 1 < ... < size-1 under a
    predicate in the order; a lower bound for the same formula over Q."""
    universe = range(size)
    return MaskRanks(instance_masks(universe, predicate, n_params), 1).rank(
        (1 << size) - 1, cap)


# ---------------------------------------------------------------------------
# Quantifier-free truth over Q, evaluated on opdim formula trees


def _term(t, env):
    kind = type(t).__name__
    if kind == "Var":
        return env[t.name]
    if kind == "Rat":
        return t.value
    raise ValueError(f"not an order term: {t!r}")


def q_holds(f, env):
    """Truth of a quantifier-free order formula at rational values."""
    kind = type(f).__name__
    if kind == "Atom":
        return _term(f.args[0], env) < _term(f.args[1], env)
    if kind == "Eq":
        return _term(f.left, env) == _term(f.right, env)
    if kind == "Not":
        return not q_holds(f.sub, env)
    if kind == "And":
        return q_holds(f.left, env) and q_holds(f.right, env)
    if kind == "Or":
        return q_holds(f.left, env) or q_holds(f.right, env)
    if kind == "Imp":
        return not q_holds(f.left, env) or q_holds(f.right, env)
    if kind in ("Top", "Bot"):
        return kind == "Top"
    raise ValueError(f"not quantifier-free: {kind}")


def q_constants(f):
    """The rational constants a formula tree mentions."""
    kind = type(f).__name__
    if kind == "Rat":
        return {f.value}
    out = set()
    for a in ("sub", "left", "right", "args"):
        part = getattr(f, a, None)
        for p in part if isinstance(part, tuple) else (part,) if part is not None else ():
            out |= q_constants(p)
    return out


def has_quantifier(f):
    kind = type(f).__name__
    if kind in ("Forall", "Exists"):
        return True
    return any(has_quantifier(getattr(f, a)) for a in ("sub", "left", "right")
               if hasattr(f, a))


def q_grid(consts, per_gap):
    """The constants plus per_gap points in each gap around and between
    them: enough points that per_gap variables reach every order type."""
    consts = sorted(set(consts)) or [Fraction(0)]
    bounds = [consts[0] - 1] + consts + [consts[-1] + 1]
    points = list(consts)
    for lo, hi in zip(bounds, bounds[1:]):
        points += [lo + (hi - lo) * Fraction(j, per_gap + 1) for j in range(1, per_gap + 1)]
    return sorted(set(points))


def assignments(variables, consts):
    grid = q_grid(consts, len(variables))
    for values in itertools.product(grid, repeat=len(variables)):
        yield dict(zip(variables, values))


def order_types(variables, consts, holds):
    """Number of order types of the variables over the constants whose
    members satisfy `holds`; each is one order diagram of the set."""
    consts = sorted(set(consts))
    seen = set()
    for env in assignments(variables, consts):
        if holds(env):
            values = [env[v] for v in variables]
            seen.add(tuple((v > c) - (v < c) for v in values for c in consts + values))
    return len(seen)


def equivalent_on_grid(f, predicate, variables, consts):
    """Where a quantifier-free tree f and a Python predicate disagree, or None."""
    for env in assignments(variables, consts):
        if q_holds(f, env) != predicate(env):
            return env
    return None


# ---------------------------------------------------------------------------
# Hand-written truths over (Q, <).  Constants are written c0 < c1 and are
# instantiated by the workloads with seeded rationals in that order.

# Dimension of the set defined in Q^m; None is the empty set.
DIMENSIONS = {
    ("x0 < c1", 1): 1,
    ("c0 < x0 & x0 < c1", 1): 1,
    ("x0 = c0", 1): 0,
    ("x0 < c0 | c1 < x0", 1): 1,
    ("c0 < x0", 1): 1,
    ("x0 = c0 | x0 = c1", 1): 0,
    ("x0 < c0 & c1 < x0", 1): None,
    ("x0 < x1", 2): 2,
    ("x0 = x1", 2): 1,
    ("x0 < x1 & x1 < c1", 2): 2,
    ("x0 = c0 & c0 < x1", 2): 1,
    ("x0 = x1 | x0 < c0", 2): 2,
    ("c0 < x0 & x0 < c1 & c0 < x1 & x1 < c1", 2): 2,
    ("x0 = c0 & x1 = c1", 2): 0,
    ("x0 < x1 | x1 < x0", 2): 2,
    ("x1 < x0", 2): 2,
    ("x0 = x1 & x0 < c0", 2): 1,
    ("x0 < c0 & x1 < c0", 2): 2,
    ("x0 = c1 | x1 = c0", 2): 1,
    ("x0 < x1 & x1 < x2", 3): 3,
    ("x0 = x1 & x1 = x2", 3): 1,
    ("x0 < c1 & c0 < x1", 3): 3,
    ("x0 = x1 & x2 < c0", 3): 2,
    ("x0 = c0 & x1 = c1 & x2 = c1", 3): 0,
    ("x0 < x1 & x2 = c0", 3): 2,
    ("x0 = x1 | x1 = x2", 3): 2,
    ("x0 < x1 & x1 < x2 & x2 < c1", 3): 3,
    ("x2 < x0 & x2 < x1", 3): 3,
}


def product_dimension(d0, d1):
    return None if d0 is None or d1 is None else d0 + d1


# Splitting ranks of x0 = x0 over Q under one partitioned formula: n1 is the
# Shelah 2-rank (None: infinite, so every cap is reached), n2 the
# two-instance rank and opd the op-dimension at cap 4 (None: not settled by
# hand, so not checked).  Two overlapping intervals cut every interval cell
# into four again, so the interval rows have no hand value for n2 or opd.
# The three two-parameter rows are the ones the symbolic engine misjudges
# while it draws every parameter from one grid point per gap.
Q_RANKS = {
    "x0 ; y : x0 < y": {"n1": None, "n2": 0, "opd": 1},
    "x0 ; y : x0 = y": {"n1": 1, "n2": 0, "opd": 0},
    "x0 ; y : y < x0 & x0 < c0": {"n1": None, "n2": 0, "opd": 1},
    "x0 ; y : x0 < y | x0 = c0": {"n1": None, "n2": 0, "opd": 1},
    "x0 ; y : c0 < x0 & x0 < y": {"n1": None, "n2": 0, "opd": 1},
    "x0 ; y : x0 = y | x0 = c0": {"n1": 2, "n2": 1, "opd": 0},
    "x0 ; y z : y < x0 & x0 < z": {"n1": None, "n2": None, "opd": None},
    "x0 ; y z : x0 < y | z < x0": {"n1": None, "n2": None, "opd": None},
    "x0 ; y z : x0 = y | x0 = z": {"n1": 2, "n2": None, "opd": 0},
}

# The same formulas as predicates on rationals, for the finite-chain bound.
Q_PREDICATES = {
    "x0 ; y : x0 < y": (1, lambda x, y: x < y),
    "x0 ; y : x0 = y": (1, lambda x, y: x == y),
    "x0 ; y z : y < x0 & x0 < z": (2, lambda x, y, z: y < x < z),
    "x0 ; y z : x0 < y | z < x0": (2, lambda x, y, z: x < y or z < x),
    "x0 ; y z : x0 = y | x0 = z": (2, lambda x, y, z: x == y or x == z),
}


def expected_q_rank(template, cap):
    true = Q_RANKS[template]["n1"]
    return (cap, True) if true is None or true >= cap else (true, False)


# Quantifier elimination: a formula in the free variables x and z with one
# or two bound variables, and an equivalent Python predicate.
QE_TEMPLATES = {
    "exists y. x < y & y < z": lambda e, c: e["x"] < e["z"],
    "exists y. y < x & c0 < y & z = z": lambda e, c: c[0] < e["x"],
    "exists y. x < y & y < c0 & z < y": lambda e, c: e["x"] < c[0] and e["z"] < c[0],
    "forall y. (y < x -> y < c0) & z = z": lambda e, c: e["x"] <= c[0],
    "exists y. exists w. x < y & y < w & w < c1 & z = z": lambda e, c: e["x"] < c[1],
    "forall y. (c0 < y & y < c1 -> x < y | z < y)":
        lambda e, c: min(e["x"], e["z"]) <= c[0],
    "exists y. exists w. y < x & x < w & w < z & c0 < y":
        lambda e, c: c[0] < e["x"] < e["z"],
    "forall y. (x < y -> z < y)": lambda e, c: e["z"] <= e["x"],
}


# ---------------------------------------------------------------------------
# Multi-orders, as {"n", "universe", "orders"} documents


def multicut_count(doc):
    return (len(doc["universe"]) + 1) ** doc["n"]


def grid_map_ok(doc, point_map):
    """Is point_map (element -> coordinates) injective, order-preserving and
    order-reflecting for every order into the coordinatewise grid?"""
    if set(point_map) != set(doc["universe"]):
        return False
    if len({tuple(v) for v in point_map.values()}) != len(point_map):
        return False
    for i, order in enumerate(doc["orders"]):
        rank = {a: r for r, a in enumerate(order)}
        for a, b in itertools.permutations(doc["universe"], 2):
            if (rank[a] < rank[b]) != (point_map[a][i] < point_map[b][i]):
                return False
    return True


def extension_level_one(doc):
    """Every one-point position pattern over the empty set and over each
    single element is realized by another element."""
    if not doc["universe"]:
        return False
    ranks = [{a: r for r, a in enumerate(o)} for o in doc["orders"]]
    want = 1 << doc["n"]
    for s in doc["universe"]:
        seen = {tuple(rk[b] > rk[s] for rk in ranks) for b in doc["universe"] if b != s}
        if len(seen) < want:
            return False
    return True


def definable_by_first_order_cuts(doc):
    """Multi-cuts whose every side is an initial segment of order 0: those
    the cut formula x0 < y defines when the universe sits on Q at its order-0
    positions."""
    first = {a: r for r, a in enumerate(doc["orders"][0])}
    total = 1
    for order in doc["orders"]:
        valid = sum(1 for c in range(len(order) + 1)
                    if sorted(first[a] for a in order[:c]) == list(range(c)))
        total *= valid
    return total


def restriction_matches(order, sub_order):
    """Is sub_order the restriction of order to its elements?"""
    members = set(sub_order)
    return [a for a in order if a in members] == list(sub_order)
