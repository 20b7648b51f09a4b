"""Recursive rank calculators: Shelah 2-rank, the n-order rank family, the
branching constraint systems, and op-dimension with its localized variant.

All ranks are truncated at a caller-supplied cap; values at or above the cap
are reported as the sentinel ``at_least_cap`` (the finite proxy for an
infinite rank).
"""
from __future__ import annotations

import itertools

from .contexts import BudgetExceededError
from .logic import Record, _set


class InconsistentTypeError(Exception):
    """The base type has no realizations; ranks are undefined."""


class RankValue(Record):
    __slots__ = ("value", "capped")

    def __init__(self, value, capped=False):
        _set(self, "value", value)
        _set(self, "capped", capped)
        if self.value < 0:
            raise ValueError("rank values are nonnegative")

    @classmethod
    def exact(cls, v):
        return cls(v, False)

    @classmethod
    def at_least(cls, cap):
        return cls(cap, True)

    def as_ordinal_proxy(self):
        """Comparable key treating at_least_cap as top."""
        return (1, 0) if self.capped else (0, self.value)

    def __ge__(self, other):
        return self.as_ordinal_proxy() >= other.as_ordinal_proxy()

    def __le__(self, other):
        return self.as_ordinal_proxy() <= other.as_ordinal_proxy()

    def to_json(self):
        return {"at_least": self.value} if self.capped else {"exact": self.value}


class RankQuery(Record):
    __slots__ = ("context", "subset", "delta", "n", "cap")

    def __init__(self, context, subset, delta, n=1, cap=6):
        _set(self, "context", context)
        _set(self, "subset", subset)
        _set(self, "delta", tuple(delta))
        _set(self, "n", n)
        _set(self, "cap", cap)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")
        if not self.delta:
            raise ValueError("Delta must be nonempty")


def _nonempty_base(q: RankQuery):
    ctx = q.context
    s = ctx.to_set(q.subset)
    if ctx.is_empty(s):
        raise InconsistentTypeError("the base type has no realizations")
    return s


class _RankEngine:
    """Memoized computation of 'rank >= r' by the splitting recursion."""

    def __init__(self, context, delta, n):
        self.context = context
        self.delta = delta
        self.n = n
        self.memo = {}

    def at_least(self, s, r):
        if r == 0:
            return True
        ctx = self.context
        size = ctx.size(s)
        if size is not None and size < (1 << self.n) ** r:
            # sign cells at distinct branches are pairwise disjoint
            return False
        key = (ctx.cache_key(s), r)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        instances = [(phi, params) for phi in self.delta
                     for params in ctx.instance_candidates(phi, s)]
        result = False
        for choice in itertools.combinations(instances, self.n):
            cells = []
            for sigma in itertools.product((1, 0), repeat=self.n):
                cell = s
                for (phi, params), bit in zip(choice, sigma):
                    cell = ctx.restrict(cell, phi, params, bit)
                if ctx.is_empty(cell):
                    break
                cells.append(cell)
            else:
                if all(self.at_least(cell, r - 1) for cell in cells):
                    result = True
                    break
        self.memo[key] = result
        return result


def _capped_rank(engine, q: RankQuery) -> RankValue:
    """The rank of the query's base: the largest r with
    engine.at_least(base, r), reported as at_least cap once r reaches it."""
    s = _nonempty_base(q)
    r = 0
    while r < q.cap and engine.at_least(s, r + 1):
        r += 1
    if r >= q.cap:
        return RankValue.at_least(q.cap)
    return RankValue.exact(r)


def op_rank(q: RankQuery) -> RankValue:
    """rank >= a+1 iff n instances from Delta split the set into 2^n nonempty
    sign cells, each of rank >= a."""
    return _capped_rank(_RankEngine(q.context, q.delta, q.n), q)


def shelah_rank2(q: RankQuery) -> RankValue:
    """Shelah 2-rank: iterated two-way splitting by single instances."""
    return _capped_rank(_Shelah2Engine(q.context, q.delta), q)


class _Shelah2Engine:
    def __init__(self, context, delta):
        self.context = context
        self.delta = delta
        self.memo = {}

    def at_least(self, s, r):
        if r == 0:
            return True
        ctx = self.context
        size = ctx.size(s)
        if size is not None and size < 2 ** r:
            return False
        key = (ctx.cache_key(s), r)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        result = False
        for phi in self.delta:
            for params in ctx.instance_candidates(phi, s):
                pos = ctx.restrict(s, phi, params, 1)
                neg = ctx.restrict(s, phi, params, 0)
                if ctx.is_empty(pos) or ctx.is_empty(neg):
                    continue
                if self.at_least(pos, r - 1) and self.at_least(neg, r - 1):
                    result = True
                    break
            if result:
                break
        self.memo[key] = result
        return result


# ---------------------------------------------------------------------------
# Branching constraint systems


class GammaWitness(Record):
    """Solved branching system: parameters per tree node, witness per leaf."""

    __slots__ = ("params",      # node (sign-vector prefix) -> param tuples
                 "witnesses")   # leaf branch -> realization

    def __init__(self, params=None, witnesses=None):
        _set(self, "params", {} if params is None else params)
        _set(self, "witnesses", {} if witnesses is None else witnesses)

    def to_json(self):
        return {
            "params": {"/".join(map(_fmt_branch, k)): [list(map(str, p)) for p in v]
                       for k, v in self.params.items()},
            "witnesses": {"/".join(map(_fmt_branch, k)): list(map(str, v))
                          for k, v in self.witnesses.items()},
        }


def _fmt_branch(sigma):
    return "".join(str(b) for b in sigma)


def gamma_consistent(context, subset, phi, n, beta, node_bound=4096):
    """Satisfiability of the depth-beta branching system for phi, by explicit
    backtracking.  Parameters are shared along common branch prefixes; the
    leaf for every sign-vector sequence must be realized.

    Returns (True, GammaWitness) or (False, None).
    """
    if (1 << n) ** beta > node_bound:
        raise BudgetExceededError(f"branching system with {(1 << n) ** beta} leaves "
                                  f"exceeds the bound {node_bound}")
    s = context.to_set(subset)
    witness = GammaWitness()

    def solve(prefix, cur, level):
        if context.is_empty(cur):
            return False
        size = context.size(cur)
        if size is not None and size < (1 << n) ** (beta - level):
            # leaves of distinct branches land in pairwise disjoint cells
            return False
        if level == beta:
            witness.witnesses[prefix] = context.pick(cur)
            return True
        # a repeated instance leaves a mixed sign cell empty, and a reordered
        # choice succeeds exactly when this one does
        for choice in itertools.combinations(context.instance_candidates(phi, cur), n):
            for sigma in itertools.product((0, 1), repeat=n):
                child = cur
                for i in range(n):
                    child = context.restrict(child, phi, choice[i], sigma[i])
                if not solve(prefix + (sigma,), child, level + 1):
                    break
            else:
                witness.params[prefix] = tuple(choice)
                return True
        return False

    if solve((), s, 0):
        return True, witness
    return False, None


# ---------------------------------------------------------------------------
# op-dimension


def op_dimension(context, subset, delta_pool, cap=6, max_n=8):
    """Largest n >= 1 whose n-rank hits the cap for some Delta in the pool;
    0 when no rank does (the stable case)."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    n = 0
    while n < max_n and any(
            op_rank(RankQuery(context, subset, tuple(delta), n=n + 1, cap=cap)).capped
            for delta in delta_pool):
        n += 1
    return n


def localized_opd(context, subset, delta, cap=6, max_n=8):
    """op-dimension relative to a single formula set."""
    return op_dimension(context, subset, [tuple(delta)], cap=cap, max_n=max_n)
