"""Satisfiability contexts for the rank and pattern machinery.

A context answers the queries the recursions need: restrict a definable set
by a signed formula instance, test emptiness, enumerate instance parameters,
and find witnesses for constraint lists.  ``FiniteContext`` wraps a finite
structure (sets are bitmasks over an indexed tuple space, and the pattern
checks intersect its cached `solution_masks`); the symbolic
dense-order context lives in ``opdim.dlo`` and exposes the same surface.
Both inherit ``sat`` from ``Context``.
"""
from __future__ import annotations

import itertools

from .logic import FiniteStructure, PartitionedFormula, Record, _set, evaluate


class BudgetExceededError(Exception):
    pass


class Constraint(Record):
    """A signed instance phi(x, params)^sign along a search branch."""

    __slots__ = ("phi", "params", "sign")

    def __init__(self, phi, params, sign):
        _set(self, "phi", phi)
        _set(self, "params", params)
        _set(self, "sign", sign)


class Context:
    """The query both backends build from their own restrict, is_empty and pick."""

    def sat(self, s, constraints):
        """The picked member of s satisfying every signed constraint, or None:
        the one-query form of the test that the pattern checks make with
        restrict and is_empty alone (`patterns._walk`), or on a finite set
        with masks (`patterns._mask_walk`); no engine calls it."""
        for c in constraints:
            if self.is_empty(s):
                return None
            s = self.restrict(s, c.phi, c.params, c.sign)
        return None if self.is_empty(s) else self.pick(s)


class FiniteContext(Context):
    """Finite-structure context; definable sets are bitmasks over universe^arity."""

    def __init__(self, structure: FiniteStructure):
        self.structure = structure
        self._spaces = {}
        self._sol_cache = {}

    def space(self, arity):
        if arity not in self._spaces:
            tuples = tuple(itertools.product(self.structure.universe, repeat=arity))
            index = {t: i for i, t in enumerate(tuples)}
            self._spaces[arity] = (tuples, index)
        return self._spaces[arity]

    def top(self, arity):
        tuples, _ = self.space(arity)
        return FinSet(arity, (1 << len(tuples)) - 1)

    def to_set(self, subset):
        if isinstance(subset, FinSet):
            return subset
        _, index = self.space(subset.arity)
        mask = 0
        for t in subset.tuples:
            mask |= 1 << index[t]
        return FinSet(subset.arity, mask)

    def _solution_mask(self, phi: PartitionedFormula, params):
        key = (phi, params)
        cached = self._sol_cache.get(key)
        if cached is not None:
            return cached
        tuples, _ = self.space(len(phi.obj_vars))
        inst = phi.instantiate(params)
        mask = 0
        for i, t in enumerate(tuples):
            if evaluate(self.structure, inst, dict(zip(phi.obj_vars, t))):
                mask |= 1 << i
        self._sol_cache[key] = mask
        return mask

    def restrict(self, s, phi, params, sign):
        m = self._solution_mask(phi, params)
        return FinSet(s.arity, s.mask & (m if sign else ~m))

    def is_empty(self, s):
        return s.mask == 0

    def size(self, s):
        return s.mask.bit_count()

    def cache_key(self, s):
        return (s.arity, s.mask)

    def instance_candidates(self, phi: PartitionedFormula, s=None):
        return list(itertools.product(self.structure.universe, repeat=len(phi.param_vars)))

    def solution_masks(self, phi: PartitionedFormula, params_seq):
        """phi's solution mask at each parameter tuple, from the cache: what
        the pattern checks intersect in place of restricting."""
        return [self._solution_mask(phi, params) for params in params_seq]

    def traces(self, phi: PartitionedFormula, points, candidates):
        """For each candidate b, in order and lazily, the int whose bit i is
        set when phi(points[i], b) holds.  Only the points are evaluated:
        b's solution mask would cost |universe|^arity evaluations however
        few they are."""
        envs = [dict(zip(phi.obj_vars, p, strict=True)) for p in points]
        for b in candidates:
            inst = phi.instantiate(tuple(b))
            trace = 0
            for i, env in enumerate(envs):
                if evaluate(self.structure, inst, env):
                    trace |= 1 << i
            yield trace

    def pick(self, s):
        """A canonical member of a nonempty set."""
        tuples, _ = self.space(s.arity)
        lowest = (s.mask & -s.mask).bit_length() - 1
        return tuples[lowest]

    def witness_params(self, phi: PartitionedFormula, extra=()):
        """Parameter tuples for witness searches; finite contexts use everything."""
        return self.instance_candidates(phi)


class FinSet(Record):
    __slots__ = ("arity", "mask")

    def __init__(self, arity, mask):
        _set(self, "arity", arity)
        _set(self, "mask", mask)
