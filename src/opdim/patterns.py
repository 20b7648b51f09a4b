"""Threshold (IRD) and single-hit (ICT) pattern checking and search, the
constructive IRD-to-ICT transform, and alternation analysis of boolean
value sequences."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .contexts import BudgetExceededError, Constraint
from .logic import And, Imp, Not, PartitionedFormula, rename_vars

SELECTOR_BOUND = 10 ** 6


class PatternError(Exception):
    pass


@dataclass(frozen=True)
class IRDPattern:
    """Rows of formulas with witness sequences; every threshold selector
    f : depth -> length must yield a consistent type."""

    context: object
    base: object
    formulas: tuple
    witnesses: tuple  # witnesses[i][j] = parameter tuple for row i, index j

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(self.formulas))
        object.__setattr__(self, "witnesses",
                           tuple(tuple(tuple(w) for w in row) for row in self.witnesses))
        if len(self.formulas) != len(self.witnesses):
            raise PatternError("one witness row per formula")
        lengths = {len(row) for row in self.witnesses}
        if len(lengths) > 1:
            raise PatternError("witness rows must share a length")
        if lengths == {0}:
            # with no witnesses every selector is vacuously consistent
            raise PatternError("a pattern with formulas needs witnesses")
        for psi, row in zip(self.formulas, self.witnesses):
            for w in row:
                if len(w) != len(psi.param_vars):
                    raise PatternError("witness sort mismatch")

    @property
    def depth(self):
        return len(self.formulas)

    @property
    def length(self):
        return len(self.witnesses[0]) if self.witnesses else 0

    def to_json(self):
        from .logic import print_formula
        return {
            "depth": self.depth,
            "length": self.length,
            "formulas": [
                f"{' '.join(p.obj_vars)} ; {' '.join(p.param_vars)} : "
                f"{print_formula(p.body)}"
                for p in self.formulas
            ],
            "witnesses": [[[str(v) for v in w] for w in row] for row in self.witnesses],
        }


@dataclass(frozen=True)
class ICTPattern(IRDPattern):
    pass


def pattern_from_json(doc, context, signature, base, value_parser,
                      cls=IRDPattern):
    """Rebuild a pattern from its JSON document; value_parser turns a witness
    string back into a parameter value."""
    from .logic import parse_partitioned
    formulas = tuple(parse_partitioned(text, signature) for text in doc["formulas"])
    witnesses = tuple(
        tuple(tuple(value_parser(v) for v in w) for w in row)
        for row in doc["witnesses"])
    return cls(context, base, formulas, witnesses)


def _selector_space(depth, length, bound):
    if depth and length ** depth > bound:
        raise BudgetExceededError(
            f"{length ** depth} selectors exceed the bound {bound}")
    return itertools.product(range(length), repeat=depth)


def _ird_constraints(pattern, selector):
    out = []
    for i, threshold in enumerate(selector):
        psi = pattern.formulas[i]
        for j, w in enumerate(pattern.witnesses[i]):
            out.append(Constraint(psi, w, 0 if j < threshold else 1))
    return out


def _ict_constraints(pattern, selector):
    out = []
    for i, hit in enumerate(selector):
        psi = pattern.formulas[i]
        for j, w in enumerate(pattern.witnesses[i]):
            out.append(Constraint(psi, w, 1 if j == hit else 0))
    return out


def _check(pattern, constraints_of, selector_bound):
    s = pattern.context.to_set(pattern.base)
    for f in _selector_space(pattern.depth, pattern.length, selector_bound):
        if pattern.context.sat(s, constraints_of(pattern, f)) is None:
            return False, f
    return True, None


def check_ird(pattern: IRDPattern, selector_bound=SELECTOR_BOUND):
    """Exhaustively check every threshold selector; returns (ok, failing
    selector or None)."""
    return _check(pattern, _ird_constraints, selector_bound)


def check_ict(pattern: ICTPattern, selector_bound=SELECTOR_BOUND):
    """Exhaustively check every single-hit selector; returns (ok, failing
    selector or None)."""
    return _check(pattern, _ict_constraints, selector_bound)


def ird_to_ict(pattern: IRDPattern) -> ICTPattern:
    """Pair up consecutive witnesses; row i becomes the disagreement formula
    ~[psi_i(x, y0) <-> psi_i(x, y1)] over witness pairs."""
    if pattern.length % 2 != 0:
        raise PatternError("the transform needs an even pattern length")
    formulas = []
    witnesses = []
    for psi, row in zip(pattern.formulas, pattern.witnesses):
        ren0 = {y: f"{y}__0" for y in psi.param_vars}
        ren1 = {y: f"{y}__1" for y in psi.param_vars}
        left = rename_vars(psi.body, ren0)
        right = rename_vars(psi.body, ren1)
        body = Not(And(Imp(left, right), Imp(right, left)))
        params = tuple(ren0[y] for y in psi.param_vars) + tuple(ren1[y] for y in psi.param_vars)
        formulas.append(PartitionedFormula(body, psi.obj_vars, params))
        witnesses.append(tuple(row[2 * j] + row[2 * j + 1] for j in range(len(row) // 2)))
    return ICTPattern(pattern.context, pattern.base, tuple(formulas), tuple(witnesses))


# ---------------------------------------------------------------------------
# Search


@dataclass(frozen=True)
class SearchResult:
    status: str          # "found" | "none_exhaustive" | "none_budget"
    pattern: object
    checks_used: int

    @property
    def found(self):
        return self.status == "found"


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0
        self.exhausted = False

    def spend(self):
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            self.exhausted = True
            return False
        return True


def _witness_space(context, psi, witness_grid):
    if witness_grid is None:
        return context.witness_params(psi)
    k = len(psi.param_vars)
    out = []
    for w in witness_grid:
        if not isinstance(w, tuple):
            w = (w,)
        if len(w) == k:
            out.append(w)
    if not out:
        raise PatternError(f"the witness grid has no entry of {k} parameters")
    return out


def _search(context, base, pool, depth, length, witness_grid, budget_limit,
            constraints_of, pattern_cls):
    s = context.to_set(base)
    budget = _Budget(budget_limit)

    def joint_ok(rows):
        pat = pattern_cls(context, base,
                          tuple(r[0] for r in rows), tuple(r[1] for r in rows))
        for f in _selector_space(len(rows), length, SELECTOR_BOUND):
            if not budget.spend():
                return None
            if context.sat(s, constraints_of(pat, f)) is None:
                return False
        return pat

    if depth == 0:
        # the empty pattern: its one selector is consistent iff the base is nonempty
        verdict = joint_ok([])
        if verdict is None:
            return SearchResult("none_budget", None, budget.used)
        if verdict:
            return SearchResult("found", verdict, budget.used)
        return SearchResult("none_exhaustive", None, budget.used)

    rows = []
    for psi in pool:
        space = _witness_space(context, psi, witness_grid)
        for seq in itertools.product(space, repeat=length):
            verdict = joint_ok([(psi, seq)])
            if verdict is None:
                return SearchResult("none_budget", None, budget.used)
            if verdict:
                rows.append((psi, seq))

    if depth == 1:
        if rows:
            return SearchResult("found",
                                pattern_cls(context, base, (rows[0][0],), (rows[0][1],)),
                                budget.used)
        return SearchResult("none_exhaustive", None, budget.used)

    # any two rows of a valid pattern form a valid pattern, so rows failing
    # the pairwise check can be pruned before the joint leaf check
    pair_cache = {}

    def pair_ok(i, k):
        if (i, k) not in pair_cache:
            verdict = joint_ok([rows[i], rows[k]])
            if verdict is None:
                return None
            pair_cache[(i, k)] = bool(verdict)
        return pair_cache[(i, k)]

    def extend(start, chosen):
        if len(chosen) == depth:
            return joint_ok([rows[i] for i in chosen])
        for k in range(start, len(rows)):
            compatible = True
            for j in chosen:
                p = pair_ok(j, k)
                if p is None:
                    return None
                if not p:
                    compatible = False
                    break
            if not compatible:
                continue
            deeper = extend(k + 1, chosen + [k])
            if deeper is None or deeper:
                return deeper
        return False

    outcome = extend(0, [])
    if outcome is None:
        return SearchResult("none_budget", None, budget.used)
    if outcome:
        return SearchResult("found", outcome, budget.used)
    return SearchResult("none_exhaustive", None, budget.used)


def search_ird(context, base, pool, depth, length=3, witness_grid=None,
               budget=None) -> SearchResult:
    """Exhaustive search for a threshold pattern over the witness grid.
    Distinguishes none-because-exhausted from none-because-budget."""
    return _search(context, base, pool, depth, length, witness_grid, budget,
                   _ird_constraints, IRDPattern)


def search_ict(context, base, pool, depth, length=3, witness_grid=None,
               budget=None) -> SearchResult:
    return _search(context, base, pool, depth, length, witness_grid, budget,
                   _ict_constraints, ICTPattern)


def dp_rank_lower(context, base, pool, cap, length=3, witness_grid=None,
                  budget=None):
    """Largest depth <= cap at which a single-hit pattern is found; a lower
    bound for the dp-rank only."""
    best = 0
    for depth in range(1, cap + 1):
        result = search_ict(context, base, pool, depth, length, witness_grid, budget)
        if not result.found:
            break
        best = depth
    return best


# ---------------------------------------------------------------------------
# Alternation


@dataclass(frozen=True)
class ConvexPartition:
    """Maximal constant runs of a boolean sequence: (start, end, value),
    end exclusive; consecutive and covering."""

    blocks: tuple

    @property
    def block_count(self):
        return len(self.blocks)


def alternation(values) -> ConvexPartition:
    values = [bool(v) for v in values]
    if not values:
        raise PatternError("alternation needs a nonempty sequence")
    blocks = []
    start = 0
    for i in range(1, len(values)):
        if values[i] != values[start]:
            blocks.append((start, i, values[start]))
            start = i
    blocks.append((start, len(values), values[start]))
    return ConvexPartition(tuple(blocks))


def ird_from_alternation(context, base, realization, phi: PartitionedFormula,
                         params_seq):
    """Build a threshold pattern from the truth-value runs of phi along the
    given parameter sequence: one row per run boundary, the row formula
    sign-adjusted so it holds on the later run, witnesses taken from the
    two adjacent run interiors.  Returns None when fewer than two runs."""
    params_seq = [tuple(p) for p in params_seq]
    values = [context.holds(phi, tuple(realization), p) for p in params_seq]
    part = alternation(values)
    m = part.block_count
    if m < 2:
        return None
    # row i straddles the cut between blocks i and i+1; an interior block
    # feeds two rows, so each side gets a disjoint half of it
    def side_budget(j, side):
        start, end, _ = part.blocks[j]
        size = end - start
        interior = 0 < j < m - 1
        return size // 2 if interior else size

    width = min(min(side_budget(i, "right"), side_budget(i + 1, "left"))
                for i in range(m - 1))
    if width == 0:
        return None
    rows_f = []
    rows_w = []
    for i in range(m - 1):
        lo_s, lo_e, _ = part.blocks[i]
        hi_s, hi_e, hi_val = part.blocks[i + 1]
        body = phi.body if hi_val else Not(phi.body)
        rows_f.append(PartitionedFormula(body, phi.obj_vars, phi.param_vars))
        row = params_seq[lo_e - width:lo_e] + params_seq[hi_s:hi_s + width]
        rows_w.append(tuple(row))
    pattern = IRDPattern(context, base, tuple(rows_f), tuple(rows_w))
    ok, failing = check_ird(pattern)
    if not ok:
        raise PatternError(f"alternation construction failed at selector {failing}")
    return pattern
