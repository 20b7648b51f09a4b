"""Threshold (IRD) and single-hit (ICT) pattern checking and search, the
constructive IRD-to-ICT transform, and alternation analysis of boolean
value sequences."""
from __future__ import annotations

import itertools

from .contexts import BudgetExceededError, Constraint
from .logic import And, Imp, Not, PartitionedFormula, Record, _set, rename_vars
from .ranks import InconsistentTypeError

SELECTOR_BOUND = 10 ** 6


class PatternError(Exception):
    pass


class IRDPattern(Record):
    """Rows of formulas with witness sequences; every threshold selector
    f : depth -> length must yield a consistent type."""

    __slots__ = ("context", "base", "formulas",
                 "witnesses")   # witnesses[i][j] = parameter tuple for row i, index j

    def __init__(self, context, base, formulas, witnesses):
        _set(self, "context", context)
        _set(self, "base", base)
        _set(self, "formulas", tuple(formulas))
        _set(self, "witnesses", tuple(tuple(tuple(w) for w in row) for row in witnesses))
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


class ICTPattern(IRDPattern):
    __slots__ = ()


def _selector_bound(depth, length, bound):
    """BudgetExceededError when depth rows of length witnesses exceed `bound` selectors."""
    if depth and length ** depth > bound:
        raise BudgetExceededError(
            f"{length ** depth} selectors exceed the bound {bound}")


def _ird_row(psi, witnesses, threshold):
    return [Constraint(psi, w, 0 if j < threshold else 1) for j, w in enumerate(witnesses)]


def _ict_row(psi, witnesses, hit):
    return [Constraint(psi, w, 1 if j == hit else 0) for j, w in enumerate(witnesses)]


def _signed_rows(row_constraints, psi, witnesses, length):
    """One row's signed constraints for each selector value."""
    return tuple(row_constraints(psi, witnesses, v) for v in range(length))


def _walk(context, s, rows, length, allowed=None):
    """Check the selectors over the rows' signed lists in lexicographic
    order: a selector passes when s restricted by its rows' constraints, row
    by row, is nonempty.  The set after each row prefix is kept, so a
    selector recomputes only from the first row whose value changed.
    Returns (checks made, the first failing selector or None); with
    `allowed`, the check after the `allowed`-th is counted but not made."""
    depth = len(rows)
    sets, f = [s] * (depth + 1), [0] * depth
    row, checks = 0, 0  # row: the first row whose value changed
    while True:
        checks += 1
        if allowed is not None and checks > allowed:
            return checks, None
        t = sets[row]
        for i in range(row, depth):
            for c in rows[i][f[i]]:
                if context.is_empty(t):
                    return checks, tuple(f)
                t = context.restrict(t, c.phi, c.params, c.sign)
            sets[i + 1] = t
        if context.is_empty(t):
            return checks, tuple(f)
        # the next selector: the last row below length - 1 steps up, later rows restart
        row = depth - 1
        while row >= 0 and f[row] == length - 1:
            f[row] = 0
            row -= 1
        if row < 0:
            return checks, None
        f[row] += 1


def _sign_table(row_constraints, length):
    """table[v][j]: the sign `row_constraints` gives witness j at selector value v."""
    return [[c.sign for c in row_constraints(None, range(length), v)] for v in range(length)]


def _value_sets(top, masks, signs):
    """A row's set at each selector value, as a mask: `top` and, for each
    witness, its solution mask where its sign is 1 or its complement where 0."""
    out = []
    for row in signs:
        t = top
        for m, sign in zip(masks, row):
            t &= m if sign else ~m
        out.append(t)
    return out


def _mask_walk(top, rows, length, allowed=None):
    """`_walk` for a finite set held as the mask `top`, with rows[i][v] row
    i's value-set at selector value v (see `_value_sets`): a row prefix's set
    is an AND of ints.  The same selector order, checks and answer as `_walk`
    on the context's restricts, which stays the walk for the (Q,<) sets."""
    depth = len(rows)
    sets, f = [top] * (depth + 1), [0] * depth
    row, checks = 0, 0  # row: the first row whose value changed
    while True:
        checks += 1
        if allowed is not None and checks > allowed:
            return checks, None
        t = sets[row]
        for i in range(row, depth):
            t &= rows[i][f[i]]
            sets[i + 1] = t
        if not t:
            return checks, tuple(f)
        row = depth - 1
        while row >= 0 and f[row] == length - 1:
            f[row] = 0
            row -= 1
        if row < 0:
            return checks, None
        f[row] += 1


def _check(pattern, row_constraints, selector_bound):
    # the bound first: the rows' signed lists grow as depth * length^2
    _selector_bound(pattern.depth, pattern.length, selector_bound)
    context = pattern.context
    s = context.to_set(pattern.base)
    solution_masks = getattr(context, "solution_masks", None)  # finite contexts only
    if solution_masks is None:
        rows = [_signed_rows(row_constraints, psi, row, pattern.length)
                for psi, row in zip(pattern.formulas, pattern.witnesses)]
        failing = _walk(context, s, rows, pattern.length)[1]
    else:
        signs = _sign_table(row_constraints, pattern.length)
        rows = [_value_sets(s.mask, solution_masks(psi, row), signs)
                for psi, row in zip(pattern.formulas, pattern.witnesses)]
        failing = _mask_walk(s.mask, rows, pattern.length)[1]
    return failing is None, failing


def check_ird(pattern: IRDPattern, selector_bound=SELECTOR_BOUND):
    """Exhaustively check every threshold selector; returns (ok, failing
    selector or None)."""
    return _check(pattern, _ird_row, selector_bound)


def check_ict(pattern: ICTPattern, selector_bound=SELECTOR_BOUND):
    """Exhaustively check every single-hit selector; returns (ok, failing
    selector or None)."""
    return _check(pattern, _ict_row, selector_bound)


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


class SearchResult(Record):
    """A search's budget bounds its selector checks, one emptiness test
    each (see `_walk`).  "found": `pattern` is the first valid pattern in pool and
    grid order; "none_exhaustive": every candidate was checked and none is
    valid; "none_budget": the checks ran out first, and `checks_used` reads
    budget + 1.  `pattern` is None unless found."""

    __slots__ = ("status",   # "found" | "none_exhaustive" | "none_budget"
                 "pattern", "checks_used")

    @property
    def found(self):
        return self.status == "found"


class _BudgetSpent(Exception):
    """A search asked for one check more than its budget allows."""


def _witness_space(context, psi, witness_grid):
    if witness_grid is None:
        return context.witness_params(psi)
    k = len(psi.param_vars)
    grid = (w if isinstance(w, tuple) else (w,) for w in witness_grid)
    out = [w for w in grid if len(w) == k]
    if not out:
        raise PatternError(f"the witness grid has no entry of {k} parameters")
    return out


def _search(context, base, pool, depth, length, witness_grid, budget,
            row_constraints, pattern_cls):
    """The first pattern of `depth` rows and `length` witnesses in pool and
    grid order.  Each row is a pool formula with a witness sequence that is
    valid alone; rows are then combined in index order, pruned by pairwise
    checks, and a combination is valid when its joint check passes.  The
    search stops with "none_budget" at the check after the `budget`-th."""
    if depth < 0 or length < 0:
        raise PatternError("depth and length must be nonnegative")
    s = context.to_set(base)
    if budget is not None and budget < 0:
        raise PatternError("the budget must be nonnegative")
    used = 0
    # a finite context's rows are value-sets (see `_mask_walk`), a (Q,<) one's signed lists
    solution_masks = getattr(context, "solution_masks", None)
    if solution_masks is not None:
        signs = _sign_table(row_constraints, length)

    def joint_ok(lists):
        """Whether every selector over rows with these signed lists (or
        value-sets) is consistent; raises _BudgetSpent at the check past the
        budget."""
        nonlocal used
        _selector_bound(len(lists), length, SELECTOR_BOUND)
        allowed = None if budget is None else budget - used
        if solution_masks is None:
            checks, failing = _walk(context, s, lists, length, allowed)
        else:
            checks, failing = _mask_walk(s.mask, lists, length, allowed)
        used += checks
        if budget is not None and used > budget:
            raise _BudgetSpent
        return failing is None

    # rows[i] = (psi, witnesses); signed[i][v] = its constraints (or value-set)
    # at selector value v
    rows, signed = [], []
    # any two rows of a valid pattern form a valid pattern, so rows failing
    # the pairwise check can be pruned before the joint leaf check
    pair_cache = {}

    def pair_ok(i, k):
        if (i, k) not in pair_cache:
            pair_cache[(i, k)] = joint_ok([signed[i], signed[k]])
        return pair_cache[(i, k)]

    def extend(start, chosen):
        """The first valid extension of `chosen` to `depth` rows from `start`
        on, or None when there is none."""
        if len(chosen) == depth:
            # a depth-2 leaf is a pair that pair_ok has just passed
            return chosen if depth == 2 or joint_ok([signed[i] for i in chosen]) else None
        for k in range(start, len(rows)):
            if all(pair_ok(j, k) for j in chosen):
                deeper = extend(k + 1, chosen + [k])
                if deeper is not None:
                    return deeper
        return None

    def first_pattern():
        """The indices into `rows` of the first valid pattern, or None."""
        if depth == 0:
            # the empty pattern: its one selector is consistent iff the base is nonempty
            return [] if joint_ok([]) else None
        for psi in pool:
            space = _witness_space(context, psi, witness_grid)
            if length == 0:
                # with no witnesses every selector would be vacuously consistent
                raise PatternError("a pattern with formulas needs witnesses")
            seqs = itertools.product(space, repeat=length)
            if solution_masks is None:
                for seq in seqs:
                    lists = _signed_rows(row_constraints, psi, seq, length)
                    if joint_ok([lists]):
                        rows.append((psi, seq))
                        signed.append(lists)
                continue
            # the masks of each sequence, in the same product order
            masks = itertools.product(solution_masks(psi, space), repeat=length)
            for seq, seq_masks in zip(seqs, masks):
                values = _value_sets(s.mask, seq_masks, signs)
                if joint_ok([values]):
                    rows.append((psi, seq))
                    signed.append(values)
        if depth == 1:
            # every collected row is already a checked pattern of depth 1
            return [0] if rows else None
        return extend(0, [])

    try:
        chosen = first_pattern()
        status = "none_exhaustive" if chosen is None else "found"
    except _BudgetSpent:
        chosen, status = None, "none_budget"
    pattern = None if chosen is None else pattern_cls(
        context, base, tuple(rows[i][0] for i in chosen), tuple(rows[i][1] for i in chosen))
    return SearchResult(status, pattern, used)


def search_ird(context, base, pool, depth, length=3, witness_grid=None,
               budget=None) -> SearchResult:
    """Exhaustive search for a threshold pattern over the witness grid.
    Distinguishes none-because-exhausted from none-because-budget."""
    return _search(context, base, pool, depth, length, witness_grid, budget,
                   _ird_row, IRDPattern)


def search_ict(context, base, pool, depth, length=3, witness_grid=None,
               budget=None) -> SearchResult:
    return _search(context, base, pool, depth, length, witness_grid, budget,
                   _ict_row, ICTPattern)


def dp_rank_lower(context, base, pool, cap, length=3, witness_grid=None,
                  budget=None):
    """Largest depth <= cap at which a single-hit pattern is found; a lower
    bound for the dp-rank only."""
    if cap < 0:
        raise PatternError("the cap must be nonnegative")
    if context.is_empty(context.to_set(base)):
        # every selector fails on an empty base, which would read as dp-rank 0
        raise InconsistentTypeError("the base type has no realizations")
    depth = 0
    while depth < cap and search_ict(context, base, pool, depth + 1, length,
                                     witness_grid, budget).found:
        depth += 1
    return depth


# ---------------------------------------------------------------------------
# Alternation


class ConvexPartition(Record):
    """Maximal constant runs of a boolean sequence: (start, end, value),
    end exclusive; consecutive and covering."""

    __slots__ = ("blocks",)

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
    values = list(context.traces(phi, [tuple(realization)], params_seq))  # bit 0: the realization
    part = alternation(values)
    m = part.block_count
    if m < 2:
        return None
    # row i straddles the cut between blocks i and i+1; an interior block
    # feeds two rows, so each side gets a disjoint half of it
    def side_budget(j):
        start, end, _ = part.blocks[j]
        size = end - start
        interior = 0 < j < m - 1
        return size // 2 if interior else size

    width = min(side_budget(j) for j in range(m))
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
