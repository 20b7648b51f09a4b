from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opdim import (
    And, BudgetExceededError, DLO_SIGNATURE, DloContext, FiniteContext, ICTPattern,
    IRDPattern, Imp, Not, PatternError, RankQuery, alternation, check_ict,
    check_ird, dp_rank_lower, ird_from_alternation, ird_to_ict,
    parse_partitioned, search_ict, search_ird, shelah_rank2,
)
from opdim.logic import parity_combine
from opdim.patterns import pattern_from_json

from conftest import chain, equality_structure

Q = Fraction

X_LT_W = parse_partitioned("x0 ; w : x0 < w")
X0_LT_W = parse_partitioned("x0 x1 ; w : x0 < w")
X1_LT_W = parse_partitioned("x0 x1 ; w : x1 < w")
INTERVAL = parse_partitioned("x0 ; w0 w1 : w0 < x0 & x0 < w1")


def dlo1():
    ctx = DloContext(1)
    return ctx, ctx.top()


def dlo2():
    ctx = DloContext(2)
    return ctx, ctx.top()


def row(*values):
    return tuple((Q(v),) for v in values)


# ---------------------------------------------------------------------------
# Checkers


def test_check_ird_increasing_cuts():
    ctx, top = dlo1()
    p = IRDPattern(ctx, top, (X_LT_W,), (row(0, 1, 2),))
    assert check_ird(p) == (True, None)


def test_check_ird_decreasing_cuts_fails():
    ctx, top = dlo1()
    p = IRDPattern(ctx, top, (X_LT_W,), (row(2, 1, 0),))
    ok, failing = check_ird(p)
    assert not ok and failing is not None


def test_check_ird_depth_zero_vacuous():
    ctx, top = dlo1()
    assert check_ird(IRDPattern(ctx, top, (), ())) == (True, None)


def test_check_ict_disjoint_intervals():
    ctx, top = dlo1()
    wits = ((Q(0), Q(1)), (Q(2), Q(3)), (Q(4), Q(5)))
    p = ICTPattern(ctx, top, (INTERVAL,), (wits,))
    assert check_ict(p) == (True, None)


def test_check_ict_same_cut_twice_fails():
    ctx, top = dlo1()
    wits = row(0, 1)
    p = ICTPattern(ctx, top, (X_LT_W, X_LT_W), (wits, wits))
    ok, failing = check_ict(p)
    assert not ok and failing is not None


def test_check_ict_depth_zero_vacuous():
    ctx, top = dlo1()
    assert check_ict(ICTPattern(ctx, top, (), ())) == (True, None)


def test_checker_selector_space_bound():
    ctx, top = dlo1()
    p = IRDPattern(ctx, top, (X_LT_W,) * 4, (row(0, 1, 2),) * 4)
    with pytest.raises(BudgetExceededError):
        check_ird(p, selector_bound=50)


def test_pattern_rejects_mismatched_witness_sorts():
    ctx, top = dlo1()
    with pytest.raises(PatternError):
        IRDPattern(ctx, top, (INTERVAL,), (row(0, 1, 2),))


def test_pattern_with_formulas_needs_witnesses():
    # a length-0 pattern has no constraints, so every selector would pass
    ctx, top = dlo2()
    with pytest.raises(PatternError):
        ICTPattern(ctx, top, (X0_LT_W, X1_LT_W), ((), ()))
    with pytest.raises(PatternError):
        search_ict(ctx, top, [X0_LT_W, X1_LT_W], depth=2, length=0)


# ---------------------------------------------------------------------------
# IRD -> ICT transform


def test_ird_to_ict_shape_and_formula():
    ctx, top = dlo1()
    p = IRDPattern(ctx, top, (X_LT_W,), (row(0, 1, 2, 3),))
    q = ird_to_ict(p)
    assert isinstance(q, ICTPattern)
    assert q.depth == 1 and q.length == 2
    assert q.witnesses == (((Q(0), Q(1)), (Q(2), Q(3))),)
    body = q.formulas[0].body
    # the disagreement formula: not (left <-> right)
    assert isinstance(body, Not) and isinstance(body.sub, And)
    assert isinstance(body.sub.left, Imp) and isinstance(body.sub.right, Imp)


def test_ird_to_ict_rejects_odd_length():
    ctx, top = dlo1()
    p = IRDPattern(ctx, top, (X_LT_W,), (row(0, 1, 2),))
    with pytest.raises(PatternError):
        ird_to_ict(p)


def test_ird_to_ict_verified_example():
    ctx, top = dlo2()
    p = IRDPattern(ctx, top, (X0_LT_W, X1_LT_W),
                   (row(0, 1, 2, 3), row(0, 1, 2, 3)))
    assert check_ird(p)[0]
    assert check_ict(ird_to_ict(p)) == (True, None)


# ---------------------------------------------------------------------------
# Search


GRID1 = [(Q(k),) for k in range(3)]


def test_search_ird_one_variable_depth_two_exhausts():
    ctx, top = dlo1()
    result = search_ird(ctx, top, [X_LT_W], depth=2, length=2,
                        witness_grid=GRID1)
    assert result.status == "none_exhaustive"


def test_search_ird_plane_depth_two_found():
    ctx, top = dlo2()
    result = search_ird(ctx, top, [X0_LT_W, X1_LT_W], depth=2, length=2,
                        witness_grid=GRID1)
    assert result.status == "found"
    assert check_ird(result.pattern) == (True, None)


def test_search_ird_pure_equality_depth_one_exhausts():
    m = equality_structure(4)
    ctx = FiniteContext(m)
    eq = parse_partitioned("x ; y : x = y", m.signature)
    result = search_ird(ctx, ctx.top(1), [eq], depth=1, length=2)
    assert result.status == "none_exhaustive"


def test_search_reports_budget_exhaustion():
    ctx, top = dlo2()
    result = search_ird(ctx, top, [X0_LT_W, X1_LT_W], depth=2, length=2,
                        witness_grid=GRID1, budget=3)
    assert result.status == "none_budget" and result.checks_used > 3


def test_search_depth_monotone():
    ctx, top = dlo2()
    for depth in (2, 1):
        result = search_ird(ctx, top, [X0_LT_W, X1_LT_W], depth=depth,
                            length=2, witness_grid=GRID1)
        assert result.found


@pytest.mark.parametrize("search", [search_ird, search_ict])
def test_search_depth_zero_on_empty_base_finds_nothing(search):
    m = chain(4)
    ctx = FiniteContext(m)
    lt = parse_partitioned("x ; y : x < y")
    empty = ctx.restrict(ctx.top(1), parse_partitioned("x ; : x < x"), (), 1)
    result = search(ctx, empty, [lt], depth=0, length=2)
    assert result.status == "none_exhaustive" and result.checks_used == 1
    assert check_ict(ICTPattern(ctx, empty, (), ())) == (False, ())


@pytest.mark.parametrize("search", [search_ird, search_ict])
def test_search_depth_zero_on_nonempty_base_finds_the_empty_pattern(search):
    m = chain(4)
    ctx = FiniteContext(m)
    lt = parse_partitioned("x ; y : x < y")
    result = search(ctx, ctx.top(1), [lt], depth=0, length=2)
    assert result.status == "found" and result.checks_used == 1
    assert result.pattern.depth == 0
    assert search(ctx, ctx.top(1), [lt], depth=0, length=2, budget=0).status == "none_budget"


def test_search_depth_one_success_implies_splitting():
    m = chain(5)
    ctx = FiniteContext(m)
    lt = parse_partitioned("x ; y : x < y")
    result = search_ird(ctx, ctx.top(1), [lt], depth=1, length=2)
    assert result.found
    rank = shelah_rank2(RankQuery(ctx, ctx.top(1), (lt,), cap=4))
    assert rank.as_ordinal_proxy() >= (0, 1)


def test_search_rejects_a_grid_that_fits_no_formula():
    # a 1-tuple grid offers no witness to a 2-parameter formula
    ctx, top = dlo1()
    with pytest.raises(PatternError):
        search_ird(ctx, top, [INTERVAL], depth=1, length=2, witness_grid=GRID1)


def test_search_ict_interval_found():
    ctx, top = dlo1()
    grid = [(Q(2 * k), Q(2 * k + 1)) for k in range(3)]
    result = search_ict(ctx, top, [INTERVAL], depth=1, length=3,
                        witness_grid=grid)
    assert result.found and check_ict(result.pattern) == (True, None)


# ---------------------------------------------------------------------------
# dp-rank lower bounds


def test_dp_rank_lower_intervals_at_least_one():
    ctx, top = dlo1()
    grid = [(Q(2 * k), Q(2 * k + 1)) for k in range(3)]
    assert dp_rank_lower(ctx, top, [INTERVAL], cap=1, witness_grid=grid) == 1


def test_dp_rank_lower_plane_at_least_two():
    ctx, top = dlo2()
    pool = [parse_partitioned("x0 x1 ; w0 w1 : w0 < x0 & x0 < w1"),
            parse_partitioned("x0 x1 ; w0 w1 : w0 < x1 & x1 < w1")]
    grid = [(Q(2 * k), Q(2 * k + 1)) for k in range(2)]
    assert dp_rank_lower(ctx, top, pool, cap=2, length=2,
                         witness_grid=grid) >= 2


def test_dp_rank_lower_pure_equality_is_one():
    # a single equality row is a single-hit pattern, but no second row can
    # agree with it at every selector, so the bound stops at one
    m = equality_structure(4)
    ctx = FiniteContext(m)
    eq = parse_partitioned("x ; y : x = y", m.signature)
    assert dp_rank_lower(ctx, ctx.top(1), [eq], cap=2, length=2) == 1


# ---------------------------------------------------------------------------
# Alternation


def test_alternation_three_runs():
    assert alternation([0, 0, 1, 1, 1, 0, 0]).block_count == 3


def test_alternation_constant():
    assert alternation([1] * 6).block_count == 1


def test_alternation_maximal():
    assert alternation([0, 1, 0, 1]).block_count == 4


def test_alternation_blocks_cover_and_carry_values():
    part = alternation([0, 0, 1, 0])
    assert part.blocks == ((0, 2, False), (2, 3, True), (3, 4, False))


def test_alternation_rejects_empty():
    with pytest.raises(PatternError):
        alternation([])


@given(st.lists(st.booleans(), min_size=1, max_size=20),
       st.integers(0, 19), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_alternation_invariant_under_duplication(values, pos, copies):
    pos = pos % len(values)
    duplicated = values[:pos + 1] + [values[pos]] * copies + values[pos + 1:]
    assert alternation(duplicated).block_count == alternation(values).block_count


# ---------------------------------------------------------------------------
# Pattern from alternation runs


BETWEEN = parse_partitioned("x0 x1 ; w : ~((x0 < w -> x1 < w) & (x1 < w -> x0 < w))")


def test_ird_from_alternation_staircase():
    # the disagreement formula holds exactly between the two coordinates, so
    # a sequence dipping below and rising above the realization alternates
    ctx, top = dlo2()
    seq = [(Q(-1),), (Q(-2),), (Q(5),), (Q(6),), (Q(15),), (Q(16),)]
    p = ird_from_alternation(ctx, top, (Q(0), Q(10)), BETWEEN, seq)
    assert p is not None and p.depth == 2 and p.length == 2
    assert check_ird(p) == (True, None)


def test_ird_from_alternation_rejects_impossible_staircase():
    # a single cut formula cannot carry two independent rows; the runs exist
    # but the assembled pattern fails verification
    ctx, top = dlo1()
    seq = [(Q(1),), (Q(2),), (Q(-1),), (Q(-2),), (Q(3),), (Q(4),)]
    with pytest.raises(PatternError):
        ird_from_alternation(ctx, top, (Q(0),), X_LT_W, seq)


def test_ird_from_alternation_single_run_is_none():
    ctx, top = dlo1()
    seq = [(Q(k),) for k in (1, 2, 3)]
    assert ird_from_alternation(ctx, top, (Q(0),), X_LT_W, seq) is None


def test_ird_from_alternation_narrow_interior_is_none():
    ctx, top = dlo1()
    # the middle run has a single entry: no disjoint halves to hand out
    seq = [(Q(1),), (Q(-1),), (Q(2),)]
    assert ird_from_alternation(ctx, top, (Q(0),), X_LT_W, seq) is None


def test_parity_staircase_block_count():
    # flipping coordinates of a parity combination across the cut one at a
    # time flips the truth value each step: n flips give n+1 runs
    m = chain(6)
    ctx = FiniteContext(m)
    lt = parse_partitioned("x ; y : x < y")
    for n in (2, 3):
        psi = parity_combine(lt, n)
        a, below, above = 2, 0, 5
        seq = [tuple(above if i < k else below for i in range(n))
               for k in range(n + 1)]
        values = [ctx.holds(psi, (a,), p) for p in seq]
        assert alternation(values).block_count == n + 1


def test_ird_from_alternation_two_runs_depth_one():
    # two runs give a single verified row: the plain threshold pattern
    ctx, top = dlo1()
    seq = [(Q(-2),), (Q(-1),), (Q(1),), (Q(2),)]
    p = ird_from_alternation(ctx, top, (Q(0),), X_LT_W, seq)
    assert p is not None and p.depth == 1 and p.length == 4
    assert check_ird(p) == (True, None)


# ---------------------------------------------------------------------------
# Serialization


def test_pattern_json_round_trip_symbolic():
    ctx, top = dlo1()
    p = IRDPattern(ctx, top, (X_LT_W,), (row(0, Fraction(1, 2)),))
    doc = p.to_json()
    assert doc["depth"] == 1 and doc["length"] == 2
    assert doc["witnesses"] == [[["0"], ["1/2"]]]
    again = pattern_from_json(doc, ctx, DLO_SIGNATURE, top, Fraction)
    assert again.formulas == p.formulas and again.witnesses == p.witnesses


def test_pattern_json_round_trip_finite():
    m = chain(4)
    ctx = FiniteContext(m)
    lt = parse_partitioned("x ; y : x < y")
    p = IRDPattern(ctx, ctx.top(1), (lt,), (((1,), (3,)),))
    doc = p.to_json()
    again = pattern_from_json(doc, ctx, m.signature, ctx.top(1), int)
    assert again.witnesses == p.witnesses and check_ird(again)[0]
