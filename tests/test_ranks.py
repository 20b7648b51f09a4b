import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opdim import (
    And, Atom, Eq, Not, Or, Rat, Var,
    BudgetExceededError, DloContext, FiniteContext, InconsistentTypeError,
    PartitionedFormula, RankQuery, RankValue, gamma_consistent, localized_opd,
    op_dimension, op_rank, parse_partitioned, shelah_rank2,
)
from opdim.contexts import FinSet
from opdim.ranks import _RankEngine, _capped_rank
from opdim.logic import DefinableSubset

import dlo_reference as ref
from conftest import R_SIG, chain, equality_structure, grid_2x2, \
    r_structure_from_bits

LT = parse_partitioned("x ; y : x < y")
R_XY = parse_partitioned("x ; y : R(x, y)", R_SIG)
R_YX = parse_partitioned("x ; y : R(y, x)", R_SIG)


def full(ctx):
    return ctx.top(1)


# ---------------------------------------------------------------------------
# RankValue


def test_rank_value_ordering_treats_cap_as_top():
    assert RankValue.at_least(4) >= RankValue.exact(100)
    assert RankValue.exact(2) <= RankValue.exact(3)
    assert RankValue.at_least(4) >= RankValue.at_least(4)


def test_rank_value_json():
    assert RankValue.exact(2).to_json() == {"exact": 2}
    assert RankValue.at_least(6).to_json() == {"at_least": 6}


# ---------------------------------------------------------------------------
# Shelah 2-rank


def test_shelah_rank_four_chain():
    ctx = FiniteContext(chain(4))
    q = RankQuery(ctx, full(ctx), (LT,), cap=8)
    assert shelah_rank2(q).to_json() == {"exact": 2}


def test_shelah_rank_singleton_is_zero():
    m = chain(4)
    ctx = FiniteContext(m)
    s = DefinableSubset(m, 1, {(2,)})
    q = RankQuery(ctx, s, (LT,), cap=8)
    assert shelah_rank2(q).to_json() == {"exact": 0}


def test_shelah_rank_long_chain_hits_low_cap():
    ctx = FiniteContext(chain(100))
    q = RankQuery(ctx, full(ctx), (LT,), cap=1)
    assert shelah_rank2(q).to_json() == {"at_least": 1}


def test_empty_type_is_rejected():
    m = chain(3)
    ctx = FiniteContext(m)
    s = DefinableSubset(m, 1, frozenset())
    with pytest.raises(InconsistentTypeError):
        shelah_rank2(RankQuery(ctx, s, (LT,)))
    with pytest.raises(InconsistentTypeError):
        op_rank(RankQuery(ctx, s, (LT,)))


# ---------------------------------------------------------------------------
# opR_n


def test_op_rank_agrees_with_shelah_on_chain():
    ctx = FiniteContext(chain(4))
    q = RankQuery(ctx, full(ctx), (LT,), n=1, cap=8)
    assert op_rank(q).to_json() == shelah_rank2(q).to_json()


def test_op_rank_grid_two_orders():
    m = grid_2x2()
    ctx = FiniteContext(m)
    delta = (parse_partitioned("x ; y : x <0 y", m.signature),
             parse_partitioned("x ; y : x <1 y", m.signature))
    q = RankQuery(ctx, full(ctx), delta, n=2, cap=4)
    assert op_rank(q).to_json() == {"exact": 1}


def test_op_rank_bounded_by_log_of_size():
    rng = random.Random(23)
    for _ in range(40):
        m = r_structure_from_bits(4, rng.randrange(1 << 16))
        ctx = FiniteContext(m)
        q = RankQuery(ctx, full(ctx), (R_XY,), n=1, cap=8)
        value = op_rank(q)
        # sign cells at distinct branches are disjoint, so 2^rank <= |S|
        assert not value.capped and value.value <= math.floor(math.log2(4))


def test_op_rank_symbolic_order_unbounded_at_n1():
    ctx = DloContext(1)
    lt = parse_partitioned("x0 ; y : x0 < y")
    assert op_rank(RankQuery(ctx, ctx.top(), (lt,), n=1, cap=5)).capped


def test_op_rank_symbolic_order_zero_at_n2():
    ctx = DloContext(1)
    lt = parse_partitioned("x0 ; y : x0 < y")
    q = RankQuery(ctx, ctx.top(), (lt,), n=2, cap=3)
    assert op_rank(q).to_json() == {"exact": 0}


class _Cut:
    """A set of the wrapped context, and the instances that have cut it since
    the rank engine last asked for candidates on a set on its way."""

    def __init__(self, real, used=frozenset()):
        self.real, self.used = real, used


class NoRepeatContext:
    """Forwards the rank engine's calls to a context, and fails when one
    instance cuts a set twice within one choice of instances."""

    def __init__(self, inner):
        self.inner = inner
        self.restricts = 0

    def to_set(self, x):
        return x if isinstance(x, _Cut) else _Cut(self.inner.to_set(x))

    def size(self, s):
        return self.inner.size(s.real)

    def is_empty(self, s):
        return self.inner.is_empty(s.real)

    def cache_key(self, s):
        return self.inner.cache_key(s.real)

    def pick(self, s):
        return self.inner.pick(s.real)

    def instance_candidates(self, phi, s):
        s.used = frozenset()  # the engine chooses the instances that split s
        return self.inner.instance_candidates(phi, s.real)

    def restrict(self, s, phi, params, sign):
        key = (phi, tuple(params))
        assert key not in s.used, f"{key} cuts a set twice"
        self.restricts += 1
        return _Cut(self.inner.restrict(s.real, phi, params, sign), s.used | {key})


@pytest.mark.parametrize("make, texts, signature, n, cap", [
    (lambda: DloContext(2), ("x0 x1 ; y : x0 < y", "x0 x1 ; y : x1 < y"), None, 2, 3),
    (lambda: FiniteContext(grid_2x2()), ("x ; y : x <0 y", "x ; y : x <1 y"),
     grid_2x2().signature, 2, 4),
    (lambda: FiniteContext(chain(9)), ("x ; y : x < y",), None, 3, 2),
], ids=("Q^2 n=2", "grid n=2", "chain n=3"))
def test_op_rank_tries_no_choice_that_repeats_an_instance(make, texts, signature, n, cap):
    # a repeated instance leaves a mixed sign cell empty, so skipping such
    # choices changes neither the answer nor the memo; gamma_consistent's
    # branching system, one formula at a time, skips them too
    delta = tuple(parse_partitioned(t, signature) if signature else parse_partitioned(t)
                  for t in texts)
    plain = make()
    recording = NoRepeatContext(make())
    top = plain.top(len(delta[0].obj_vars))
    engines = [_RankEngine(ctx, delta, n) for ctx in (recording, plain)]
    values = [_capped_rank(e, RankQuery(e.context, top, delta, n=n, cap=cap)) for e in engines]
    assert values[0] == values[1] and engines[0].memo == engines[1].memo
    for phi in delta:
        answers = [gamma_consistent(ctx, top, phi, n, 1) for ctx in (recording, plain)]
        assert answers[0] == answers[1]
    assert recording.restricts > 0


@pytest.mark.parametrize("text", [
    "x0 ; y : exists z. x0 < z & z < y",
    "x0 ; y : exists z. x0 < z & z < y & 0 < z",
    "x0 ; y : forall z. (z < y -> z < x0 | z = x0)",
    "x0 ; y : ~(exists z. z < x0 & 1 < z) & x0 < y",
])
def test_quantified_delta_ranks_as_its_quantifier_free_form(text):
    # restrict decides a quantified instance on the cells' positions, so it
    # cuts out the same cells as the reference's eliminated formula, over
    # the same constants
    ctx = DloContext(1)
    phi = parse_partitioned(text)
    free = PartitionedFormula(ref.qe(phi.body), phi.obj_vars, phi.param_vars)
    for n, cap in ((1, 4), (2, 2)):
        ranks = [op_rank(RankQuery(ctx, ctx.top(), (f,), n=n, cap=cap)) for f in (phi, free)]
        assert ranks[0] == ranks[1], (n, ranks)
    ranks = [shelah_rank2(RankQuery(ctx, ctx.top(), (f,), cap=4)) for f in (phi, free)]
    assert ranks[0] == ranks[1] and ranks[0].capped


class ExactKeyDloContext(DloContext):
    """The symbolic context with its memo keyed by the exact set, and its
    candidates drawn over every constant the set carries: no two distinct
    sets share a key, whatever automorphism relates them, and no constant is
    dropped from a set's grid."""

    def cache_key(self, s):
        s = s.joined()
        return (s.consts, frozenset(s.cells))

    def instance_candidates(self, phi, s=None):
        return self.witness_params(phi, s.joined().consts if s is not None else ())


def _random_one_parameter_body(rng, consts, depth=2):
    if depth == 0 or rng.random() < 0.3:
        terms = [Var("x0"), Var("y")] + [Rat(c) for c in consts]
        a, b = rng.choice(terms), rng.choice(terms)
        return Atom("<", (a, b)) if rng.random() < 0.7 else Eq(a, b)
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_random_one_parameter_body(rng, consts, depth - 1))
    return (And if kind == 1 else Or)(_random_one_parameter_body(rng, consts, depth - 1),
                                      _random_one_parameter_body(rng, consts, depth - 1))


def _symbolic_ranks(ctx, body):
    phi = PartitionedFormula(body, ("x0",), ("y",))
    return ([op_rank(RankQuery(ctx, ctx.top(), (phi,), n=n, cap=4)) for n in (1, 2)]
            + [shelah_rank2(RankQuery(ctx, ctx.top(), (phi,), cap=4))])


def test_shape_memo_agrees_with_the_exact_memo():
    # the memo keys a set up to the automorphisms fixing Delta's constants;
    # keyed by the exact set instead, every rank must come out the same, and
    # moving every constant by x -> 2x+3 must not change a rank either
    rng = random.Random(20)
    for case in range(200):
        consts = sorted({Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                         for _ in range(rng.randint(0, 2))})
        seed = rng.random()
        body = _random_one_parameter_body(random.Random(seed), consts)
        moved = _random_one_parameter_body(random.Random(seed), [2 * c + 3 for c in consts])
        want = _symbolic_ranks(ExactKeyDloContext(1), body)
        assert _symbolic_ranks(DloContext(1), body) == want, (case, body)
        assert _symbolic_ranks(DloContext(1), moved) == want, (case, moved)


def test_shape_memo_fixes_delta_constants():
    # instances split (0, oo) without end but hold nowhere below 0; a memo
    # key blind to the constant 0 gives sets on either side of it one key,
    # and answered exact 1 here
    ctx = DloContext(1)
    phi = parse_partitioned("x0 ; y : y < x0 & 0 < x0")
    assert op_rank(RankQuery(ctx, ctx.top(), (phi,), cap=4)).to_json() == {"at_least": 4}


@pytest.mark.parametrize("cap, most", [(4, 12), (6, 20), (8, 28), (10, 36)])
def test_shape_memo_stays_linear_in_the_cap(cap, most):
    # a set is keyed over only the constants it depends on: the two ends of
    # its interval, not every parameter on its path
    ctx = DloContext(1)
    lt = parse_partitioned("x0 ; y : x0 < y")
    engine = _RankEngine(ctx, (lt,), 1)
    assert _capped_rank(engine, RankQuery(ctx, ctx.top(), (lt,), cap=cap)).capped
    assert len(engine.memo) <= most


# ---------------------------------------------------------------------------
# Monotonicity, union rule, permutation invariance (spot checks; the
# acceptance suite runs the full random batteries)


def _proxy(v):
    return v.as_ordinal_proxy()


def test_rank_monotone_in_subset_delta_and_n():
    # a larger set, more splitting formulas, and fewer simultaneous
    # instances can only raise the rank
    rng = random.Random(31)
    for _ in range(30):
        m = r_structure_from_bits(4, rng.randrange(1 << 16))
        ctx = FiniteContext(m)
        big = rng.randrange(1, 16)
        small = big & rng.randrange(1, 16)
        if small == 0:
            continue
        n_small = rng.choice((1, 2))
        r_small = op_rank(RankQuery(ctx, FinSet(1, small), (R_XY,),
                                    n=n_small, cap=6))
        r_big = op_rank(RankQuery(ctx, FinSet(1, big), (R_XY, R_YX),
                                  n=1, cap=6))
        assert _proxy(r_big) >= _proxy(r_small)


def test_rank_union_rule_bounds():
    # the union dominates both parts and is capped by their sum plus one
    # (splitting trees of the union 2-color into part-trees)
    rng = random.Random(37)
    for _ in range(30):
        m = r_structure_from_bits(4, rng.randrange(1 << 16))
        ctx = FiniteContext(m)
        a, b = rng.randrange(1, 16), rng.randrange(1, 16)
        r0, r1, ru = [op_rank(RankQuery(ctx, FinSet(1, mask), (R_XY,), cap=6))
                      for mask in (a, b, a | b)]
        assert _proxy(ru) >= max(_proxy(r0), _proxy(r1))
        if not (r0.capped or r1.capped):
            assert ru.value <= r0.value + r1.value + 1


def test_rank_invariant_under_relabeling():
    rng = random.Random(41)
    for _ in range(20):
        bits = rng.randrange(1 << 16)
        m = r_structure_from_bits(4, bits)
        perm = list(range(4))
        rng.shuffle(perm)
        relabeled = type(m)(m.signature, tuple(range(4)), {
            "R": frozenset((perm[a], perm[b]) for a, b in m.relations["R"])})
        smask = rng.randrange(1, 16)
        s1 = FinSet(1, smask)
        s2 = FinSet(1, sum(1 << perm[i] for i in range(4) if smask >> i & 1))
        r1 = op_rank(RankQuery(FiniteContext(m), s1, (R_XY,), cap=6))
        r2 = op_rank(RankQuery(FiniteContext(relabeled), s2, (R_XY,), cap=6))
        assert r1.to_json() == r2.to_json()


# ---------------------------------------------------------------------------
# Branching constraint systems


def test_gamma_depth_zero_tracks_nonemptiness():
    m = chain(3)
    ctx = FiniteContext(m)
    ok, witness = gamma_consistent(ctx, full(ctx), LT, 1, 0)
    assert ok and witness.witnesses[()] in {(0,), (1,), (2,)}
    empty = DefinableSubset(m, 1, frozenset())
    assert gamma_consistent(ctx, empty, LT, 1, 0) == (False, None)


def test_gamma_four_chain_depths():
    ctx = FiniteContext(chain(4))
    assert gamma_consistent(ctx, full(ctx), LT, 1, 2)[0]
    assert not gamma_consistent(ctx, full(ctx), LT, 1, 3)[0]


def test_gamma_witness_shares_prefix_parameters():
    ctx = FiniteContext(chain(4))
    ok, witness = gamma_consistent(ctx, full(ctx), LT, 1, 2)
    assert ok
    # one parameter tuple at the root, one per depth-1 branch
    assert set(witness.params) == {(), ((0,),), ((1,),)}
    assert len(witness.witnesses) == 4


def test_gamma_budget_overflow():
    ctx = FiniteContext(chain(3))
    with pytest.raises(BudgetExceededError):
        gamma_consistent(ctx, full(ctx), LT, 2, 4, node_bound=64)


@given(st.integers(0, (1 << 9) - 1), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_gamma_matches_rank_threshold(bits, smask):
    m = r_structure_from_bits(3, bits)
    ctx = FiniteContext(m)
    s = FinSet(1, smask)
    for beta in (1, 2):
        ok, _ = gamma_consistent(ctx, s, R_XY, 1, beta)
        rank = op_rank(RankQuery(ctx, s, (R_XY,), n=1, cap=beta))
        assert ok == rank.capped


# ---------------------------------------------------------------------------
# op-dimension


def test_op_dimension_pure_equality_is_zero():
    m = equality_structure(5)
    ctx = FiniteContext(m)
    eq = parse_partitioned("x ; y : x = y", m.signature)
    assert op_dimension(ctx, full(ctx), [(eq,)], cap=6) == 0


def test_op_dimension_symbolic_order_is_one():
    ctx = DloContext(1)
    lt = parse_partitioned("x0 ; y : x0 < y")
    assert op_dimension(ctx, ctx.top(), [(lt,)], cap=6, max_n=3) == 1


def test_op_dimension_small_chain_large_cap_is_zero():
    ctx = FiniteContext(chain(5))
    assert op_dimension(ctx, full(ctx), [(LT,)], cap=10) == 0


def test_localized_opd_bounded_by_pool_dimension():
    ctx = FiniteContext(chain(6))
    local = localized_opd(ctx, full(ctx), (LT,), cap=2)
    pooled = op_dimension(ctx, full(ctx), [(LT,), (LT, LT)], cap=2)
    assert local <= pooled
