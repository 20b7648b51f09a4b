import ast
import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from fractions import Fraction

import pytest

from opdim import (
    And, Atom, BudgetExceededError, DimensionReport, DloContext, DloError,
    Eq, Exists, Forall, Imp, Not, Or, Rat, Var, FALSE, TRUE,
    dimension, evaluate_q, ird_witness_from_dim, order_diagrams,
    parse_formula, parse_partitioned, product, qe_dlo, sat_sample,
    satisfiable_q, standard_grid,
)
import opdim
from opdim import dlo
from opdim.dlo import DloSet, Factor, constants_of
from opdim.ranks import (
    RankQuery, RankValue, _RankEngine, _capped_rank, gamma_consistent, localized_opd, op_rank,
    shelah_rank2,
)
from opdim.logic import (
    Const, Elem, PartitionedFormula, conj_all, evaluate, free_vars, rename_vars, signed,
)
from opdim.patterns import check_ird
from opdim.contexts import Constraint, FinSet, FiniteContext

import dlo_reference as ref
from conftest import chain, random_r_structure
from dlo_reference import grid_holds

Q = Fraction


def sample_envs(variables, consts, count=1000, seed=0):
    """Exact rational sample points: integers, halves, and the constants
    themselves so boundary cases are hit."""
    rng = random.Random(seed)
    pool = [Q(k) for k in range(-4, 5)] + [Q(k, 2) for k in range(-5, 6)] + \
        [Q(c) for c in consts]
    for _ in range(count):
        yield {v: rng.choice(pool) for v in variables}


def assert_equivalent(f, g, count=1000, seed=0):
    variables = sorted(free_vars(f) | free_vars(g))
    consts = constants_of(f) | constants_of(g)
    for env in sample_envs(variables, consts, count, seed):
        assert evaluate_q(f, env) == evaluate_q(g, env), env


def _cell(diagram, variables, stride):
    """The integer form (see Factor) of an order diagram over k variables;
    stride is k+1."""
    at, gap, j = {}, 0, 0
    for vs, c in diagram.blocks:
        gap, j = (gap, j + 1) if c is None else (gap + 1, 0)
        at.update(dict.fromkeys(vs, gap * stride + j))
    return tuple(at[v] for v in variables)


def _uncell(cell, consts, variables, stride):
    """The reference order diagram over `consts` of an integer cell."""
    places = sorted(set(cell).union(range(stride, stride * len(consts) + 1, stride)))
    return ref.OrderDiagram(tuple(
        (frozenset(v for v, q in zip(variables, cell) if q == p),
         None if p % stride else consts[p // stride - 1]) for p in places))


def random_qf_formula(rng, variables, consts, depth=3, rel="<", const=lambda c: Rat(Q(c))):
    if depth == 0 or rng.random() < 0.3:
        terms = [Var(v) for v in variables] + [const(c) for c in consts]
        a, b = rng.choice(terms), rng.choice(terms)
        return Atom(rel, (a, b)) if rng.random() < 0.7 else Eq(a, b)
    kind = rng.randrange(3)
    if kind == 0:
        return Not(random_qf_formula(rng, variables, consts, depth - 1, rel, const))
    cls = And if kind == 1 else Or
    return cls(random_qf_formula(rng, variables, consts, depth - 1, rel, const),
               random_qf_formula(rng, variables, consts, depth - 1, rel, const))


# ---------------------------------------------------------------------------
# The reference


REFERENCE_MAY_IMPORT = {"constants_of", "DloError"}


def test_reference_imports_nothing_it_checks():
    # the reference takes from opdim.dlo only what it needs to read formulas,
    # whether it imports from opdim.dlo or from the names opdim re-exports
    tree = ast.parse(Path(ref.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("opdim.dlo") for a in node.names), ast.dump(node)
        if not isinstance(node, ast.ImportFrom) or not (node.module or "").startswith("opdim"):
            continue
        for alias in node.names:
            if node.module == "opdim.dlo":
                assert alias.name in REFERENCE_MAY_IMPORT, alias.name
            elif node.module == "opdim":
                value = getattr(opdim, alias.name, None)
                from_dlo = value is dlo or getattr(value, "__module__", None) == dlo.__name__
                assert not from_dlo or alias.name in REFERENCE_MAY_IMPORT, alias.name
            else:
                assert not node.module.startswith("opdim.dlo"), node.module


# ---------------------------------------------------------------------------
# Ground evaluation and satisfiability


def test_evaluate_q_atom_and_constant():
    f = parse_formula("x < 3/2")
    assert evaluate_q(f, {"x": Q(1)})
    assert not evaluate_q(f, {"x": Q(3, 2)})


def test_evaluate_q_decides_quantified_formulas_as_the_reference():
    # evaluate_q is the engine's decision procedure at rationals: on the
    # constants, between them and beyond them, it answers as the grid
    # evaluator, which quantifies over every point of the reference grid
    f = parse_formula("exists y. x < y & y < 1")
    assert evaluate_q(f, {"x": Q(1, 2)}) and not evaluate_q(f, {"x": Q(1)})
    rng = random.Random(61)
    quantified = 0
    for case in range(240):
        variables = rng.sample(("x", "y", "z"), rng.randint(0, 2))
        consts = sorted({Q(rng.randint(-2, 2), rng.choice((1, 2)))
                         for _ in range(rng.randint(0 if variables else 1, 2))})
        f = random_quantified_formula(rng, variables, consts)
        quantified += quantifies(f)
        for env in sample_envs(sorted(free_vars(f)), consts, 12, seed=case):
            assert evaluate_q(f, env) == grid_holds(f, env, consts), (case, f, env)
    assert quantified > 120


@pytest.mark.parametrize("f, message", [
    (Atom("R", (Var("x"), Var("x"))), "relation R is not part of the order signature"),
    (Atom("<", (Var("x"), Var("x"), Var("x"))), "relation < is not part of the order signature"),
    (Eq(Var("x"), Const("c")), "has no rational value"),
    (Exists("y", Atom("<", (Var("y"), Elem("a")))), "has no rational value"),
], ids=("R", "ternary <", "Const", "Elem"))
def test_evaluate_q_names_what_the_order_does_not_interpret(f, message):
    with pytest.raises(DloError, match=message):
        evaluate_q(f, {"x": Q(0)})
    ctx = DloContext(1)
    with pytest.raises(DloError, match=message):
        ctx.to_set(rename_vars(f, {"x": "x0"}))


def test_evaluate_q_rejects_unbound():
    with pytest.raises(DloError):
        evaluate_q(parse_formula("x < y"), {"x": Q(0)})


def test_sat_sample_strict_cycle_unsat():
    assert sat_sample(parse_formula("x < y & y < x")) is None


def test_sat_sample_respects_constants_and_disequalities():
    f = parse_formula("0 < x & x < 1 & ~(x = 1/2) & x < y & y < 1")
    env = sat_sample(f)
    assert env is not None and evaluate_q(f, env)


def test_sat_sample_between_adjacent_constants():
    # nothing fits strictly between equal bounds
    assert sat_sample(parse_formula("0 < x & x < 0")) is None
    env = sat_sample(parse_formula("0 < x & x < 1"))
    assert Q(0) < env["x"] < Q(1)


def test_satisfiable_q_constant_comparisons():
    assert satisfiable_q(parse_formula("0 < 1"))
    assert not satisfiable_q(parse_formula("1 < 0"))


def test_sat_sample_agrees_with_diagram_enumeration():
    # the context's point against the reference, which enumerates every
    # arrangement and solves by DNF and order graphs
    rng = random.Random(53)
    for case in range(2000):
        variables = [f"v{i}" for i in range(rng.randint(1, 4))]
        consts = sorted({Q(rng.randint(-2, 2), rng.choice((1, 2)))
                         for _ in range(rng.randint(0, 3))})
        f = random_qf_formula(rng, variables, consts)
        env = sat_sample(f)
        assert (env is None) == (not ref.order_diagrams(f, sorted(free_vars(f)))), (case, f)
        assert (env is None) == (ref.sat_sample(f) is None), (case, f)
        if env is not None:
            # a variable f does not mention may take any value
            env = {v: env.get(v, Q(0)) for v in variables}
            assert evaluate_q(f, env), (case, f, env)


def test_sat_sample_takes_quantifiers():
    f = parse_formula("exists y. x < y & y < z")
    env = sat_sample(f)
    assert set(env) == {"x", "z"} and env["x"] < env["z"]
    assert sat_sample(parse_formula("forall y. x < y")) is None


HASH_SEED_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from dlo_reference import sat_sample as reference
from opdim import DloContext, parse_formula, sat_sample
f = parse_formula("x < 1 & y < 1 & z < 1 & ~(x = y) & ~(y = z) & ~(x = z) & a < b & c < d")
print(sorted(sat_sample(f).items()), sorted(reference(f).items()))
ctx = DloContext(2)
print(ctx.pick(ctx.to_set(parse_formula("0 < x0 & 0 < x1 & ~(x0 = x1)"))))
"""


def test_sat_sample_does_not_depend_on_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE,
                               str(Path(__file__).resolve().parent)], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs


# ---------------------------------------------------------------------------
# Quantifier elimination


def test_qe_exists_between():
    f = parse_formula("exists y. x < y & y < z")
    assert_equivalent(qe_dlo(f), parse_formula("x < z"))


def test_qe_quantifier_free_preserved():
    f = parse_formula("x < y | x = y")
    assert_equivalent(qe_dlo(f), f)


def test_qe_density_sentence_is_true():
    assert qe_dlo(parse_formula("forall x. exists y. x < y")) == TRUE
    assert qe_dlo(parse_formula("forall x. exists y. x < y & y < x")) == FALSE


def test_qe_with_constants():
    f = parse_formula("exists y. x < y & y < 1")
    assert_equivalent(qe_dlo(f), parse_formula("x < 1"))


def test_qe_forall_bounded():
    f = parse_formula("forall y. y < x -> y < z")
    # every rational below x is below z iff x <= z
    assert_equivalent(qe_dlo(f), parse_formula("x < z | x = z"))


def random_formula(rng, variables, consts, depth=3, quantifiers=3):
    """A random formula whose quantifiers nest up to `quantifiers` deep and
    bind x, y or z, so a bound name may shadow a free one."""
    if quantifiers and rng.random() < 0.3:
        v = rng.choice("xyz")
        body = random_formula(rng, sorted(set(variables) | {v}), consts, depth,
                              quantifiers - 1)
        return rng.choice((Exists, Forall))(v, body)
    if depth == 0 or rng.random() < 0.3:
        return random_qf_formula(rng, variables, consts, depth=0)
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, variables, consts, depth - 1, quantifiers))
    return (And, Or, Imp)[kind - 1](
        random_formula(rng, variables, consts, depth - 1, quantifiers),
        random_formula(rng, variables, consts, depth - 1, quantifiers))


def test_qe_random_suite_sampled_equivalence():
    # projecting a variable out is checked against a direct finite witness
    # search on each sample point's diagram grid
    rng = random.Random(8)
    for case in range(20):
        g = random_qf_formula(rng, ["x", "y"], [Q(0), Q(1)])
        f = Exists("y", g)
        qf = qe_dlo(f)
        consts = constants_of(g) | {Q(0), Q(1)}
        for env in sample_envs(["x"], consts, 50, seed=case):
            grid = standard_grid(consts | {env["x"]})
            direct = any(evaluate_q(g, {**env, "y": w}) for w in grid)
            assert evaluate_q(qf, env) == direct, (case, env)
    # nested quantifiers, free names reused as bound ones
    # (e.g. x < 1 & exists x. x < 0), against the recursive grid evaluator
    for case in range(60):
        f = random_formula(rng, ["x", "y"], [Q(0), Q(1)])
        qf = qe_dlo(f)
        consts = constants_of(f)
        for env in sample_envs(sorted(free_vars(f)), consts, 20, seed=case):
            assert evaluate_q(qf, env) == grid_holds(f, env, consts), (case, f, env)


# ---------------------------------------------------------------------------
# Order diagrams


def test_diagram_count_two_free_variables():
    assert len(order_diagrams(TRUE, ["x0", "x1"])) == 3


def test_diagram_count_equality():
    assert len(order_diagrams(parse_formula("x0 = x1"))) == 1


def test_diagram_count_one_variable_one_constant():
    diags = order_diagrams(TRUE, ["x"], extra_consts=[Q(0)])
    assert len(diags) == 3


@pytest.mark.parametrize("text", ["x < 1", "exists y. x < y"])
def test_order_diagrams_names_an_unbound_variable(text):
    # a free variable missing from `variables` is reported, quantifiers or not
    with pytest.raises(DloError, match="unbound variable x"):
        order_diagrams(parse_formula(text), [])


def test_diagrams_partition_the_formula():
    rng = random.Random(17)
    for case in range(15):
        f = random_qf_formula(rng, ["x0", "x1"], [Q(0)])
        diags = order_diagrams(f)
        union = FALSE
        for d in diags:
            union = Or(union, d.to_formula())
        assert_equivalent(f, union, count=200, seed=case)
        # diagrams are pairwise exclusive: each sample satisfies at most one
        for env in sample_envs(sorted(free_vars(f)), constants_of(f), 100,
                               seed=case + 100):
            hits = sum(evaluate_q(d.to_formula(), env) for d in diags)
            assert hits <= 1


def test_diagram_sample_satisfies_its_formula():
    diagrams = order_diagrams(TRUE, ["x", "y"], [Q(0), Q(2)])
    assert len(diagrams) == len(ref.enumerate_diagrams(["x", "y"], [Q(0), Q(2)]))
    for d in diagrams:
        assert evaluate_q(d.to_formula(), d.sample())


def test_cells_come_in_the_reference_order():
    # every cell the reference enumerator finds, in its order and with its
    # sample point, for formulas quantified or not over 0-3 variables (given
    # in any order, and named so that name order is not index order), 0-2
    # constants, and now and then constants that f does not hold
    rng = random.Random(101)
    quantified = extra = 0
    for case in range(320):
        variables = rng.sample(("x", "x10", "x2", "y"), rng.randint(0, 3))
        consts = sorted({Q(rng.randint(-2, 2), rng.choice((1, 2)))
                         for _ in range(rng.randint(0 if variables else 1, 2))})
        if rng.random() < 0.4:
            f = random_quantified_formula(rng, variables, consts)
        else:
            f = random_qf_formula(rng, variables, consts)
        more = [Q(rng.randint(-3, 3), 2)] if rng.random() < 0.3 else []
        quantified += quantifies(f)
        extra += bool(more)
        got, want = ([(d.blocks, d.sample()) for d in diagrams(f, variables, more)]
                     for diagrams in (order_diagrams, ref.order_diagrams))
        assert got == want, (case, f, variables, more)
    assert quantified > 60 and extra > 60


# ---------------------------------------------------------------------------
# Dimension


def test_dimension_full_plane():
    rep = dimension(TRUE, 2)
    assert rep.dimension == 2 and not rep.empty


def test_dimension_diagonal():
    rep = dimension(parse_formula("x0 = x1"), 2)
    assert rep.dimension == 1


def test_dimension_halfplane_with_box():
    rep = dimension(parse_formula("x0 < x1"), 2)
    assert rep.dimension == 2 and rep.coords == (0, 1)
    f = parse_formula("x0 < x1")
    lo0, hi0 = rep.box[0]
    lo1, hi1 = rep.box[1]
    # every point of the exhibited open box lies in the set
    for a in (lo0 + (hi0 - lo0) * Q(k, 4) for k in (1, 2, 3)):
        for b in (lo1 + (hi1 - lo1) * Q(k, 4) for k in (1, 2, 3)):
            assert evaluate_q(f, {"x0": a, "x1": b})


def test_projection_box_extends_into_the_set():
    # every probed point of the exhibited box extends to a point of the set,
    # the other coordinates found one at a time on standard grids
    def extends(f, env, others, consts):
        if not others:
            return evaluate_q(f, env)
        grid = standard_grid(consts | set(env.values()))
        return any(extends(f, {**env, others[0]: w}, others[1:], consts) for w in grid)

    rng = random.Random(37)
    boxes = 0
    for case in range(80):
        m = rng.randint(1, 3)
        variables = [f"x{i}" for i in range(m)]
        consts = sorted({Q(rng.randint(-2, 2), rng.choice((1, 2)))
                         for _ in range(rng.randint(0, 2))})
        f = random_qf_formula(rng, variables, consts)
        rep = dimension(f, m, method="projection")
        if not rep.dimension:
            continue
        boxes += 1
        others = [v for i, v in enumerate(variables) if i not in rep.coords]
        axes = [[lo + (hi - lo) * Q(k, 4) for k in (1, 2, 3)] for lo, hi in rep.box]
        for point in itertools.product(*axes):
            env = {variables[i]: x for i, x in zip(rep.coords, point)}
            assert extends(f, env, others, constants_of(f)), (case, f, env)
    assert boxes >= 40


def test_dimension_empty_set_distinguished():
    rep = dimension(parse_formula("x0 < x0"), 1)
    assert rep.empty and rep.dimension is None
    assert rep.to_json()["dim"] == "empty"


def test_dimension_point_is_zero():
    rep = dimension(parse_formula("x0 = 0"), 1)
    assert rep.dimension == 0 and not rep.empty


def test_dimension_methods_agree_on_random_suite():
    # both methods against each other and against the reference's free
    # blocks and projections of the enumerated diagrams, on sets that
    # factor and sets that do not
    rng = random.Random(29)
    for case in range(120):
        m = rng.randint(1, 3)
        variables = [f"x{i}" for i in range(m)]
        consts = sorted({Q(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))})
        if rng.random() < 0.5:
            f = random_qf_formula(rng, variables, consts)
        else:
            f = conj_all(random_qf_formula(rng, rng.sample(variables, rng.randint(1, m)),
                                           consts, depth=1) for _ in range(rng.randint(1, 3)))
        by_blocks, coords = ref.dimension(f, m)
        assert dimension(f, m, method="diagram").dimension == by_blocks, (case, f)
        rep = dimension(f, m, method="projection")
        assert (rep.dimension, rep.coords) == (by_blocks, coords), (case, f)
        dimension(f, m, method="both")  # raises on disagreement


def _box_points(rep):
    """Points of a report's box: a quarter, half and three quarters along each side."""
    return itertools.product(*[[lo + (hi - lo) * Q(k, 4) for k in (1, 2, 3)]
                               for lo, hi in rep.box])


@pytest.mark.parametrize("text, m, want", [
    (" & ".join(f"x{i} < 1" for i in range(8)), 8, tuple(range(8))),
    # four two-variable factors, their conjuncts interleaved
    ("x0 < x1 & x2 = x3 & x4 = 0 & (x6 < x7 | x7 = 1) & 0 < x2 & 0 < x5 & x7 < 2",
     8, (0, 1, 2, 5, 6, 7)),
], ids=("eight one-variable factors", "four two-variable factors"))
def test_dimension_of_a_product_of_factors(text, m, want):
    # read factor by factor; the enumerated diagrams of eight variables
    # would number in the millions
    f = parse_formula(text)
    assert dimension(f, m, method="diagram").dimension == len(want)
    for method in ("projection", "both"):
        rep = dimension(f, m, method=method)
        assert (rep.dimension, rep.coords) == (len(want), want)
    others = [f"x{i}" for i in range(m) if i not in want]
    projected = functools.reduce(lambda g, v: Exists(v, g), others, f)
    points = list(_box_points(rep))
    for point in random.Random(7).sample(points, 40):
        env = {f"x{i}": x for i, x in zip(want, point)}
        assert grid_holds(projected, env, constants_of(f)), env


def test_dimension_monotone_under_inclusion():
    rng = random.Random(31)
    for _ in range(20):
        f = random_qf_formula(rng, ["x0", "x1"], [Q(0)])
        g = random_qf_formula(rng, ["x0", "x1"], [Q(0)])
        both = And(f, g)
        d_sub = dimension(both, 2).dimension
        d_sup = dimension(f, 2).dimension
        if d_sub is None:
            continue
        assert d_sub <= d_sup


def test_dimension_rejects_stray_variables():
    with pytest.raises(DloError):
        dimension(parse_formula("x0 < y"), 1)


# ---------------------------------------------------------------------------
# Pattern witness from dimension


def test_ird_witness_full_plane_depth_two():
    p = ird_witness_from_dim(TRUE, 2)
    assert p.depth == 2 and check_ird(p) == (True, None)


def test_ird_witness_diagonal_depth_one():
    p = ird_witness_from_dim(parse_formula("x0 = x1"), 2)
    assert p.depth == 1 and check_ird(p) == (True, None)


def test_ird_witness_point_is_none():
    assert ird_witness_from_dim(parse_formula("x0 = 0"), 1) is None
    assert ird_witness_from_dim(parse_formula("x0 < x0"), 1) is None


def test_ird_witness_respects_length():
    p = ird_witness_from_dim(TRUE, 1, length=5)
    assert p.length == 5


def test_ird_witness_folds_its_formula_once(monkeypatch):
    # the dimension report and the pattern's base once folded it apart
    folds, real = [], DloContext._fold
    monkeypatch.setattr(DloContext, "_fold", lambda *args: folds.append(args) or real(*args))
    p = ird_witness_from_dim(parse_formula("x0 = x1 & x2 < 0"), 3)
    assert p.depth == 2 and check_ird(p) == (True, None)
    assert len(folds) == 1


# ---------------------------------------------------------------------------
# Products


def test_product_point_times_set():
    f = parse_formula("x0 = 0")
    g = parse_formula("0 < x0")
    prod = product(f, 1, g, 1)
    assert dimension(prod, 2).dimension == 1


def test_product_line_times_line():
    prod = product(TRUE, 1, TRUE, 1)
    assert dimension(prod, 2).dimension == 2


def test_product_dimension_additive_on_suite():
    rng = random.Random(41)
    for _ in range(15):
        f = random_qf_formula(rng, ["x0"], [Q(0)])
        g = random_qf_formula(rng, ["x0"], [Q(1)])
        df = dimension(f, 1).dimension
        dg = dimension(g, 1).dimension
        dprod = dimension(product(f, 1, g, 1), 2).dimension
        if df is None or dg is None:
            assert dprod is None
        else:
            assert dprod == df + dg


# ---------------------------------------------------------------------------
# Grids and the symbolic context


def test_standard_grid_no_constants():
    assert standard_grid([]) == [Q(0)]


def test_standard_grid_midpoints_and_padding():
    assert standard_grid([Q(0), Q(1)]) == [Q(-1), Q(0), Q(1, 2), Q(1), Q(2)]


def test_standard_grid_agrees_with_the_points_of_its_cells():
    # the grid is written directly; the reference reads each point off its
    # one-variable cell with _point's arithmetic
    rng = random.Random(2626)
    sizes = set()
    for case in range(300):
        consts = [Q(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(rng.randint(0, 6))]
        consts += [rng.randint(-3, 3) for _ in range(rng.randint(0, 1))]  # an int now and then
        sizes.add(len(set(consts)))
        got, want = standard_grid(consts), ref.standard_grid(consts)
        assert got == want and all(type(v) is Fraction for v in got), (case, consts)
    assert {0, 1, 2, 5} <= sizes


def test_context_fixed_arity():
    ctx = DloContext(2)
    with pytest.raises(DloError):
        ctx.top(3)


def test_context_restrict_and_emptiness():
    ctx = DloContext(1)
    lt = parse_partitioned("x0 ; w : x0 < w")
    s = ctx.restrict(ctx.top(), lt, (Q(0),), 1)   # x0 < 0
    s2 = ctx.restrict(s, lt, (Q(-1),), 0)         # and x0 >= -1
    assert not ctx.is_empty(s2)
    s3 = ctx.restrict(s2, lt, (Q(-2),), 1)        # and x0 < -2: empty
    assert ctx.is_empty(s3)


def test_context_pick_satisfies():
    ctx = DloContext(1)
    s = ctx.to_set(parse_formula("0 < x0 & x0 < 1"))
    (v,) = ctx.pick(s)
    assert Q(0) < v < Q(1)


def test_context_cache_key_is_semantic():
    ctx = DloContext(1)
    a = ctx.to_set(parse_formula("x0 < 1"))
    b = ctx.to_set(parse_formula("~(1 < x0) & ~(x0 = 1)"))
    assert ctx.cache_key(a) == ctx.cache_key(b)


def test_context_cache_key_follows_the_fixed_constants():
    # the key is cached on the set, but only for the fixed constants it was computed for
    ctx = DloContext(1)
    s, t = (ctx.to_set(parse_formula(f"x0 < {c}")) for c in (1, 2))
    assert ctx.cache_key(s) == ctx.cache_key(t)  # no constant fixed: one shape
    ctx.instance_candidates(parse_partitioned("x0 ; y : x0 < y | x0 = 1"), s)  # fixes 1
    assert ctx.cache_key(s) != ctx.cache_key(t)


def test_context_candidate_budget():
    ctx = DloContext(1, max_candidates=10)
    phi = parse_partitioned(
        "x0 ; w0 w1 : 0 < w0 & w0 < x0 & x0 < w1 & w1 < 1")
    # grid over constants {0, 1} has five points; 25 pairs exceed the cap,
    # and a call that raised leaves nothing cached for the next one
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            ctx.instance_candidates(phi)


def test_context_candidates_repeat_as_equal_tuples():
    ctx = DloContext(1)
    phi = parse_partitioned("x0 ; w : 0 < w & w < x0")
    s = ctx.to_set(parse_formula("x0 < 1"))
    first = ctx.instance_candidates(phi, s)
    assert isinstance(first, tuple) and first == ctx.instance_candidates(phi, s)
    assert ctx.witness_params(phi, s.joined().consts) == first


def test_context_takes_no_grid_another_context_left_on_a_set():
    # the grid kept on a normal form belongs to the context that built it: a
    # second context asked about the same set builds its own, under its own
    # budget, and fixes phi's constants for its own keys
    phi = parse_partitioned("x0 ; w : 0 < w & w < x0")
    wide, narrow = DloContext(1), DloContext(1, max_candidates=3)
    s = wide.to_set(parse_formula("x0 < 1"))
    assert len(wide.instance_candidates(phi, s)) == 5
    with pytest.raises(BudgetExceededError):
        narrow.instance_candidates(phi, s)
    other = DloContext(1)
    grid = other.instance_candidates(phi, s)
    assert grid == wide.instance_candidates(phi, s) and grid is not wide.instance_candidates(phi, s)
    assert other._fixed == (Q(0),) and all(other._owned[id(t)] is t for t in grid)


def test_context_sat_returns_witness():
    ctx = DloContext(1)
    lt = parse_partitioned("x0 ; w : x0 < w")
    got = ctx.sat(ctx.top(), [Constraint(lt, (Q(0),), 1),
                              Constraint(lt, (Q(-1),), 0)])
    assert got is not None and Q(-1) <= got[0] < Q(0)


def random_restrict_chain(rng, ctx):
    """One to four signed instances (phi, parameter, sign) of random bodies
    over the context's variables and the parameter w; about a quarter of the
    bodies quantify a further variable z."""
    consts = sorted({Q(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))})
    chain = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.25:
            sub = random_qf_formula(rng, list(ctx.obj_vars) + ["w", "z"], consts)
            body = rng.choice((Exists, Forall))("z", sub)
        else:
            body = random_qf_formula(rng, list(ctx.obj_vars) + ["w"], consts)
        phi = PartitionedFormula(body, ctx.obj_vars, ("w",))
        param = Q(rng.randint(-3, 3), rng.choice((1, 2)))
        chain.append((phi, param, rng.randint(0, 1)))
    return chain


def test_context_diagrams_agree_with_the_dnf_solver():
    # the context's cell algebra against the reference's sat_sample on the
    # conjunction of the same signed instances, which solves by DNF and
    # order graphs; a quantified instance enters in the reference's
    # quantifier-free form of its signed instance
    rng = random.Random(67)
    for case in range(300):
        ctx = DloContext(rng.randint(1, 3))
        chain = random_restrict_chain(rng, ctx)
        bodies = [signed(phi.instantiate((p,)), sign) for phi, p, sign in chain]
        bodies = [ref.qe(b) if isinstance(phi.body, (Exists, Forall)) else b
                  for b, (phi, _, _) in zip(bodies, chain)]
        s = r = ctx.top()
        for phi, p, sign in chain:
            s = ctx.restrict(s, phi, (p,), sign)
        for phi, p, sign in reversed(chain):
            r = ctx.restrict(r, phi, (p,), sign)
        assert ctx.is_empty(s) == (ref.sat_sample(conj_all(bodies)) is None), (case, bodies)
        assert ctx.cache_key(s) == ctx.cache_key(r), case
        if not ctx.is_empty(s):
            env = dict(zip(ctx.obj_vars, ctx.pick(s)))
            assert all(evaluate_q(b, env) for b in bodies), (case, bodies, env)


def refined_cells(s, consts, variables):
    """The integer cells over `consts`, a superset of s.consts, whose
    diagrams lie in the factor s over every variable: those that land on a
    cell of s once the constants outside s.consts are forgotten."""
    stride, old, cells = len(variables) + 1, set(s.consts), set(s.cells)
    out = set()
    for d in ref.enumerate_diagrams(variables, consts):
        coarse = ref.OrderDiagram(tuple((vs, c if c in old else None)
                                    for vs, c in d.blocks if vs or c in old))
        if _cell(coarse, variables, stride) in cells:
            out.add(_cell(d, variables, stride))
    return out


def test_restrict_memo_answers_as_a_fresh_context():
    # a warm context answers every restrict below from its partition memo:
    # each answer equals a fresh context's and hashes equal to it, and the
    # two signs split the cells of the set over the merged constants, the
    # positive half holding the cells the reference finds in the instance
    rng = random.Random(71)
    for case in range(100):
        warm = DloContext(rng.randint(1, 3))
        chain = random_restrict_chain(rng, warm)
        orders = (chain, chain[::-1])
        for order in orders:  # warm up: every step of both orders, both signs
            s = warm.top()
            for phi, p, sign in order:
                warm.restrict(s, phi, (p,), 1 - sign)
                s = warm.restrict(s, phi, (p,), sign)
        for order in orders:
            s = warm.top()
            for phi, p, sign in order:
                halves = [warm.restrict(s, phi, (p,), b) for b in (0, 1)]
                for b, half in enumerate(halves):
                    fresh = DloContext(warm.arity).restrict(s, phi, (p,), b)
                    assert half == fresh and hash(half) == hash(fresh), (case, b)
                    copy = DloSet(tuple(Factor(f.group, f.consts, f.cells)
                                        for f in half.factors))
                    assert hash(copy) == hash(half)
                    assert warm.restrict(s, phi, (p,), b) is half
                neg, pos = (half.joined() for half in halves)
                body = phi.instantiate((p,))
                merged = tuple(sorted(set(s.joined().consts) | constants_of(body)))
                if free_vars(body):  # a nonempty half is over the merged constants
                    assert all(h.consts == merged for h in (neg, pos) if h.cells), case
                else:  # a ground body keeps the set or empties it
                    assert s in halves and any(map(warm.is_empty, halves)), case
                # both halves and s read over the merged constants
                negs, poss = (refined_cells(h, merged, warm.obj_vars) for h in (neg, pos))
                assert not negs & poss, case
                assert len(set(neg.cells)) + len(set(pos.cells)) == \
                    len(neg.cells) + len(pos.cells), case
                refined = refined_cells(s.joined(), merged, warm.obj_vars)
                assert negs | poss == refined, case
                stride = warm.arity + 1
                holds = {_cell(d, warm.obj_vars, stride) for d in ref.order_diagrams(
                    body, warm.obj_vars, merged)}
                assert poss == refined & holds, case
                s = halves[sign]


def random_grouped_conjunction(rng, ctx):
    """A conjunction, nested at random, of quantifier-free formulas each over
    one group of a random partition of some of the context's variables, and
    now and then a ground conjunct."""
    names = list(ctx.obj_vars)
    rng.shuffle(names)
    consts = sorted({Q(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))})
    parts = []
    while names:
        cut = rng.randint(1, len(names))
        group, names = names[:cut], names[cut:]
        if rng.random() < 0.8:  # a group no conjunct mentions stays free
            parts += [random_qf_formula(rng, group, consts, depth=1)
                      for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.2:
        parts.append(random_qf_formula(rng, [], [Q(0), Q(1)], depth=1))
    rng.shuffle(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [And(parts[i], parts[i + 1])]
    return parts[0] if parts else TRUE


def test_factors_agree_with_the_diagrams_of_the_conjunction():
    # to_set on grouped conjunctions, then restrict chains: the joined form
    # is the diagrams of the conjunction of the formula and the signed
    # instances, and emptiness, pick and cache_key agree with it
    rng = random.Random(83)
    joins = factored = 0
    for case in range(200):
        ctx = DloContext(rng.randint(1, 3))
        f = random_grouped_conjunction(rng, ctx)
        chain = random_restrict_chain(rng, ctx)
        bodies = [signed(phi.instantiate((p,)), sign) for phi, p, sign in chain]
        s = r = ctx.to_set(f)
        factored += len(s.factors) > 1
        for phi, p, sign in chain:
            before = len(s.factors)
            s = ctx.restrict(s, phi, (p,), sign)
            joins += not ctx.is_empty(s) and len(s.factors) < before
        for phi, p, sign in reversed(chain):
            r = ctx.restrict(r, phi, (p,), sign)
        whole = conj_all([f] + bodies)
        joined = s.joined()
        merged = sorted(set(joined.consts) | constants_of(whole))
        want = {_cell(d, ctx.obj_vars, ctx.arity + 1)
                for d in ref.order_diagrams(whole, ctx.obj_vars, merged)}
        assert refined_cells(joined, merged, ctx.obj_vars) == want, (case, f, bodies)
        free = [ref.qe(b) if isinstance(phi.body, (Exists, Forall)) else b
                for b, (phi, _, _) in zip(bodies, chain)]
        assert ctx.is_empty(s) == (ref.sat_sample(conj_all([f] + free)) is None), (case, f)
        assert ctx.cache_key(s) == ctx.cache_key(r), case
        if not ctx.is_empty(s):
            env = dict(zip(ctx.obj_vars, ctx.pick(s)))
            assert all(evaluate_q(g, env) for g in [f] + free), (case, f, bodies, env)
    assert factored > 25 and joins > 10  # the cases do factor and join


def quantifies(f):
    if isinstance(f, (Exists, Forall)):
        return True
    if isinstance(f, Not):
        return quantifies(f.sub)
    return isinstance(f, (And, Or, Imp)) and (quantifies(f.left) or quantifies(f.right))


def random_quantified_formula(rng, variables, consts, depth=3):
    """A random formula over `variables` and `consts` that quantifies now
    and then, over a fresh variable or over one of `variables`, which the
    bound variable then shadows; constants appear under the quantifiers."""
    if depth and rng.random() < 0.4:
        v = rng.choice(list(variables) + ["z", "u"])
        scope = sorted(set(variables) | {v})
        return rng.choice((Exists, Forall))(v, random_quantified_formula(rng, scope, consts,
                                                                         depth - 1))
    if depth and rng.random() < 0.5:
        cls = rng.choice((And, Or, Imp))
        return cls(random_quantified_formula(rng, variables, consts, depth - 1),
                   random_quantified_formula(rng, variables, consts, depth - 1))
    if depth and rng.random() < 0.2:
        return Not(random_quantified_formula(rng, variables, consts, depth - 1))
    return random_qf_formula(rng, variables, consts, depth=1)


def test_traces_by_runs_agree_with_each_point():
    """DloContext.traces decides a one-variable phi once per run of points
    between breakpoints (phi's constants and the candidate's values): its
    ints against evaluate_q at each point, bit for bit, on random bodies
    that quantify now and then, with 0-3 constants and 1-2 parameters,
    points repeated and on constants and candidate values, ints among them,
    and candidates from witness_params and drawn at random.  Points of two
    coordinates take the per-point path.  (FiniteContext.traces is read
    against phi.at, bit for bit, by test_context_traces_agree_with_evaluation.)"""
    rng = random.Random(2525)
    quantified = on_breakpoint = 0
    for case in range(240):
        ctx = DloContext(2 if case % 6 == 5 else 1)
        params = ("w", "z")[:rng.randint(1, 2)]
        consts = sorted(rng.sample([Q(v, 2) for v in range(-6, 7)], rng.randint(0, 3)))
        body = random_quantified_formula(rng, ctx.obj_vars + params, consts)
        quantified += quantifies(body)
        phi = PartitionedFormula(body, ctx.obj_vars, params)
        loose = [Q(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(3)]
        loose.append(rng.randint(-3, 3))  # an int value
        grid = ctx.witness_params(phi, extra=loose[:rng.randint(0, 4)])
        candidates = rng.sample(grid, min(len(grid), 5)) + \
            [tuple(rng.choice(loose + consts) for _ in params) for _ in range(2)]
        pool = loose + consts + [v for b in candidates for v in b]
        points = [tuple(rng.choice(pool) for _ in ctx.obj_vars) for _ in range(rng.randint(0, 10))]
        points += rng.sample(points, min(len(points), 2))  # repeated points
        on_breakpoint += any(p[0] in consts or any(p[0] in b for b in candidates) for p in points)
        want = [sum(1 << i for i, p in enumerate(points) if evaluate_q(phi.at(p, b)))
                for b in candidates]
        assert list(ctx.traces(phi, points, candidates)) == want, (case, body, points, candidates)
    assert quantified >= 40 and on_breakpoint >= 150


def test_quantified_bodies_are_decided_as_their_qe_form():
    # traces and to_set decide a quantified body on positions, with no
    # quantifier elimination: they must answer as on the reference's
    # quantifier-free form
    rng = random.Random(97)
    quantified = 0
    for case in range(250):
        ctx = DloContext(rng.randint(1, 2))
        params = ("w",)[:rng.randint(0, 1)]
        consts = sorted({Q(rng.randint(-2, 2), rng.choice((1, 2)))
                         for _ in range(rng.randint(0, 2))})
        body = random_quantified_formula(rng, ctx.obj_vars + params, consts)
        quantified += quantifies(body)
        phi, free = (PartitionedFormula(b, ctx.obj_vars, params) for b in (body, ref.qe(body)))
        pool = sorted(set(consts) | {Q(v, 2) for v in range(-5, 6)})
        candidates = [tuple(rng.choice(pool) for _ in params) for _ in range(rng.randint(1, 4))]
        points = [tuple(rng.choice(pool) for _ in ctx.obj_vars) for _ in range(6)]
        assert list(ctx.traces(phi, points, candidates)) == \
            list(ctx.traces(free, points, candidates)), (case, body)
        if not params:
            got, want = (ctx.to_set(b).joined().normal_form() for b in (body, free.body))
            assert (got.consts, set(got.cells)) == (want.consts, set(want.cells)), (case, body)
    assert quantified > 150


def conjunct_groups(f, variables):
    """The groups of variables that f's top-level conjuncts link, each
    variable no conjunct mentions alone, ordered by least variable."""
    groups, conjuncts = [{i} for i in range(len(variables))], [f]
    while conjuncts:
        g = conjuncts.pop()
        if isinstance(g, And):
            conjuncts += (g.left, g.right)
            continue
        linked = {variables.index(v) for v in free_vars(g)}
        hit = [group for group in groups if group & linked]
        groups = [group for group in groups if not group & linked] + [set().union(*hit)]
    return sorted(tuple(sorted(group)) for group in groups if group)


def test_to_set_folds_the_conjuncts_into_linked_factors():
    ctx = DloContext(4)
    s = ctx.to_set(parse_formula("0 < 1 & x0 < 1"))
    assert [(f.group, f.consts) for f in s.factors] == \
        [((0,), (Q(1),)), ((1,), ()), ((2,), ()), ((3,), ())]
    assert ctx.is_empty(ctx.to_set(parse_formula("1 < 0 & x0 = x0")))
    # a quantified conjunct links the variables free in it; x2 stays free
    s = ctx.to_set(parse_formula("x0 < 1 & (exists x0. x1 < x0 & x0 < x3) & 2 < x3"))
    assert [f.group for f in s.factors] == [(0,), (1, 3), (2,)]
    assert s.factors[1].consts == (Q(2),)
    # conjuncts chained across shared variables land in one factor
    rng = random.Random(89)
    for case in range(150):
        ctx = DloContext(rng.randint(1, 4))
        consts = sorted({Q(rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))})
        parts = []
        for _ in range(rng.randint(1, 4)):
            names = rng.sample(ctx.obj_vars, rng.randint(0, min(2, ctx.arity)))
            parts.append(rng.choice((random_qf_formula, random_quantified_formula))(
                rng, names, consts, 1))
        while len(parts) > 1:
            i = rng.randrange(len(parts) - 1)
            parts[i:i + 2] = [And(parts[i], parts[i + 1])]
        f = parts[0]
        s = ctx.to_set(f)
        want = {_cell(d, ctx.obj_vars, ctx.arity + 1)
                for d in ref.order_diagrams(f, ctx.obj_vars)}
        if not want:
            assert ctx.is_empty(s), (case, f)
            continue
        assert [g.group for g in s.factors] == conjunct_groups(f, ctx.obj_vars), (case, f)
        assert refined_cells(s.joined(), sorted(constants_of(f)), ctx.obj_vars) == want, \
            (case, f)


def random_cell(rng, k, m, gap=None):
    """A canonical integer cell (see Factor) of k variables over m constants:
    each variable on a constant or in a gap, the blocks of each gap numbered
    from 1; with `gap`, at least one variable lies in that gap."""
    stride = k + 1
    raw = [rng.choice((rng.randrange(1, m + 1) * stride,
                       rng.randrange(m + 1) * stride + rng.randint(1, k)))
           if m else rng.randint(1, k) for _ in range(k)]
    if gap is not None:
        raw[rng.randrange(k)] = gap * stride + rng.randint(1, k)
    rank = {q: i for g in range(m + 1)
            for i, q in enumerate(sorted({q for q in raw if q // stride == g and q % stride}),
                                  start=g * stride + 1)}
    return tuple(rank.get(q, q) for q in raw)


def refine_by_reference(consts, cells, stride, new):
    """`dlo._refine` as a fold of the reference `_split` over the new
    constants, each rank read off the list once it is inserted."""
    consts, at = list(consts), []
    for c in new:
        if c not in consts:
            consts = sorted(consts + [c])
            cells = [e for cell in cells for e in ref._split(cell, consts.index(c), stride)]
        at.append((consts.index(c) + 1) * stride)
    return tuple(consts), cells, at


def test_split_and_refine_agree_with_the_reference_kernel():
    rng = random.Random(20)
    with_block = without = 0
    for k in (1, 2, 3):
        for m in range(6):
            for r in range(m + 1):
                for i in range(320):
                    cell = random_cell(rng, k, m, gap=r if i % 2 else None)
                    blocked = any(r * (k + 1) < q < (r + 1) * (k + 1) for q in cell)
                    with_block, without = with_block + blocked, without + (not blocked)
                    assert dlo._split(cell, r, k + 1) == ref._split(cell, r, k + 1), (cell, r)
    assert with_block + without >= 20000 and min(with_block, without) >= 5000
    for case in range(1500):
        k, m = rng.randint(1, 3), rng.randint(0, 5)
        consts = sorted(rng.sample([Q(v, 2) for v in range(-8, 9)], m))
        cells = list(dict.fromkeys(random_cell(rng, k, m) for _ in range(rng.randint(1, 6))))
        pool = consts + [Q(v, 2) for v in range(-9, 10, 2)]  # present ones and new ones
        new = sorted(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        got = dlo._refine(tuple(consts), cells, k + 1, new)
        assert got == refine_by_reference(consts, cells, k + 1, new), (consts, cells, new)


def test_restrict_splits_only_the_factor_it_mentions(monkeypatch):
    ctx = DloContext(3)
    s = ctx.to_set(parse_formula("x0 < 1 & 0 < x1"))
    assert [(f.group, f.consts) for f in s.factors] == \
        [((0,), (Q(1),)), ((1,), (Q(0),)), ((2,), ())]
    calls = []
    real = dlo._split
    monkeypatch.setattr(dlo, "_split", lambda *args: calls.append(args) or real(*args))
    phi = parse_partitioned("x0 x1 x2 ; w : x0 < w")
    neg, pos = (ctx.restrict(s, phi, (Q(1, 2),), sign) for sign in (0, 1))
    # the new constant 1/2 splits each cell of the x0 factor once, and nothing else
    assert len(calls) == len(s.factors[0].cells) == 1
    for half in (neg, pos):
        assert half.factors[1:] == s.factors[1:]
        assert half.factors[0].consts == (Q(1, 2), Q(1))


def test_restrict_refines_and_evaluates_once_per_instance(monkeypatch):
    ctx = DloContext(2)
    s = ctx.to_set(parse_formula("x0 < x1 | x1 = 1"))
    phi = parse_partitioned("x0 x1 ; w : x0 < w")  # an atom: one decision, no inner ones
    calls = dict.fromkeys(("_split", "_compile", "decide"), 0)
    real_split, real_compile = dlo._split, dlo._compile

    def split(*args):
        calls["_split"] += 1
        return real_split(*args)

    def compile_(f):
        calls["_compile"] += 1
        decide = real_compile(f)

        def counted(env):
            calls["decide"] += 1
            return decide(env)
        return counted
    monkeypatch.setattr(dlo, "_split", split)
    monkeypatch.setattr(dlo, "_compile", compile_)
    pos, neg, again = (ctx.restrict(s, phi, (Q(1, 2),), sign) for sign in (1, 0, 1))
    neg, pos, s = neg.joined(), pos.joined(), s.joined()  # one factor each: no split
    assert again.joined() is pos and neg.consts == pos.consts == (Q(1, 2), Q(1))
    # one new constant: each cell of s is split once, each refined cell decided once
    assert calls == {"_split": len(s.cells), "_compile": 1,
                     "decide": len(neg.cells) + len(pos.cells)}
    # a second parameter tuple of the same phi runs the same decision
    ctx.restrict(again, phi, (Q(2),), 1)
    assert calls["_compile"] == 1 and calls["decide"] > len(neg.cells) + len(pos.cells)


def test_restrict_places_parameter_values_among_the_constants(monkeypatch):
    # an instance is phi's decision with the values of the parameters free in
    # phi placed among its constants, one position per value; no instance
    # formula is built, and only phi's own constants are fixed for the keys
    def unreachable(*args):
        raise AssertionError("restrict built an instance formula")
    monkeypatch.setattr(PartitionedFormula, "instantiate", unreachable)
    ctx = DloContext(1)
    top = ctx.top()
    between = parse_partitioned("x0 ; w0 w1 : w0 < x0 & x0 < w1")
    assert ctx.is_empty(ctx.restrict(top, between, (Q(1, 2), Q(1, 2)), 1))
    assert ctx.restrict(top, between, (Q(1, 2), Q(1, 2)), 0).factors[0].consts == (Q(1, 2),)
    below_or_one = parse_partitioned("x0 ; w : x0 < w | x0 = 1")
    neg = ctx.restrict(top, below_or_one, (Q(1),), 0)
    assert neg.factors[0].consts == (Q(1),) and neg.factors[0].cells == ((3,),)  # x0 > 1
    unused = parse_partitioned("x0 ; w v : x0 < w")
    assert ctx.restrict(top, unused, (Q(0), Q(5)), 1).factors[0].consts == (Q(0),)
    assert ctx._fixed == (Q(1),)
    for params in ((Q(0),), (Q(0), Q(1), Q(2))):
        with pytest.raises(opdim.logic.LogicError, match="wrong length"):
            ctx.restrict(top, unused, params, 1)


@pytest.mark.parametrize("params", [
    (Q(1), Q(2)), (Q(2), Q(2)), (Q(5, 2), Q(1, 2)), (2, Q(1, 2)),
], ids=("equal to a constant", "two equal", "decreasing", "an int"))
def test_restrict_places_parameters_by_bisection_as_sorted(params):
    # the parameter values are inserted one at a time among phi's constants;
    # the refined cells are those of the sorted (value, name) form
    ctx = DloContext(2)
    s = ctx.to_set(parse_formula("x0 < x1 | x1 = 3"))
    phi = parse_partitioned("x0 x1 ; w v : w < x0 & x1 < v | x0 = 1 | x1 = 3")
    halves = [ctx.restrict(s, phi, params, sign) for sign in (0, 1)]
    (decide, names, consts, mentions), free = ctx._decisions[phi]
    places = sorted([*zip(consts, names), *((Q(params[j]), phi.param_vars[j]) for j in free)])
    want = ctx._partition(s, phi.obj_vars, decide, tuple(n for _, n in places),
                          tuple(v for v, _ in places), mentions)
    form = lambda t: [(f.group, f.consts, f.cells) for f in t.factors]
    assert list(map(form, halves)) == list(map(form, want))
    assert all(type(c) is Fraction for half in halves for f in half.factors for c in f.consts)


def test_restrict_answers_a_sign_pair_from_the_last_partition(monkeypatch):
    ctx = DloContext(2)
    formula = parse_formula("x0 < x1 | x1 = 1")
    s = ctx.to_set(formula)
    phi = parse_partitioned("x0 x1 ; w : x0 < w & w < x1")
    calls = []
    real = DloContext._partition
    monkeypatch.setattr(DloContext, "_partition",
                        lambda self, *args: calls.append(args) or real(self, *args))
    params = (Q(1, 2),)
    pos, neg = ctx.restrict(s, phi, params, 1), ctx.restrict(s, phi, params, 0)
    assert len(calls) == 1
    kept = ctx._splits[(s, phi, params)]
    assert neg is kept[0] and pos is kept[1]
    # a list is copied into the key, so a list changed in place is read afresh
    values = [Q(1, 2)]
    assert ctx.restrict(s, phi, values, 1) is pos
    values[0] = Q(3)
    got = ctx.restrict(s, phi, values, 0)
    assert len(calls) == 2 and got is ctx._splits[(s, phi, (Q(3),))][0]
    fresh = DloContext(2)
    want = fresh.restrict(fresh.to_set(formula), phi, (Q(3),), 0)
    assert [(f.group, f.consts, f.cells) for f in got.factors] == \
        [(f.group, f.consts, f.cells) for f in want.factors]
    # the last partition is kept beside the memo, not in it: one entry per split
    ctx = DloContext(1)
    assert op_rank(RankQuery(ctx, ctx.top(), (parse_partitioned("x0 ; y : x0 < y"),),
                             cap=8)).capped
    assert len(ctx._splits) == 8


# ---------------------------------------------------------------------------
# Warm lookups: grids per normal form, identity-keyed partitions, integer keys


def random_instance(rng, ctx):
    """A random quantifier-free phi over the context's variables with one or
    two parameters and up to two constants, and a set of the context made
    by restricting top by up to three of its instances at grid points."""
    params = ("w", "v")[:rng.randint(1, 2)]
    consts = sorted({Q(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(rng.randint(0, 2))})
    phi = PartitionedFormula(random_qf_formula(rng, list(ctx.obj_vars) + list(params), consts),
                             ctx.obj_vars, params)
    s = ctx.top()
    for _ in range(rng.randint(0, 3)):
        t = ctx.restrict(s, phi, rng.choice(ctx.instance_candidates(phi, s)), rng.randint(0, 1))
        s = s if ctx.is_empty(t) else t
    return phi, s


def test_identity_and_value_keys_give_equal_partitions():
    # restrict keys a candidate the context handed out by identity, anything
    # else by value: the context's tuple, an equal fresh tuple, a list, a list
    # changed in place and short-lived tuples (whose ids Python reuses) must
    # all split the set as a fresh context does
    rng = random.Random(2627)
    form = lambda t: [(f.group, f.consts, f.cells) for f in t.factors]
    checked = 0
    for case in range(150):
        ctx = DloContext(rng.randint(1, 2))
        phi, s = random_instance(rng, ctx)
        grid = ctx.instance_candidates(phi, s)
        for t in rng.sample(grid, min(len(grid), 4)):
            assert ctx._owned.get(id(t)) is t  # the context keeps it, so its id is its own
            checked += 1
            want = [form(DloContext(ctx.arity).restrict(s, phi, t, b)) for b in (0, 1)]
            for params in (t, tuple(list(t)), list(t)):
                assert [form(ctx.restrict(s, phi, params, b)) for b in (0, 1)] == want, case
            values = list(t)
            for _ in range(3):
                values[rng.randrange(len(values))] = Q(rng.randint(-6, 6), 2)
                want = form(DloContext(ctx.arity).restrict(s, phi, tuple(values), 1))
                assert form(ctx.restrict(s, phi, values, 1)) == want, (case, values)
        for _ in range(8):
            values = tuple(Q(rng.randint(-6, 6), 2) for _ in phi.param_vars)
            want = form(DloContext(ctx.arity).restrict(s, phi, values, 0))
            assert form(ctx.restrict(s, phi, values, 0)) == want, (case, values)
    assert checked >= 350


class CopiedCandidates(DloContext):
    """The symbolic context handing out a fresh copy of each candidate on
    every call, so restrict keys every instance by value."""

    def instance_candidates(self, phi, s=None):
        return tuple(tuple(list(t)) for t in super().instance_candidates(phi, s))


def test_engines_answer_alike_on_copies_of_the_candidates():
    rng = random.Random(2628)
    for case in range(60):
        arity = rng.randint(1, 2)
        phi, _ = random_instance(rng, DloContext(arity))
        answers, memos = [], []
        for ctx in (DloContext(arity), CopiedCandidates(arity)):
            engine = _RankEngine(ctx, (phi,), 1)
            query = RankQuery(ctx, ctx.top(), (phi,), cap=3)
            answers.append((_capped_rank(engine, query), shelah_rank2(query),
                            gamma_consistent(ctx, ctx.top(), phi, 1, 2)[0]))
            memos.append(engine.memo)
        assert answers[0] == answers[1] and memos[0] == memos[1], (case, phi)


def test_cache_key_codes_fixed_constants_by_index():
    # the key codes each fixed constant by its index in ctx._fixed; two sets
    # share a key exactly when they share the reference's value-coded key,
    # also across keys built before and after the fixed constants grew
    rng = random.Random(2629)
    shared = grew = 0
    for case in range(80):
        ctx = DloContext(rng.randint(1, 2))
        keys = []
        for _ in range(rng.randint(2, 4)):
            fixed = ctx._fixed
            _, s = random_instance(rng, ctx)
            grew += ctx._fixed is not fixed
            for t in (s, ctx.to_set(parse_formula(f"x0 < {Q(rng.randint(-4, 4), 2)}"))):
                key = ctx.cache_key(t)
                assert all(type(i) is int for i in key[1] + key[2] if i is not None)
                keys.append((key, ref.value_cache_key(ctx._fixed, t.joined().normal_form())))
        for (a, va), (b, vb) in itertools.combinations(keys, 2):
            assert (a == b) == (va == vb), case
            shared += a == b
    assert shared >= 150 and grew >= 60


def test_warm_rank_queries_hash_no_rational(monkeypatch):
    # on a warm context a rank node finds its grid on the normal form, its
    # partitions by the candidates' identity and its memo entry by an
    # integer-coded key, so repeating the queries hashes no Fraction
    ctx = DloContext(1)
    phis = [parse_partitioned(t) for t in (
        "x0 ; y : x0 < y", "x0 ; y : y < x0 & x0 < 1/3", "x0 ; y : x0 = y | x0 = 1/3",
        "x0 ; y z : y < x0 & x0 < z", "x0 ; y z : x0 = y | x0 = z")]

    def queries():
        for phi in phis:
            query = RankQuery(ctx, ctx.top(), (phi,), cap=4)
            yield op_rank(query), shelah_rank2(query), gamma_consistent(ctx, ctx.top(), phi, 1, 2)[0]
            yield localized_opd(ctx, ctx.top(), [phi], cap=4, max_n=2)
    # a second round sees every formula's constants fixed from the start
    want = [list(queries()) for _ in range(2)][1]
    calls = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: calls.append(self) or real(self))
    for _ in range(3):
        assert list(queries()) == want
    hashed = len(calls)
    hash(Q(1, 3))  # the count works
    assert hashed == 0 and len(calls) == 1
    assert want[0] == (RankValue.at_least(4), RankValue.at_least(4), True)


def coarsened(s, consts, variables):
    """The integer cells over `consts`, a subset of s.consts, of the diagrams
    of the factor s over every variable with the other constants forgotten."""
    stride, keep = len(variables) + 1, set(consts)
    return {_cell(ref.OrderDiagram(tuple((vs, c if c in keep else None)
                                     for vs, c in _uncell(cell, s.consts, variables,
                                                          stride).blocks
                                     if vs or c in keep)), variables, stride)
            for cell in s.cells}


def test_normal_form_keeps_exactly_the_constants_a_set_depends_on():
    # on restrict chains: the normal form refined by the dropped constants
    # gives back the set's cells, forgetting any kept constant alone gives a
    # larger set, and normalizing again changes nothing
    rng = random.Random(73)
    dropped = 0
    for case in range(150):
        ctx = DloContext(rng.randint(1, 3))
        s = ctx.top()
        for phi, p, sign in random_restrict_chain(rng, ctx):
            s = ctx.restrict(s, phi, (p,), sign)
            j = s.joined()
            n = j.normal_form()
            assert n is j.normal_form() and set(n.consts) <= set(j.consts), case
            dropped += len(j.consts) - len(n.consts)
            if not j.cells:
                assert n == Factor(j.group, (), ()), case
                continue
            assert refined_cells(n, j.consts, ctx.obj_vars) == set(j.cells), case
            for c in n.consts:
                kept = tuple(x for x in n.consts if x != c)
                coarse = Factor(n.group, kept, tuple(coarsened(n, kept, ctx.obj_vars)))
                assert refined_cells(coarse, n.consts, ctx.obj_vars) != set(n.cells), \
                    (case, c)
            again = Factor(n.group, n.consts, n.cells).normal_form()
            assert again == n and again.cells == n.cells, case
    assert dropped > 100  # the chains do exercise the dropping


def test_normal_form_of_the_empty_set_and_of_a_constant_free_set():
    ctx = DloContext(2)
    assert Factor((0, 1), (Q(0), Q(1)), ()).normal_form() == Factor((0, 1), (), ())
    s = ctx.to_set(parse_formula("x0 < x1 | x0 = x1 | x1 < x0 | x0 = 0"))
    n, top = s.joined().normal_form(), ctx.top().joined()
    assert s.joined().consts == (Q(0),) and n.consts == top.consts == ()
    assert n.group == top.group and sorted(n.cells) == sorted(top.cells)


def test_pick_is_the_sample_of_the_first_cell():
    # pick reads the point off the cell's positions; it must be exactly the
    # point the cell's reference order diagram samples
    rng = random.Random(79)
    for k in (1, 2, 3):
        ctx = DloContext(k)
        for _ in range(12):
            consts = tuple(sorted({Q(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                                   for _ in range(rng.randint(0, 3))}))
            for d in ref.enumerate_diagrams(ctx.obj_vars, consts):
                cell = _cell(d, ctx.obj_vars, k + 1)
                env = _uncell(cell, consts, ctx.obj_vars, k + 1).sample()
                want = tuple(env[v] for v in ctx.obj_vars)
                s = DloSet((Factor(tuple(range(k)), consts, (cell,)),))
                assert ctx.pick(s) == want, (consts, d)


# The one-variable formulas of the benchmark's dlo-rank workload, c0 = 1/3.
DLO_RANK_FORMULAS = (
    "x0 ; y : x0 < y", "x0 ; y : x0 = y", "x0 ; y : y < x0 & x0 < 1/3",
    "x0 ; y : x0 < y | x0 = 1/3", "x0 ; y : 1/3 < x0 & x0 < y",
    "x0 ; y : x0 = y | x0 = 1/3", "x0 ; y z : y < x0 & x0 < z",
    "x0 ; y z : x0 < y | z < x0", "x0 ; y z : x0 = y | x0 = z",
)


def test_ranks_on_a_shared_context_match_fresh_contexts():
    # one warm context carries every earlier query's bodies, grids and splits
    warm = DloContext(1)
    for text in DLO_RANK_FORMULAS:
        phi = parse_partitioned(text)
        for cap in range(4, 9):
            for engine in (op_rank, shelah_rank2):
                rank = lambda ctx: engine(RankQuery(ctx, ctx.top(), (phi,), cap=cap))
                assert rank(warm) == rank(DloContext(1)), (text, cap, engine.__name__)
        for n, beta in ((1, 2), (2, 1)) if len(phi.param_vars) == 1 else ((1, 2),):
            gamma = lambda ctx: gamma_consistent(ctx, ctx.top(), phi, n, beta)
            assert gamma(warm) == gamma(DloContext(1)), (text, n, beta)


# The benchmark's gamma_consistent templates on Q, c0 a constant.
GAMMA_TEMPLATES = (
    "x0 ; y : x0 < y", "x0 ; y : x0 = y", "x0 ; y : y < x0 & x0 < c0",
    "x0 ; y : x0 = y | x0 = c0", "x0 ; y : c0 < x0 & x0 < y", "x0 ; y z : y < x0 & x0 < z",
)
FINITE_GAMMA = ("x ; y : R(x, y)", "x ; y : R(y, x)", "x ; y : x = y",
                "x ; y : R(x, y) | x = y", "x ; y z : R(y, x) & R(x, z)")


def assert_leaves_hold(witness, phi, n, beta, base, holds):
    """Every leaf point of the witness lies in `base` and satisfies each
    signed instance on its branch: phi at the node's i-th parameter tuple
    holds iff the i-th sign there is 1."""
    assert len(witness.witnesses) == (1 << n) ** beta
    for leaf, point in witness.witnesses.items():
        assert len(leaf) == beta and base(point), (leaf, point)
        for level, sigma in enumerate(leaf):
            choice = witness.params[leaf[:level]]
            for params, sign in zip(choice, sigma, strict=True):
                env = {**dict(zip(phi.obj_vars, point)), **dict(zip(phi.param_vars, params))}
                assert holds(phi.body, env) == (sign == 1), (leaf, level, params, point)


def test_gamma_witness_leaves_satisfy_their_branches():
    # read independently: the grid evaluator on Q, logic.evaluate on finite
    # R-structures (a random base set there)
    rng = random.Random(15)
    witnessed = [0, 0]
    for case in range(40):
        c0 = Q(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        phi = parse_partitioned(rng.choice(GAMMA_TEMPLATES).replace("c0", str(c0)))
        n, beta = rng.choice(((1, 0), (1, 1), (1, 2), (2, 1), (2, 2)))
        ctx = DloContext(1)
        ok, witness = gamma_consistent(ctx, ctx.top(), phi, n, beta)
        if ok:
            witnessed[0] += 1
            consts = constants_of(phi.body)
            assert_leaves_hold(witness, phi, n, beta, lambda p: True,
                               lambda f, env: grid_holds(f, env, consts))
    for case in range(60):
        structure = random_r_structure(rng, rng.randint(1, 4))
        ctx = FiniteContext(structure)
        phi = parse_partitioned(rng.choice(FINITE_GAMMA), structure.signature)
        # (2, 2) asks for 16 leaves in distinct points, more than 4 elements hold
        n, beta = rng.choice(((1, 1), (1, 1), (1, 2), (2, 1)))
        tuples = ctx.space(1)[0]
        mask = rng.choice((rng.randrange(1, 1 << len(tuples)), (1 << len(tuples)) - 1))
        ok, witness = gamma_consistent(ctx, FinSet(1, mask), phi, n, beta)
        if ok:
            witnessed[1] += 1
            assert_leaves_hold(witness, phi, n, beta,
                               lambda p: mask >> tuples.index(p) & 1,
                               lambda f, env: evaluate(structure, f, env))
    assert min(witnessed) >= 15  # both backends answer enough queries with a witness


def test_context_holds():
    # phi.at read over Q: the evaluation the traces tests below compare against
    lt = parse_partitioned("x0 ; w : x0 < w")
    assert evaluate_q(lt.at((Q(0),), (Q(1),)))
    assert not evaluate_q(lt.at((Q(1),), (Q(0),)))


def test_context_traces_agree_with_evaluation():
    """Each context's traces against phi.at(p, b) read independently:
    evaluate_q over Q, logic.evaluate on finite chains and R-structures.
    Points and candidate values are drawn from one small pool that holds
    phi's constants, so they often equal a constant or each other."""
    rng = random.Random(4242)
    for case in range(300):
        params = ("w", "z")[:rng.randint(0, 2)]
        if case % 4 < 2:
            ctx = DloContext(case % 4 + 1)
            obj_vars = ctx.obj_vars
            consts = [Q(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(rng.randint(0, 2))]
            body = random_qf_formula(rng, obj_vars + params, consts)
            pool = sorted(set(consts) | {Q(v, 2) for v in range(-5, 6)})
            reference = evaluate_q
        else:
            host = chain(5) if case % 4 == 2 else random_r_structure(rng, 4)
            ctx = FiniteContext(host)
            obj_vars = ("x", "y")[:rng.randint(1, 2)]
            consts = rng.sample(host.universe, rng.randint(0, 2))
            body = random_qf_formula(rng, obj_vars + params, consts,
                                     rel="<" if case % 4 == 2 else "R", const=Elem)
            pool = host.universe
            reference = lambda f, host=host: evaluate(host, f)
        phi = PartitionedFormula(body, obj_vars, params)
        candidates = [tuple(rng.choice(pool) for _ in params) for _ in range(rng.randint(0, 4))]
        points = [tuple(rng.choice(pool) for _ in obj_vars) for _ in range(rng.randint(0, 6))]
        got = list(ctx.traces(phi, points, candidates))
        want = [sum(1 << i for i, p in enumerate(points) if reference(phi.at(p, b)))
                for b in candidates]
        assert got == want, (case, body, points, candidates)
