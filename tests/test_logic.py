import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from opdim import (
    And, Atom, Eq, Exists, Forall, Imp, Not, Or, Var,
    DLO_SIGNATURE, FiniteStructure, Signature, ParseError,
    evaluate, free_vars, parse_formula, parse_partitioned, print_formula,
    solutions, structure_from_dict, structure_to_dict,
)
from opdim.logic import (
    DefinableSubset, InsufficientCodesError, LogicError,
    encode_delta, independence_dimension, parity_combine,
)
from opdim.contexts import FiniteContext
from opdim.ranks import RankQuery, op_rank, shelah_rank2

from conftest import CHAIN_SIG, R_SIG, chain, r_structure, random_r_structure


# ---------------------------------------------------------------------------
# Parser


def test_parse_single_atom():
    f = parse_formula("x < y")
    assert f == Atom("<", (Var("x"), Var("y")))


def test_parse_nested_quantifiers():
    f = parse_formula("forall x. exists y. x < y")
    assert f == Forall("x", Exists("y", Atom("<", (Var("x"), Var("y")))))


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_formula("x < < y")
    assert err.value.col == 5


def test_parse_unknown_relation():
    with pytest.raises(ParseError):
        parse_formula("Q(x, y)", CHAIN_SIG)


def test_parse_arity_mismatch():
    with pytest.raises(ParseError):
        parse_formula("R(x, y, z)", R_SIG)


def test_parse_connective_precedence():
    f = parse_formula("x < y & y < z | x = z -> x < z")
    assert isinstance(f, Imp)
    assert isinstance(f.left, Or)
    assert isinstance(f.left.left, And)


def test_parse_implication_right_associative():
    f = parse_formula("x = y -> y = z -> x = z")
    assert isinstance(f, Imp) and isinstance(f.right, Imp)


def test_print_parse_round_trip():
    texts = [
        "x < y",
        "forall x. exists y. x < y",
        "~(x < y) & (y < z | x = z)",
        "x < y -> (exists z. x < z & z < y)",
        "x = 3/2 | x < -2",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f


_atom = st.sampled_from("xyz").flatmap(
    lambda a: st.sampled_from("xyz").map(
        lambda b: Atom("<", (Var(a), Var(b)))))


_formula = st.recursive(
    _atom,
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda p: And(*p)),
        st.tuples(sub, sub).map(lambda p: Or(*p)),
        st.tuples(sub, sub).map(lambda p: Imp(*p)),
        st.tuples(st.sampled_from("xyz"), sub).map(lambda p: Exists(*p)),
        st.tuples(st.sampled_from("xyz"), sub).map(lambda p: Forall(*p)),
    ),
    max_leaves=12,
)


@given(_formula)
@settings(max_examples=150, deadline=None)
def test_printer_round_trips_generated_asts(f):
    assert parse_formula(print_formula(f)) == f


# ---------------------------------------------------------------------------
# Evaluation and solutions


def test_evaluate_atom_on_chain():
    assert evaluate(chain(3), parse_formula("x < y"), {"x": 0, "y": 1})


def test_evaluate_exists_at_maximum_is_false():
    assert not evaluate(chain(3), parse_formula("exists y. x < y"), {"x": 2})


def test_evaluate_sentence_no_top_extension():
    assert not evaluate(chain(3), parse_formula("forall x. exists y. x < y"))


def test_evaluate_unbound_variable():
    with pytest.raises(LogicError):
        evaluate(chain(3), parse_formula("x < y"), {"x": 0})


def test_solutions_strict_pairs():
    got = solutions(chain(3), parse_formula("x < y"), ("x", "y"))
    assert got == {(0, 1), (0, 2), (1, 2)}


def test_solutions_reflexive_equality():
    got = solutions(chain(4), parse_formula("x = x"), ("x",))
    assert got == {(e,) for e in range(4)}


def test_solutions_irreflexive_order_empty():
    assert solutions(chain(3), parse_formula("x < x"), ("x",)) == set()


def test_solutions_complement_partition():
    rng = random.Random(5)
    for _ in range(25):
        m = random_r_structure(rng, 3)
        f = parse_formula("R(x, y) & ~R(y, x)", R_SIG)
        pos = solutions(m, f, ("x", "y"))
        neg = solutions(m, Not(f), ("x", "y"))
        space = set(itertools.product(m.universe, repeat=2))
        assert pos | neg == space and not pos & neg


def test_quantifier_free_evaluation_matches_tables():
    rng = random.Random(7)
    for _ in range(20):
        m = random_r_structure(rng, 3)
        table = m.relations["R"]
        for x, y in itertools.product(m.universe, repeat=2):
            env = {"x": x, "y": y}
            direct = ((x, y) in table) and not ((y, x) in table)
            f = parse_formula("R(x, y) & ~R(y, x)", R_SIG)
            assert evaluate(m, f, env) == direct


# ---------------------------------------------------------------------------
# Structures and serialization


def test_signature_rejects_duplicate_names():
    with pytest.raises(LogicError):
        Signature((("R", 2), ("R", 1)))


def test_structure_rejects_stray_tuple():
    with pytest.raises(LogicError):
        FiniteStructure(R_SIG, (0, 1), {"R": frozenset({(0, 7)})})


def test_structure_json_round_trip():
    m = r_structure(("a", "b"), {("a", "b")})
    again = structure_from_dict(structure_to_dict(m))
    assert again == m


def test_structure_spec_document_loads():
    doc = {
        "signature": {"relations": [{"name": "<0", "arity": 2}],
                      "constants": ["c"]},
        "universe": ["a", "b"],
        "relations": {"<0": [["a", "b"]]},
        "constants": {"c": "a"},
    }
    m = structure_from_dict(doc)
    assert m.constants["c"] == "a"
    assert evaluate(m, parse_formula("c <0 y", m.signature), {"y": "b"})


# ---------------------------------------------------------------------------
# Independence dimension


def test_independence_dimension_of_order_is_one():
    phi = parse_partitioned("x ; y : x < y")
    assert independence_dimension(chain(8), phi, 3) == 1


def test_independence_dimension_trivial_formula_is_zero():
    phi = parse_partitioned("x ; y : x = x")
    assert independence_dimension(chain(4), phi, 2) == 0


def test_independence_dimension_shattering_pair():
    # four points realizing all four R-patterns against parameters 0 and 1
    m = r_structure(range(6), {(2, 0), (3, 1), (4, 0), (4, 1)})
    phi = parse_partitioned("x ; y : R(x, y)", R_SIG)
    assert independence_dimension(m, phi, 3) >= 2


def test_independence_dimension_monotone_under_substructures():
    rng = random.Random(11)
    phi = parse_partitioned("x ; y : R(x, y)", R_SIG)
    for _ in range(10):
        m = random_r_structure(rng, 4)
        sub = m.induced(m.universe[:3])
        assert independence_dimension(sub, phi, 3) <= \
            independence_dimension(m, phi, 3)


# ---------------------------------------------------------------------------
# Parity combination


def test_parity_combine_single_is_negation():
    phi = parse_partitioned("x ; y : x < y")
    psi = parity_combine(phi, 1)
    m = chain(3)
    for x, y in itertools.product(m.universe, repeat=2):
        assert evaluate(m, psi.at((x,), (y,))) == (not x < y)


def test_parity_combine_pair_truth_table():
    phi = parse_partitioned("x ; y : x < y")
    psi = parity_combine(phi, 2)
    assert len(psi.param_vars) == 2
    m = chain(3)
    for x, y0, y1 in itertools.product(m.universe, repeat=3):
        want = (x < y0) == (x < y1)
        assert evaluate(m, psi.at((x,), (y0, y1))) == want


def test_parity_combine_matches_direct_count():
    rng = random.Random(3)
    phi = parse_partitioned("x ; y : R(x, y)", R_SIG)
    m = random_r_structure(rng, 4)
    psi = parity_combine(phi, 3)
    for _ in range(100):
        x = rng.choice(m.universe)
        ys = tuple(rng.choice(m.universe) for _ in range(3))
        count = sum(1 for y in ys if (x, y) in m.relations["R"])
        assert evaluate(m, psi.at((x,), ys)) == (count % 2 == 0)


# ---------------------------------------------------------------------------
# Delta coding


def test_encode_delta_singleton_passthrough():
    phi = parse_partitioned("x ; y : x < y")
    coded = encode_delta([phi], chain(3))
    assert coded.param_vars == phi.param_vars
    assert solutions(chain(3), coded.at((1,), (2,)), ()) == {()}


def test_encode_delta_needs_two_elements():
    phis = [parse_partitioned("x ; y : R(x, y)", R_SIG),
            parse_partitioned("x ; y : R(y, x)", R_SIG)]
    one = r_structure((0,), set())
    with pytest.raises(InsufficientCodesError):
        encode_delta(phis, one)


def test_encode_delta_preserves_rank():
    # the coded formula must produce the same splitting power as the set
    rng = random.Random(17)
    phis = [parse_partitioned("x ; y : R(x, y)", R_SIG),
            parse_partitioned("x ; y : R(y, x)", R_SIG)]
    for _ in range(20):
        m = random_r_structure(rng, 2)
        coded = encode_delta(phis, m)
        ctx = FiniteContext(m)
        smask = rng.randrange(1, 4)
        subset = DefinableSubset(m, 1, frozenset(
            (e,) for i, e in enumerate(m.universe) if smask >> i & 1))
        r_set = op_rank(RankQuery(ctx, subset, phis, n=1, cap=6))
        r_coded = op_rank(RankQuery(ctx, subset, [coded], n=1, cap=6))
        assert r_set.to_json() == r_coded.to_json()


RP_SIG = Signature((("R", 2), ("P", 1)))
RP_POOL = {1: ["x ; y : R(x, y)", "x ; y : R(y, x) & P(y)", "x ; y : P(x) | x = y"],
           2: ["x ; y z : R(x, y) & ~R(x, z)", "x ; y z : R(y, z) & (x = y | P(x))",
               "x ; y z : R(x, y) | R(z, x)"]}


def test_encode_delta_ranks_as_delta():
    # the coded formula is an oracle for Delta: each selector code picks one
    # member, and the unused codes give the empty instance, which splits
    # nothing, so both ranks agree on every base at n = 1 and n = 2
    rng = random.Random(61)
    compared = 0
    for case in range(100):
        k = rng.randint(2, 4)
        universe = tuple(range(k))
        m = FiniteStructure(RP_SIG, universe, {
            "R": frozenset(p for p in itertools.product(universe, repeat=2) if rng.random() < 0.4),
            "P": frozenset((a,) for a in universe if rng.random() < 0.5)})
        texts = rng.sample(RP_POOL[1], rng.randint(1, 2)) + [rng.choice(RP_POOL[2])]
        rng.shuffle(texts)
        delta = [parse_partitioned(t, RP_SIG) for t in texts]
        coded = encode_delta(delta, m)
        ctx = FiniteContext(m)
        subset = DefinableSubset(m, 1, frozenset(
            (e,) for e in rng.sample(universe, rng.randint(1, k))))
        for rank, n in ((op_rank, 1), (op_rank, 2), (shelah_rank2, 1)):
            got, want = (rank(RankQuery(ctx, subset, d, n=n, cap=4)) for d in ([coded], delta))
            assert got == want, (case, texts, n, rank.__name__)
            compared += 1
    assert compared == 300
