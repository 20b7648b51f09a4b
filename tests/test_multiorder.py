import itertools
import random
from fractions import Fraction

import pytest

from opdim import (
    BudgetExceededError, DloContext, Embedding, ExtensionSpec, MultiCut,
    MopReport, MultiOrder, MultiOrderError, PictureWitness, amalgamate,
    check_embedding, check_mop_witness, enumerate_multicuts,
    extension_property_level, generate_generic, grid_embed, linearize_grid,
    multiorder_from_dict, multiorder_to_dict, one_point_extend,
    pairwise_comparable, parse_partitioned, validate,
)
from opdim.multiorder import GRID, as_structure, multicut_sets

from conftest import CHAIN_SIG, chain


def opposed(labels=("a", "b", "c", "d")):
    """Two orders running in opposite directions."""
    return MultiOrder(2, labels, (tuple(labels), tuple(reversed(labels))))


def random_multiorder(rng, n, size):
    labels = tuple(f"p{i}" for i in range(size))
    orders = []
    for _ in range(n):
        o = list(labels)
        rng.shuffle(o)
        orders.append(tuple(o))
    return MultiOrder(n, labels, tuple(orders))


# ---------------------------------------------------------------------------
# Validation


def test_validate_opposed_orders_ok():
    assert validate(opposed(("a", "b"))).ok


def test_validate_flags_non_permutation():
    bad = MultiOrder(2, ("a", "b"), (("a", "b"), ("a", "a")))
    report = validate(bad)
    assert not report.ok and report.order_index == 1


def test_validate_empty_universe_ok():
    assert validate(MultiOrder(2, (), ((), ()))).ok


def test_multiorder_rejects_duplicate_universe():
    with pytest.raises(MultiOrderError):
        MultiOrder(1, ("a", "a"), (("a", "a"),))


# ---------------------------------------------------------------------------
# Multi-cuts


def test_multicut_count_2_by_2():
    assert len(enumerate_multicuts(opposed(("a", "b")))) == 9


def test_multicut_count_chain():
    chain3 = MultiOrder(1, ("a", "b", "c"), (("a", "b", "c"),))
    assert len(enumerate_multicuts(chain3)) == 4


def test_multicut_count_empty():
    assert enumerate_multicuts(MultiOrder(2, (), ((), ()))) == \
        [MultiCut((0, 0))]


def test_multicuts_unique_and_lexicographic():
    for size, n in itertools.product(range(6), range(1, 4)):
        mo = generate_generic(n, size, seed=size * 10 + n)
        cuts = enumerate_multicuts(mo)
        assert len(cuts) == (size + 1) ** n
        assert len(set(cuts)) == len(cuts)
        assert [z.cuts for z in cuts] == sorted(z.cuts for z in cuts)


def test_multicut_sets_are_downward_closed():
    mo = opposed()
    z = MultiCut((2, 1))
    below0, below1 = multicut_sets(mo, z)
    assert below0 == {"a", "b"} and below1 == {"d"}


# ---------------------------------------------------------------------------
# Grid embedding


def test_grid_embed_opposed_pair():
    e = grid_embed(opposed(("a", "b")))
    assert e("a") == (0, 1) and e("b") == (1, 0)
    assert check_embedding(e) == (True, None)


def test_grid_embed_chain_is_identity():
    chain3 = MultiOrder(1, (0, 1, 2), ((0, 1, 2),))
    e = grid_embed(chain3)
    assert e.image() == ((0,), (1,), (2,))


def test_grid_embed_random_passes_pairwise_check():
    rng = random.Random(71)
    for _ in range(25):
        mo = random_multiorder(rng, rng.randrange(1, 4), 6)
        assert check_embedding(grid_embed(mo)) == (True, None)


def test_check_embedding_flags_order_reversal():
    src = MultiOrder(1, ("a", "b"), (("a", "b"),))
    bad = Embedding(src, GRID, (("a", (1,)), ("b", (0,))))
    ok, why = check_embedding(bad)
    assert not ok and "order 0" in why


# ---------------------------------------------------------------------------
# Grid linearization


def test_linearize_trivial_grid_is_chain():
    mo, ok = linearize_grid(1, 1, seed=0)
    assert ok and mo.orders == (((0,), (1,)),)


def test_linearize_makes_incomparables_comparable():
    mo, ok = linearize_grid(1, 2, seed=3)
    assert ok and mo.size == 4
    for i in (0, 1):
        assert mo.less(i, (0, 1), (1, 0)) or mo.less(i, (1, 0), (0, 1))


def test_linearize_preserves_strict_comparisons():
    mo, ok = linearize_grid(2, 2, seed=5)
    assert ok
    for i in (0, 1):
        for p, q in itertools.permutations(mo.universe, 2):
            if p[i] < q[i]:
                assert mo.less(i, p, q)


def test_linearize_respects_size_cap():
    with pytest.raises(BudgetExceededError):
        linearize_grid(4, 3, seed=0, size_cap=4095)


# ---------------------------------------------------------------------------
# Amalgamation and extension


def identity_embedding(mo):
    return Embedding(mo, mo, tuple((b, b) for b in mo.universe))


def test_amalgamate_over_empty_base():
    A = MultiOrder(2, (), ((), ()))
    B = opposed(("b0", "b1"))
    C = opposed(("c0", "c1"))
    empty = Embedding(A, B, ())
    empty2 = Embedding(A, C, ())
    out = amalgamate(A, B, C, empty, empty2)
    assert validate(out.result).ok and out.result.size == 4
    assert check_embedding(out.embed_b) == (True, None)
    assert check_embedding(out.embed_c) == (True, None)


def test_amalgamate_identity_is_isomorphic():
    A = opposed()
    out = amalgamate(A, A, A, identity_embedding(A), identity_embedding(A))
    assert out.result.size == A.size
    assert validate(out.result).ok


def test_amalgamate_random_glues_correctly():
    rng = random.Random(13)
    for _ in range(15):
        B = random_multiorder(rng, 2, 4)
        shared = rng.sample(B.universe, 2)
        A = B.restrict(shared)
        e1 = Embedding(A, B, tuple((a, a) for a in A.universe))
        # C holds a renamed copy of A plus two extra points
        cmap = {b: f"q{B.universe.index(b)}" for b in A.universe}
        C = amalgam_compatible_c(rng, A, cmap)
        e2 = Embedding(A, C, tuple((a, cmap[a]) for a in A.universe))
        out = amalgamate(A, B, C, e1, e2)
        D = out.result
        assert validate(D).ok
        assert D.size <= B.size + C.size - A.size
        # the two routes from A agree
        for a in A.universe:
            assert out.embed_b(e1(a)) == out.embed_c(e2(a))
        # restricting D along either embedding reproduces the part
        for part, emb in ((B, out.embed_b), (C, out.embed_c)):
            sub = D.restrict(emb.image())
            for i in range(part.n):
                for x, y in itertools.permutations(part.universe, 2):
                    assert part.less(i, x, y) == sub.less(i, emb(x), emb(y))


def amalgam_compatible_c(rng, A, cmap):
    """A 4-point 2-multi-order containing cmap images of A in A's order."""
    mo = MultiOrder(A.n, tuple(cmap[a] for a in A.universe),
                    tuple(tuple(cmap[a] for a in o) for o in A.orders))
    for _ in range(2):
        spec = ExtensionSpec(tuple(rng.randrange(mo.size + 1)
                                   for _ in range(A.n)))
        mo = one_point_extend(mo, spec)
    return mo


def test_amalgamate_rejects_non_embedding():
    A = MultiOrder(2, ("a", "b"), (("a", "b"), ("a", "b")))
    B = opposed(("a", "b"))
    e_bad = Embedding(A, B, (("a", "a"), ("b", "b")))
    with pytest.raises(MultiOrderError):
        amalgamate(A, B, B, e_bad, e_bad)


def test_one_point_extend_top():
    mo = opposed(("a", "b"))
    out = one_point_extend(mo, ExtensionSpec((2, 2)))
    assert validate(out).ok and out.size == 3
    new = out.universe[-1]
    assert out.orders[0][-1] == new and out.orders[1][-1] == new


def test_one_point_extend_middle_preserves_base():
    mo = opposed()
    out = one_point_extend(mo, ExtensionSpec((2, 1)))
    assert validate(out).ok
    sub = out.restrict(mo.universe)
    assert sub.orders == mo.orders


def test_one_point_extend_out_of_range():
    mo = opposed(("a", "b"))
    with pytest.raises(MultiOrderError):
        one_point_extend(mo, ExtensionSpec((3, 0)))


def test_one_point_extend_never_fails_in_range():
    for size in range(4):
        mo = generate_generic(2, size, seed=size)
        for spec in itertools.product(range(size + 1), repeat=2):
            out = one_point_extend(mo, ExtensionSpec(spec))
            assert validate(out).ok and out.size == size + 1


# ---------------------------------------------------------------------------
# Generic generation and the extension property


def test_generate_generic_one_order_is_chain():
    mo = generate_generic(1, 7, seed=42)
    assert validate(mo).ok and mo.orders[0] == mo.universe or \
        set(mo.orders[0]) == set(mo.universe)
    assert mo.n == 1 and mo.size == 7


def test_generate_generic_deterministic():
    a = generate_generic(2, 16, seed=9)
    b = generate_generic(2, 16, seed=9)
    assert a == b and validate(a).ok


def test_generate_generic_respects_cap():
    with pytest.raises(BudgetExceededError):
        generate_generic(2, 100, seed=0, size_cap=64)


def test_extension_property_level_zero():
    assert extension_property_level(opposed(("a", "b")), 0)


def test_extension_property_chain_fails_at_one():
    chain3 = MultiOrder(1, (0, 1, 2), ((0, 1, 2),))
    assert not extension_property_level(chain3, 1)


def test_extension_property_level_one_fails_on_finite_samples():
    # no finite sample is fully generic: nothing sits below the minimum of
    # order 0, so the all-below spec over that singleton is never realized
    for s in range(5):
        assert not extension_property_level(generate_generic(2, 64, seed=s), 1)


def test_interior_singleton_specs_usually_realized():
    # away from the extremes, large random samples do realize every
    # one-point spec over a singleton; quantify that directly
    mo = generate_generic(2, 64, seed=3)
    pos = [mo.positions(i) for i in range(2)]
    interior = [b for b in mo.universe
                if all(0 < pos[i][b] < mo.size - 1 for i in range(2))]
    realized_everywhere = 0
    for s in interior:
        got = {tuple(int(pos[i][b] > pos[i][s]) for i in range(2))
               for b in mo.universe if b != s}
        realized_everywhere += got == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert realized_everywhere >= 0.6 * len(interior)


# ---------------------------------------------------------------------------
# n-MOP witness checks


def test_mop_chain_in_dlo_all_cuts_definable():
    chain3 = MultiOrder(1, ("a", "b", "c"), (("a", "b", "c"),))
    ctx = DloContext(1)
    g = tuple((b, (Fraction(i),)) for i, b in enumerate(chain3.universe))
    phi = parse_partitioned("x0 ; w : x0 < w")
    report = check_mop_witness(PictureWitness(chain3, ctx, g, phi))
    assert report.complete and report.definable == report.total == 4


def test_mop_opposed_orders_in_one_chain_misses_cuts():
    mo = opposed(("a", "b"))
    ctx = DloContext(1)
    g = (("a", (Fraction(0),)), ("b", (Fraction(1),)))
    phi = parse_partitioned("x0 ; w : x0 < w")
    report = check_mop_witness(PictureWitness(mo, ctx, g, phi))
    assert report.status == "exhaustive"
    assert report.total == 9 and report.missing
    assert report.definable < report.total


def test_mop_empty_source_complete():
    empty = MultiOrder(1, (), ((),))
    ctx = DloContext(1)
    phi = parse_partitioned("x0 ; w : x0 < w")
    report = check_mop_witness(PictureWitness(empty, ctx, (), phi))
    assert report.complete and report.total == 1


def test_mop_budget_reported():
    chain3 = MultiOrder(1, ("a", "b", "c"), (("a", "b", "c"),))
    ctx = DloContext(1)
    g = tuple((b, (Fraction(i),)) for i, b in enumerate(chain3.universe))
    phi = parse_partitioned("x0 ; w : x0 < w")
    report = check_mop_witness(PictureWitness(chain3, ctx, g, phi), budget=3)
    assert report.status == "budget"


def reference_mop(w, budget=None):
    """The multi-order-property check read straight off its definition: a
    multi-cut is definable iff each of its sets is the trace of some
    parameter tuple."""
    B, ctx, gmap = w.source, w.context(), dict(w.point_map)
    extra = sorted({v for img in gmap.values() for v in img})
    traces, used, status = set(), 0, "exhaustive"
    for b in ctx.witness_params(w.phi, extra=extra):
        if budget is not None and used + B.size > budget:
            status = "budget"
            break
        traces.add(frozenset(a for a in B.universe if ctx.holds(w.phi, gmap[a], b)))
        used += B.size
    missing = tuple(z for z in enumerate_multicuts(B)
                    if not all(x in traces for x in multicut_sets(B, z)))
    total = (B.size + 1) ** B.n
    return MopReport(total, total - len(missing), missing, status)


MOP_PHIS = ("x0 ; y : x0 < y", "x0 ; y : y < x0", "x0 ; y : x0 = y")


def test_mop_matches_reference_on_random_multiorders():
    rng = random.Random(1307)
    for k in range(300):
        mo = random_multiorder(rng, 1 + k % 3, rng.randrange(7))
        text = MOP_PHIS[k % 3]
        if k % 2:
            host = chain(mo.size + 3)
            images = rng.sample(host.universe, mo.size)
            phi = parse_partitioned(text, CHAIN_SIG)
        else:
            host = DloContext(1)
            images = rng.sample([Fraction(v, 2) for v in range(-6, 7)], mo.size)
            phi = parse_partitioned(text)
        w = PictureWitness(mo, host, tuple((a, (v,)) for a, v in zip(mo.universe, images)), phi)
        # a budget that stops the trace loop after some candidates but not all
        mid = mo.size * rng.randrange(1, 4) + rng.randrange(mo.size + 1)
        for budget in (None, 0, mid):
            assert check_mop_witness(w, budget) == reference_mop(w, budget), (k, budget)


def test_picture_witness_requires_injectivity():
    mo = opposed(("a", "b"))
    ctx = DloContext(1)
    g = (("a", (Fraction(0),)), ("b", (Fraction(0),)))
    phi = parse_partitioned("x0 ; w : x0 < w")
    with pytest.raises(MultiOrderError):
        PictureWitness(mo, ctx, g, phi)


# ---------------------------------------------------------------------------
# Coordinatewise comparability


def test_pairwise_comparable_known_failure():
    ok, counter = pairwise_comparable([(0, 1), (0, 2)])
    assert not ok and counter == ((0, 1), (0, 2), 0)


def test_pairwise_comparable_distinct_coordinates():
    ok, counter = pairwise_comparable([(0, 5), (1, 3), (2, 4)])
    assert ok and counter is None


def test_pairwise_comparable_single_point():
    assert pairwise_comparable([(1, 2)]) == (True, None)


def test_pairwise_comparable_rejects_duplicates():
    with pytest.raises(MultiOrderError):
        pairwise_comparable([(0, 1), (0, 1)])


# ---------------------------------------------------------------------------
# Conversion and serialization


def test_as_structure_orders_match():
    mo = opposed(("a", "b", "c"))
    m = as_structure(mo)
    assert ("a", "b") in m.relations["<0"]
    assert ("b", "a") in m.relations["<1"]
    assert ("a", "a") not in m.relations["<0"]


def test_multiorder_json_round_trip():
    mo = generate_generic(2, 5, seed=21)
    again = multiorder_from_dict(multiorder_to_dict(mo))
    assert again == mo


def test_multiorder_from_dict_rejects_bad_orders():
    doc = {"n": 1, "universe": ["a", "b"], "orders": [["a", "a"]]}
    with pytest.raises(MultiOrderError):
        multiorder_from_dict(doc)
