"""The four benchmark workloads.

A workload makes one *pass* of inputs at a time from a seeded generator and
turns it into queries.  Every pass has the same fixed mix of query templates
and input sizes, so the work in a pass hardly depends on the seed or the
pass; the seed chooses the random relations, element labels and their
listing order, rational constants, multi-orders and witness grids, and the
order in which a few cheap command-line templates take turns.

``generate(rng, index, workdir, seed_text)`` writes the pass's structure, multi-order
and pattern files and returns plain data (paths and formula texts).
``build(api, inputs, index)`` loads and parses them and constructs the
contexts, returning ``Query`` objects.  ``api`` holds the opdim modules;
every engine call looks its function up on the module at call time, which is
what lets the traced run substitute recording wrappers.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import oracle


@dataclass
class Query:
    label: str
    run: Callable[[], Any]
    # check(answer, peers) -> None when right, else the reason; peers maps
    # the keys of the pass's queries to their answers
    check: Callable[[Any, dict], Optional[str]]
    key: Any = None
    # a Defect of the program this query is known to show, or None
    defect: Optional["Defect"] = None


@dataclass(frozen=True)
class Defect:
    """A known defect of the program.  Its queries stay in the inputs and are
    checked like any other; a wrong answer whose reason matches `symptom` is
    counted and listed as this defect, any other wrong answer as a failure."""
    note: str
    symptom: str   # a regular expression searched for in the check's reason

    def shows(self, reason):
        return re.search(self.symptom, reason) is not None


# ROADMAP item 1: the symbolic engine draws every parameter of a
# 2-parameter formula from one grid point per gap, so ranks on Q come out
# below the rank of the same formula on a finite chain
TWO_PARAMETER_RANK = Defect(
    "ROADMAP item 1, 2-parameter formula over Q",
    r"(is below .* the rank of the same formula on the \d+-element chain"
    r"|^rank: got exact \d+, expected at_least \d+$"
    r"|^consistent=False, expected True$)")
# ROADMAP item 5: a division by zero in a constant escapes the parser
ZERO_DIVISION_EXIT = Defect("ROADMAP item 5, constant 1/0 exits 1",
                            r"^unexpected exit 1, expected 2 \(ZeroDivisionError")


def cycled(values, seed_text, index):
    """values[...] in a seeded order, cycled by pass index: over a run every
    value comes up equally often whatever the seed."""
    order = random.Random(seed_text).sample(list(values), len(values))
    return order[index % len(order)]


def rationals(rng, k):
    """k distinct seeded rationals in increasing order."""
    out = set()
    while len(out) < k:
        out.add(Fraction(rng.randint(-60, 60), rng.randint(1, 7)))
    return sorted(out)


def fill(template, consts):
    """Put seeded constants in for the placeholders c0, c1, ..."""
    return re.sub(r"\bc(\d)\b", lambda m: str(consts[int(m.group(1))]), template)


def write_json(path, doc):
    Path(path).write_text(json.dumps(doc))
    return str(path)


def written(path, doc):
    """(path, doc) after writing doc to path as JSON."""
    return write_json(path, doc), doc


def structure_doc(universe, relation, name):
    return {"signature": {"relations": [{"name": name, "arity": 2}], "constants": []},
            "universe": list(universe), "relations": {name: [list(t) for t in relation]},
            "constants": {}}


def chain_doc(rng, size):
    """A chain with seeded integer labels, its universe listed in seeded order."""
    labels = sorted(rng.sample(range(1000), size))
    universe = rng.sample(labels, size)
    return structure_doc(universe, [(a, b) for a in labels for b in labels if a < b], "<")


def random_r_doc(rng, size):
    universe = list(range(size))
    rel = [(a, b) for a in universe for b in universe if rng.random() < 0.5]
    return structure_doc(universe, rel, "R")


def rank_json(rv):
    return (rv.value, rv.capped)


def expect_rank(got, want, what):
    if got != want:
        return f"{what}: got {fmt_rank(got)}, expected {fmt_rank(want)}"
    return None


def fmt_rank(r):
    return f"at_least {r[0]}" if r[1] else f"exact {r[0]}"


def verify_found(result, checker, expect_found=True):
    """A search result against the expected status; a found pattern must pass
    its exhaustive selector check."""
    if result.status != ("found" if expect_found else "none_exhaustive"):
        return f"status {result.status}, expected {'found' if expect_found else 'none_exhaustive'}"
    if result.found:
        ok, failing = checker(result.pattern)
        if not ok:
            return f"found pattern fails its check at selector {failing}"
    return None


# ---------------------------------------------------------------------------
# finite-sweep


class FiniteSweep:
    """Criteria-1/2 traffic on FiniteContext plus one-off heavy chain queries."""

    name = "finite-sweep"
    # size 5 is the largest group so that the median latency falls inside it
    STRUCTURE_SIZES = (4,) * 6 + (5,) * 11 + (6,) * 6
    # one-off heavy queries: chain sizes per query kind, all in every pass
    CHAINS = {"interval": (12, 18, 24), "ird": (8, 10), "ict": (10, 16), "dprank": (8, 11)}
    DELTAS = ((0,), (1,), (0, 1))
    CAP = 6

    def generate(self, rng, index, workdir, seed_text):
        structures = [written(workdir / f"r{j}.json", random_r_doc(rng, k))
                      for j, k in enumerate(self.STRUCTURE_SIZES)]
        chains = [(kind, write_json(workdir / f"chain-{kind}-{size}.json", chain_doc(rng, size)))
                  for kind, sizes in self.CHAINS.items() for size in sizes]
        return {"structures": structures, "chains": chains}

    def build(self, api, inputs, index):
        queries = []
        for path, doc in inputs["structures"]:
            m = api.logic.load_structure(path)
            ctx = api.contexts.FiniteContext(m)
            phis = (api.logic.parse_partitioned("x ; y : R(x, y)", m.signature),
                    api.logic.parse_partitioned("x ; y : R(y, x)", m.signature))
            queries.append(Query(
                f"pass {index} question set on {Path(path).name} (size {len(doc['universe'])})",
                lambda api=api, ctx=ctx, phis=phis, k=len(doc["universe"]):
                    self.question_set(api, ctx, phis, k),
                lambda answer, peers, doc=doc: self.check_question_set(doc, answer)))
        for kind, path in inputs["chains"]:
            m = api.logic.load_structure(path)
            chain = (api.contexts.FiniteContext(m), m.signature, len(m.universe), Path(path).name)
            queries.append(getattr(self, f"{kind}_query")(api, index, *chain))
        return queries

    def interval_query(self, api, index, ctx, sig, size, name):
        interval = api.logic.parse_partitioned("x ; y z : y < x & x < z", sig)

        def run_interval():
            q = api.ranks.RankQuery(ctx, ctx.top(1), (interval,), n=1, cap=self.CAP)
            return rank_json(api.ranks.op_rank(q)), rank_json(api.ranks.shelah_rank2(q))

        return Query(
            f"pass {index} interval formula op_rank/shelah_rank2 on {name} (size {size})",
            run_interval,
            lambda a, p: self.check_interval(a, size))

    def check_interval(self, answer, size):
        want = oracle.chain_rank(size, lambda x, y, z: y < x < z, 2, self.CAP)
        return expect_rank(answer[0], want, "op_rank") or expect_rank(answer[1], want, "shelah_rank2")

    def ird_query(self, api, index, ctx, sig, size, name):
        lt = api.logic.parse_partitioned("x ; y : x < y", sig)
        # a chain is dp-minimal: one variable cannot carry two threshold rows
        return Query(
            f"pass {index} search_ird depth 2 on {name} (size {size})",
            lambda: api.patterns.search_ird(ctx, ctx.top(1), [lt], 2, length=2),
            lambda a, p: verify_found(a, api.patterns.check_ird, expect_found=False))

    def ict_query(self, api, index, ctx, sig, size, name):
        eq = api.logic.parse_partitioned("x ; y : x = y", sig)
        return Query(
            f"pass {index} search_ict depth 1 on {name} (size {size})",
            lambda: api.patterns.search_ict(ctx, ctx.top(1), [eq], 1, length=3),
            lambda a, p: verify_found(a, api.patterns.check_ict))

    def dprank_query(self, api, index, ctx, sig, size, name):
        pool = [api.logic.parse_partitioned(t, sig) for t in ("x ; y : x < y", "x ; y : x = y")]
        return Query(
            f"pass {index} dp_rank_lower on {name} (size {size})",
            lambda: api.patterns.dp_rank_lower(ctx, ctx.top(1), pool, 2, length=2),
            lambda a, p: None if a == 1 else f"dp_rank_lower {a}, expected 1 (chains are dp-minimal)")

    def question_set(self, api, ctx, phis, k):
        """Every rank and branching question of criteria 1-2 on one structure."""
        ranks, FinSet = api.ranks, api.contexts.FinSet
        out = []
        for mask in range(1, 1 << k):
            s = FinSet(1, mask)
            for d in self.DELTAS:
                delta = tuple(phis[i] for i in d)
                for n in (1, 2):
                    out.append(rank_json(ranks.op_rank(ranks.RankQuery(ctx, s, delta, n=n, cap=self.CAP))))
                out.append(rank_json(ranks.shelah_rank2(ranks.RankQuery(ctx, s, delta, cap=self.CAP))))
            for phi in phis:
                for n in (1, 2):
                    for beta in (1, 2):
                        out.append(ranks.gamma_consistent(ctx, s, phi, n, beta)[0])
        return out

    def expected_question_set(self, doc):
        universe = doc["universe"]
        rel = {tuple(t) for t in doc["relations"]["R"]}
        masks = (oracle.instance_masks(universe, lambda x, y: (x, y) in rel, 1),
                 oracle.instance_masks(universe, lambda x, y: (y, x) in rel, 1))
        engines = {(d, n): oracle.MaskRanks([m for i in d for m in masks[i]], n)
                   for d in self.DELTAS for n in (1, 2)}
        single = {(i, n): engines[((i,), n)] for i in (0, 1) for n in (1, 2)}
        out = []
        for mask in range(1, 1 << len(universe)):
            for d in self.DELTAS:
                for n in (1, 2):
                    out.append(engines[(d, n)].rank(mask, self.CAP))
                out.append(engines[(d, 1)].rank(mask, self.CAP))
            for i in (0, 1):
                for n in (1, 2):
                    for beta in (1, 2):
                        out.append(single[(i, n)].at_least(mask, beta))
        return out

    def check_question_set(self, doc, answer):
        want = self.expected_question_set(doc)
        if len(answer) != len(want):
            return f"{len(answer)} answers, expected {len(want)}"
        for i, (a, w) in enumerate(zip(answer, want)):
            if a != w:
                return f"answer {i}: got {a}, expected {w}"
        return None


# ---------------------------------------------------------------------------
# dlo-cells


class DloCells:
    """Cell enumeration and projection on (Q,<): dimension of products, QE,
    order diagrams.  No context, rank or pattern code runs."""

    name = "dlo-cells"
    # (left, m0, right, m1): products of criterion-7-style formulas
    PRODUCTS = (
        ("x0 < x1", 2, "c0 < x0 & x0 < c1 & c0 < x1 & x1 < c1", 2),
        ("x0 = c0 & c0 < x1", 2, "x0 < x1 & x1 < c1", 2),
        ("x0 = c0 & x1 = c1", 2, "x0 = x1", 2),
        ("x0 = c1 | x1 = c0", 2, "x0 = x1 | x0 < c0", 2),
        ("x0 < x1 & x1 < c1", 2, "x0 = x1 & x0 < c0", 2),
        ("x0 < c0 & x1 < c0", 2, "x0 = c1 | x1 = c0", 2),
        ("x0 < c1", 1, "x0 = c0 & c0 < x1", 2),
        ("c0 < x0 & x0 < c1", 1, "x0 < x1 | x1 < x0", 2),
        ("x0 = c0 | x0 = c1", 1, "x0 = x1 & x0 < c0", 2),
        ("x0 < c0 | c1 < x0", 1, "x0 = c1 | x1 = c0", 2),
        ("x0 < x1", 2, "c0 < x0", 1),
        ("x0 = x1 | x0 < c0", 2, "x0 = c0", 1),
        ("x0 < c0 & c1 < x0", 1, "x0 < x1", 2),
        ("x0 < c1", 1, "c0 < x0 & x0 < c1", 1),
        ("x0 = c0", 1, "x0 < c0 | c1 < x0", 1),
        ("c0 < x0", 1, "x0 = c0 | x0 = c1", 1),
        ("x0 < c0 | c1 < x0", 1, "c0 < x0 & x0 < c1", 1),
    )
    CELLS = (("x0 < x1 & x1 < x2", 3), ("x0 = x1 | x1 = x2", 3),
             ("x0 < c1 & c0 < x1", 3), ("x0 = x1 | x0 < c0", 2),
             ("x0 = c1 | x1 = c0", 2), ("x0 < c0 | c1 < x0", 1))

    def generate(self, rng, index, workdir, seed_text):
        consts = rationals(rng, 2)
        products = [[(fill(t, consts), t, m) for t, m in ((left, m0), (right, m1))]
                    for left, m0, right, m1 in self.PRODUCTS]
        qe = [fill(t, consts) for t in oracle.QE_TEMPLATES]
        cells = [(fill(t, consts), t, m) for t, m in self.CELLS]
        return {"consts": [str(c) for c in consts], "products": products,
                "qe": list(zip(qe, oracle.QE_TEMPLATES)), "cells": cells}

    def build(self, api, inputs, index):
        dlo, parse = api.dlo, api.logic.parse_formula
        consts = [Fraction(c) for c in inputs["consts"]]
        queries = []
        for (t0, k0, m0), (t1, k1, m1) in inputs["products"]:
            f, g = parse(t0), parse(t1)
            want = oracle.product_dimension(oracle.DIMENSIONS[(k0, m0)],
                                            oracle.DIMENSIONS[(k1, m1)])
            queries.append(Query(
                f"pass {index} dimension of ({t0}) x ({t1}), {m0 + m1} variables",
                lambda f=f, g=g, m0=m0, m1=m1:
                    dlo.dimension(dlo.product(f, m0, g, m1), m0 + m1, method="both").dimension,
                lambda a, p, want=want: None if a == want else f"dimension {a}, expected {want}"))
        for text, template in inputs["qe"]:
            f = parse(text)
            predicate = oracle.QE_TEMPLATES[template]
            queries.append(Query(
                f"pass {index} qe_dlo {text}",
                lambda f=f: dlo.qe_dlo(f),
                lambda a, p, pr=predicate: self.check_qe(a, pr, consts)))
        for text, template, m in inputs["cells"]:
            f = parse(text)
            variables = [f"x{i}" for i in range(m)]
            queries.append(Query(
                f"pass {index} order_diagrams {text}",
                lambda f=f, v=variables: dlo.order_diagrams(f, v),
                lambda a, p, f=f, v=variables: self.check_cells(a, f, v)))
        return queries

    @staticmethod
    def check_qe(answer, predicate, consts):
        if oracle.has_quantifier(answer):
            return "output still has a quantifier"
        bad = oracle.equivalent_on_grid(answer, lambda e: predicate(e, consts), ["x", "z"], consts)
        return None if bad is None else f"output differs from the input at {bad}"

    @staticmethod
    def check_cells(answer, f, variables):
        want = oracle.order_types(variables, oracle.q_constants(f), lambda e: oracle.q_holds(f, e))
        if len(answer) != want:
            return f"{len(answer)} diagrams, expected {want}"
        for d in answer:
            if not oracle.q_holds(f, d.sample()):
                return f"diagram {d} is outside the set"
        return None


# ---------------------------------------------------------------------------
# dlo-rank


class DloRank:
    """The dlo module reached incrementally through DloContext: symbolic ranks,
    op-dimension, branching systems, pattern search and witnesses."""

    name = "dlo-rank"
    CHAIN = 12   # the finite chain whose rank bounds the Q rank from below
    # (engine, template, cap)
    RANKS = (
        ("op_rank", "x0 ; y : x0 < y", 8),
        ("op_rank", "x0 ; y : y < x0 & x0 < c0", 6),
        ("shelah_rank2", "x0 ; y : x0 < y | x0 = c0", 6),
        ("shelah_rank2", "x0 ; y : x0 < y", 6),
        ("op_rank", "x0 ; y : x0 = y", 8),
        ("op_rank", "x0 ; y : x0 = y | x0 = c0", 6),
        ("op_rank", "x0 ; y z : x0 = y | x0 = z", 6),
    ) + tuple((engine, template, 4) for template in oracle.Q_RANKS
              for engine in ("op_rank", "shelah_rank2"))
    OPD = ("x0 ; y : x0 < y", "x0 ; y : y < x0 & x0 < c0", "x0 ; y : x0 = y | x0 = c0",
           "x0 ; y z : x0 = y | x0 = z")
    # (template, n, beta)
    GAMMA = (("x0 ; y : x0 < y", 1, 2), ("x0 ; y : x0 = y", 1, 2),
             ("x0 ; y : y < x0 & x0 < c0", 2, 1), ("x0 ; y : x0 = y | x0 = c0", 2, 1),
             ("x0 ; y : c0 < x0 & x0 < y", 1, 2), ("x0 ; y z : y < x0 & x0 < z", 1, 2))
    WITNESSES = (("x0 < x1 & x1 < c1", 2, 4), ("x0 = x1 | x0 < c0", 2, 2),
                 ("x0 < c1 & c0 < x1", 3, 2), ("x0 = x1 & x2 < c0", 3, 2))

    def generate(self, rng, index, workdir, seed_text):
        consts = rationals(rng, 2)
        return {"consts": [str(c) for c in consts],
                "grid": [str(v) for v in rationals(rng, 3)],
                "witness": [(fill(t, consts), t, m, length)
                            for t, m, length in self.WITNESSES]}

    def build(self, api, inputs, index):
        logic, ranks, patterns, dlo = api.logic, api.ranks, api.patterns, api.dlo
        consts = [Fraction(c) for c in inputs["consts"]]
        ctx = dlo.DloContext(1)
        phi = {t: logic.parse_partitioned(fill(t, consts)) for t in oracle.Q_RANKS}
        queries = []
        for engine, template, cap in self.RANKS:
            want = oracle.expected_q_rank(template, cap)
            queries.append(Query(
                f"pass {index} {engine} cap {cap} of {fill(template, consts)}",
                lambda e=engine, t=template, cap=cap: rank_json(getattr(ranks, e)(
                    ranks.RankQuery(ctx, ctx.top(), (phi[t],), cap=cap))),
                lambda a, p, t=template, cap=cap, want=want: self.check_rank(a, t, cap, want),
                defect=two_parameter(template)))
        for template in self.OPD:
            want = oracle.Q_RANKS[template]["opd"]
            queries.append(Query(
                f"pass {index} localized_opd of {fill(template, consts)}",
                lambda t=template: ranks.localized_opd(ctx, ctx.top(), [phi[t]], cap=4, max_n=3),
                lambda a, p, want=want: None if a == want else f"op-dimension {a}, expected {want}"))
        for template, n, beta in self.GAMMA:
            true = oracle.Q_RANKS[template][f"n{n}"]
            want = true is None or true >= beta
            queries.append(Query(
                f"pass {index} gamma_consistent n={n} beta={beta} of {fill(template, consts)}",
                lambda t=template, n=n, beta=beta: ranks.gamma_consistent(ctx, ctx.top(), phi[t], n, beta)[0],
                lambda a, p, want=want: None if a == want else f"consistent={a}, expected {want}",
                defect=two_parameter(template)))
        ctx2 = dlo.DloContext(2)
        grid = [(Fraction(g),) for g in inputs["grid"]]
        # Q^2 has threshold rows in the cuts x_i < w and single-hit rows in x_i = w
        for search, checker, relation in ((patterns.search_ird, patterns.check_ird, "<"),
                                          (patterns.search_ict, patterns.check_ict, "=")):
            pool = [logic.parse_partitioned(f"x0 x1 ; w : x{i} {relation} w") for i in (0, 1)]
            queries.append(Query(
                f"pass {index} {search.__name__} depth 2 over x_i {relation} w on Q^2, "
                f"grid {inputs['grid']}",
                lambda s=search, pool=pool: s(ctx2, ctx2.top(), pool, 2, length=2, witness_grid=grid),
                lambda a, p, c=checker: verify_found(a, c)))
        for text, template, m, length in inputs["witness"]:
            f = logic.parse_formula(text)
            queries.append(Query(
                f"pass {index} ird_witness_from_dim -> ird_to_ict -> check_ict on {text}",
                lambda f=f, m=m, length=length: self.witness_chain(api, f, m, length),
                lambda a, p, want=oracle.DIMENSIONS[(template, m)]: self.check_witness(api, a, want)))
        return queries

    def check_rank(self, answer, template, cap, want):
        reason = expect_rank(answer, want, "rank")
        if template in oracle.Q_PREDICATES:
            bound = chain_bound(template, self.CHAIN, cap)
            if answer[0] < bound[0] and not answer[1]:
                reason = (f"rank {fmt_rank(answer)} is below {fmt_rank(bound)}, the rank "
                          f"of the same formula on the {self.CHAIN}-element chain")
        return reason

    @staticmethod
    def witness_chain(api, f, m, length):
        ird = api.dlo.ird_witness_from_dim(f, m, length=length)
        if ird is None:
            return None
        return ird, api.patterns.check_ict(api.patterns.ird_to_ict(ird))

    @staticmethod
    def check_witness(api, answer, want):
        if answer is None:
            return None if not want else f"no witness, expected depth {want}"
        ird, (ok, failing) = answer
        if ird.depth != want:
            return f"witness depth {ird.depth}, expected {want}"
        if not api.patterns.check_ird(ird)[0]:
            return "witness pattern fails check_ird"
        return None if ok else f"transformed pattern fails check_ict at {failing}"


def two_parameter(template):
    """The known defect a formula template with two parameters shows on Q."""
    return TWO_PARAMETER_RANK if " ; y z :" in template else None


@functools.lru_cache(maxsize=None)
def chain_bound(template, size, cap):
    k, predicate = oracle.Q_PREDICATES[template]
    return oracle.chain_rank(size, predicate, k, cap)


# ---------------------------------------------------------------------------
# cli-mix


# the reason given for a command that exits with an unexpected code
UNEXPECTED_EXIT = "unexpected exit"


@dataclass
class CliRun:
    code: int
    out: str
    err: str


def run_cli(api, argv):
    """opdim.cli.main in-process; an uncaught exception is exit 1, as it is
    for the installed command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = api.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return CliRun(code, out.getvalue(), err.getvalue())


def parse_report(run, fmt):
    """(result, hash) from a successful run's standard output."""
    if fmt == "json":
        doc = json.loads(run.out)
        return doc["result"], doc["hash"]
    result, digest = {}, None
    for line in run.out.splitlines():
        key, value = line.split(": ", 1)
        if key == "hash":
            digest = value
        else:
            result[key] = json.loads(value)
    return result, digest


def multiorder_doc(rng, n, size, names):
    return {"n": n, "universe": list(names),
            "orders": [rng.sample(list(names), size) for _ in range(n)]}


class CliMix:
    """Every subcommand of the command line, in both output formats, with a
    small share of malformed and over-budget argument lists."""

    name = "cli-mix"
    FAULTS = (
        (["rank", "dlo", "--delta", "x0 y : x0 < y"], 2),
        (["mo", "cuts", "{missing}"], 2),
        (["mo", "gen", "-n", "2", "--size", "5000"], 3),
        (["rank", "dlo", "--delta", "x0 ; a b c d e : x0 < a & 1 < b & 2 < c & 3 < d & 4 < e",
          "--cap", "2"], 3),
        (["omin", "dim", "x0 < 1"], 2),
    )
    QE = tuple(oracle.QE_TEMPLATES)

    def generate(self, rng, index, workdir, seed_text):
        consts = rationals(rng, 2)
        docs = {"r": random_r_doc(rng, 5), "chain": chain_doc(rng, 10), "chain6": chain_doc(rng, 6),
                "mo": multiorder_doc(rng, 2, 16, [f"a{j}" for j in rng.sample(range(100), 16)]),
                "mo_big": multiorder_doc(rng, 3, 40, [f"b{j}" for j in range(40)])}
        # B and C are restrictions of one multi-order, so they agree on the shared part
        whole = multiorder_doc(rng, 2, 14, [f"u{j}" for j in range(14)])
        shared = set(rng.sample(whole["universe"], 4))
        rest = [u for u in whole["universe"] if u not in shared]
        for side, part in (("left", rest[:5]), ("right", rest[5:])):
            keep = shared | set(part)
            docs[side] = {"n": 2, "universe": [u for u in whole["universe"] if u in keep],
                          "orders": [[u for u in o if u in keep] for o in whole["orders"]]}
        w = rationals(rng, 3)
        for name, formula in (("ict_good", "x0 ; w : x0 = w"), ("ict_bad", "x0 ; w : x0 < w")):
            docs[name] = {"depth": 1, "length": 3, "formulas": [formula],
                          "witnesses": [[[str(v)] for v in w]]}
        files = {k: write_json(workdir / f"{k}.json", doc) for k, doc in docs.items()}
        dims = [(t, m) for t, m in oracle.DIMENSIONS if m <= 2]
        pick = lambda tag: cycled(dims, f"{seed_text}-{tag}", index)
        left, right = pick("left"), pick("right")
        return {
            "consts": [str(c) for c in consts], "files": files, "docs": docs,
            "missing": str(workdir / "missing.json"),
            "qe": cycled(self.QE, f"{seed_text}-qe", index),
            "cells": pick("cells"), "dim": pick("dim"), "witness": pick("witness"),
            "product": (left, right),
            "gen": (3, 60, rng.randint(0, 999)),
            "grid": [str(v) for v in rationals(rng, 2)],
            "fault": self.FAULTS[index % len(self.FAULTS)],
        }

    def build(self, api, inputs, index):
        consts = [Fraction(c) for c in inputs["consts"]]
        files, docs = inputs["files"], inputs["docs"]
        cases = []   # (argv, expected exit code, result check or None[, known defect])

        for formula, flip, n in (("x ; y : R(x, y)", False, 1), ("x ; y : R(y, x)", True, 2)):
            cases.append((["rank", files["r"], "--delta", formula, "-n", str(n)], 0,
                          lambda r, flip=flip, n=n: rank_field(r, r_structure_rank(docs["r"], flip, n))))
        chain_size = len(docs["chain"]["universe"])
        cases.append((["rank", files["chain"], "--delta", "x ; y : x < y", "--shelah", "--cap", "8"], 0,
                      lambda r: rank_field(r, oracle.chain_rank(chain_size, lambda x, y: x < y, 1, 8))))
        for template in ("x0 ; y z : y < x0 & x0 < z", "x0 ; y : y < x0 & x0 < c0"):
            cases.append((["rank", "dlo", "--delta", fill(template, consts), "--cap", "4"], 0,
                          lambda r, want=oracle.expected_q_rank(template, 4): rank_field(r, want),
                          two_parameter(template)))
        cases.append((["opdim", "dlo", "--delta", "x0 ; y : x0 < y", "--cap", "4", "--max-n", "3"], 0,
                      lambda r: field(r, "opdim", 1)))
        cases.append((["dprank", files["chain6"], "--pool", "x ; y : x = y", "--cap", "2",
                       "--length", "2"], 0, lambda r: field(r, "dp_rank_lower", 1)))
        cases.append((["ird", "dlo", "--pool", "x0 ; w : x0 < w", "--depth", "1", "--length", "2",
                       "--grid=" + ",".join(inputs["grid"])], 0,
                      lambda r: field(r, "status", "found") or field(r["pattern"], "depth", 1)))
        cases.append((["ict", "dlo", "--check", files["ict_good"]], 0, lambda r: field(r, "verified", True)))
        cases.append((["ict", "dlo", "--check", files["ict_bad"]], 0, lambda r: field(r, "verified", False)))
        n, size, seed = inputs["gen"]
        cases.append((["mo", "gen", "-n", str(n), "--size", str(size), "--seed", str(seed)], 0,
                      lambda r, n=n, size=size: check_generated(r["multiorder"], n, size)))
        for key in ("mo", "mo_big"):
            cases.append((["mo", "cuts", files[key]], 0,
                          lambda r, doc=docs[key]: field(r, "count", oracle.multicut_count(doc))))
            cases.append((["mo", "moptest", files[key]], 0,
                          lambda r, doc=docs[key]: check_moptest(r, doc)))
        doc = docs["mo"]
        cases.append((["mo", "embed", files["mo"]], 0,
                      lambda r, doc=doc: field(r, "verified", True) or
                      (None if oracle.grid_map_ok(doc, r["map"]) else "map is not a grid embedding")))
        cases.append((["mo", "extcheck", files["mo"], "-k", "1"], 0,
                      lambda r, doc=doc: field(r, "satisfied", oracle.extension_level_one(doc))))
        cases.append((["mo", "amalgamate", files["left"], files["right"]], 0,
                      lambda r, b=docs["left"], c=docs["right"]: check_amalgam(r, b, c)))
        text = fill(inputs["qe"], consts)
        cases.append((["omin", "qe", text], 0, lambda r, t=inputs["qe"]: self.check_qe(api, r, t, consts)))
        t, m = inputs["cells"]
        text = fill(t, consts)
        cases.append((["omin", "cells", text], 0, lambda r, text=text:
                      self.check_cells(api, r, text)))
        t, m = inputs["dim"]
        want = oracle.DIMENSIONS[(t, m)]
        cases.append((["omin", "dim", fill(t, consts), "-m", str(m)], 0,
                      lambda r, want=want: field(r, "dim", "empty" if want is None else want)))
        t, m = inputs["witness"]
        want = oracle.DIMENSIONS[(t, m)]
        cases.append((["omin", "irdwitness", fill(t, consts), "-m", str(m)], 0,
                      lambda r, want=want: check_irdwitness(r, want)))
        (t0, m0), (t1, m1) = inputs["product"]
        d0, d1 = oracle.DIMENSIONS[(t0, m0)], oracle.DIMENSIONS[(t1, m1)]
        cases.append((["omin", "prodcheck", fill(t0, consts), fill(t1, consts), "-m", str(m0),
                       "-m1", str(m1)], 0,
                      lambda r, d0=d0, d1=d1: check_prodcheck(r, d0, d1)))
        # an input error the parser lets through as ZeroDivisionError
        cases.append((["omin", "dim", "x0 < 1/0", "-m", "1"], 2, None, ZERO_DIVISION_EXIT))
        argv, code = inputs["fault"]
        cases.append(([a.replace("{missing}", inputs["missing"]) for a in argv], code, None))

        queries = []
        for i, (argv, code, check, *defect) in enumerate(cases):
            for fmt in ("text", "json"):
                full_argv = argv + ["--format", fmt]
                queries.append(Query(
                    f"pass {index} opdim {' '.join(full_argv)}",
                    lambda a=full_argv: run_cli(api, a),
                    lambda run, peers, i=i, fmt=fmt, code=code, check=check:
                        self.check_run(run, peers, i, fmt, code, check),
                    key=(i, fmt), defect=defect[0] if defect else None))
        return queries

    @staticmethod
    def check_run(run, peers, i, fmt, code, check):
        if run.code != code:
            tail = run.err.strip().splitlines()[-1:] or [""]
            return f"{UNEXPECTED_EXIT} {run.code}, expected {code} ({tail[0][:120]})"
        if code != 0:
            return None
        result, digest = parse_report(run, fmt)
        if fmt == "text":
            other = peers[(i, "json")]
            if other.code == 0 and parse_report(other, "json")[1] != digest:
                return "text and json reports carry different hashes"
        return check(result) if check else None

    @staticmethod
    def check_qe(api, result, template, consts):
        f = api.logic.parse_formula(result["formula"])
        return DloCells.check_qe(f, oracle.QE_TEMPLATES[template], consts)

    @staticmethod
    def check_cells(api, result, text):
        f = api.logic.parse_formula(text)
        variables = sorted(api.logic.free_vars(f))
        want = oracle.order_types(variables, oracle.q_constants(f), lambda e: oracle.q_holds(f, e))
        return field(result, "count", want)


def r_structure_rank(doc, flip, n, cap=6):
    """The n-rank of a whole R-structure under R(x, y), or R(y, x) if flip."""
    rel = {tuple(t) for t in doc["relations"]["R"]}
    holds = (lambda x, y: (y, x) in rel) if flip else (lambda x, y: (x, y) in rel)
    masks = oracle.instance_masks(doc["universe"], holds, 1)
    return oracle.MaskRanks(masks, n).rank((1 << len(doc["universe"])) - 1, cap)


def field(result, key, want):
    got = result.get(key)
    return None if got == want else f"{key} = {got!r}, expected {want!r}"


def rank_field(result, want):
    got = result["rank"]
    got = (got["at_least"], True) if "at_least" in got else (got["exact"], False)
    return expect_rank(got, want, "rank")


def check_generated(doc, n, size):
    if doc["n"] != n or len(doc["universe"]) != size or len(doc["orders"]) != n:
        return "generated multi-order has the wrong shape"
    for order in doc["orders"]:
        if sorted(order) != sorted(doc["universe"]):
            return "an order is not a permutation of the universe"
    return None


def check_moptest(result, doc):
    return (field(result, "total", oracle.multicut_count(doc))
            or field(result, "definable", oracle.definable_by_first_order_cuts(doc))
            or field(result, "status", "exhaustive"))


def check_amalgam(result, b, c):
    shared = [u for u in b["universe"] if u in set(c["universe"])]
    if result["shared"] != shared:
        return f"shared part {result['shared']}, expected {shared}"
    d = result["multiorder"]
    image = lambda side, u: str(("B", u)) if side == "B" or u in shared else str((side, u))
    if len(d["universe"]) != len(b["universe"]) + len(c["universe"]) - len(shared):
        return "amalgam has the wrong size"
    for side, doc in (("B", b), ("C", c)):
        for order, sub in zip(d["orders"], doc["orders"]):
            if not oracle.restriction_matches(order, [image(side, u) for u in sub]):
                return f"amalgam does not extend {side}"
    return None


def check_irdwitness(result, want):
    if not want:
        return None if result.get("pattern") is None else "witness for a set of dimension 0"
    return (field(result, "verified", True)
            or field(result["pattern"], "depth", want))


def check_prodcheck(result, d0, d1):
    want = {"dim_left": d0, "dim_right": d1, "dim_product": oracle.product_dimension(d0, d1),
            "additive": None if d0 is None or d1 is None else True}
    for key, value in want.items():
        reason = field(result, key, value)
        if reason:
            return reason
    return None


WORKLOADS = {w.name: w for w in (FiniteSweep(), DloCells(), DloRank(), CliMix())}
