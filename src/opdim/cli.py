"""Command-line surface: load structures or the symbolic order, run ranks,
pattern searches, multi-order operations, and dimension computations, and
emit deterministic reports.

Exit codes: 0 success, 2 input error, 3 budget overflow (which includes a
formula nested past Python's recursion limit).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import dlo, multiorder, patterns, ranks
from .contexts import BudgetExceededError, FiniteContext
from .logic import (
    DLO_SIGNATURE, Elem, LogicError, Record, load_structure,
    parse_formula, parse_partitioned, print_formula,
)
from .multiorder import MultiOrderError
from .ranks import InconsistentTypeError, RankQuery

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3

_INPUT_ERRORS = (LogicError, MultiOrderError, dlo.DloError,
                 patterns.PatternError, InconsistentTypeError,
                 OSError, json.JSONDecodeError, ValueError, KeyError)


class CliInputError(Exception):
    pass


def _max_universe():
    raw = os.environ.get("OPDIM_MAX_UNIVERSE", "4096")
    try:
        return int(raw)
    except ValueError:
        raise CliInputError(f"OPDIM_MAX_UNIVERSE={raw!r} is not an integer")


def _load(name, texts, subset=None):
    """Load the context `name` ('dlo' selects the symbolic engine; anything
    else is a structure file) and parse each formula text once against its
    signature.  Returns the context, the structure (None for 'dlo'), the
    partitioned formulas, and the base set: everything of the formulas'
    object sort, cut down by the --subset formula when one is given."""
    if name == "dlo":
        sig, structure = DLO_SIGNATURE, None
    else:
        structure = load_structure(name)
        if len(structure.universe) > _max_universe():
            raise CliInputError(
                f"universe of {len(structure.universe)} exceeds OPDIM_MAX_UNIVERSE")
        sig = structure.signature
    def parse(text):  # `@name` names an element, which need not be a string
        phi = parse_partitioned(text, sig)
        return phi if structure is None else _named(phi, structure)
    formulas = [parse(t) for t in texts]
    where = parse(subset) if subset else None
    # a set over pairs read as a set over elements answers the wrong question
    arities = {len(f.obj_vars) for f in formulas + [where] if f is not None}
    if len(arities) != 1 or where is not None and where.param_vars:
        raise CliInputError("need at least one formula, all of one object sort, and "
                            "a --subset of that sort without parameters")
    arity, = arities
    # looked up on the module at each call, so perfbench/spans.py can trace it
    context = dlo.DloContext(arity) if structure is None else FiniteContext(structure)
    base = context.top(arity)
    if where is not None:
        base = context.restrict(base, where, (), 1)
    return context, structure, formulas, base


def _load_multiorder(path):
    mo = multiorder.load_multiorder(path)
    if mo.size > _max_universe():
        raise CliInputError(f"multi-order of {mo.size} exceeds OPDIM_MAX_UNIVERSE")
    return mo


def _nested_strings(x, depth):
    """Whether x is a list of lists ... `depth` deep with strings at the bottom."""
    if depth == 0:
        return isinstance(x, str)
    return isinstance(x, list) and all(_nested_strings(y, depth - 1) for y in x)


def _parse_value(text, structure):
    """A witness value: a rational for the symbolic engine, otherwise the
    one element of the universe whose name is the text."""
    if structure is None:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise CliInputError(f"value {text!r} has a zero denominator") from None
    named = [e for e in structure.universe if str(e) == str(text)]
    if len(named) != 1:
        why = f"names {len(named)} elements of" if named else "is not in"
        raise CliInputError(f"element {text!r} {why} the universe")
    return named[0]


def _named(x, structure):
    """x, a formula or a part of one, with each `@name` term the element it
    names (see `_parse_value`)."""
    if isinstance(x, Elem):
        return Elem(_parse_value(x.value, structure))
    if isinstance(x, tuple):
        return tuple(_named(y, structure) for y in x)
    if isinstance(x, Record):
        return x._replace(**{k: _named(getattr(x, k), structure) for k in x._fields})
    return x


def _parse_grid(spec, structure):
    if spec is None:
        return None
    return [( _parse_value(v.strip(), structure),) for v in spec.split(",") if v.strip()]


# ---------------------------------------------------------------------------
# Report plumbing


def make_report(command, config, result, elapsed):
    payload = {"command": command, "config": config, "result": result}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return {**payload, "timing": {"seconds": round(elapsed, 6)}, "hash": digest}


def emit(report, fmt):
    if fmt == "json":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for key, value in sorted(report["result"].items()):
            sys.stdout.write(f"{key}: {json.dumps(value, sort_keys=True)}\n")
        sys.stdout.write(f"hash: {report['hash']}\n")


# parsed values that name, route or format a command rather than configure it
_NOT_CONFIG = frozenset({"command", "mo_command", "omin_command", "run", "format", "context"})


def _config(args):
    """A report's config: every other parsed value that is not None."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG and v is not None}


# ---------------------------------------------------------------------------
# Subcommands


def cmd_rank(args):
    context, _, delta, base = _load(args.context, args.delta, args.subset)
    query = RankQuery(context, base, delta, n=args.n, cap=args.cap)
    value = ranks.shelah_rank2(query) if args.shelah else ranks.op_rank(query)
    return {"rank": value.to_json(), "kind": "shelah2" if args.shelah else f"op{args.n}"}


def cmd_opdim(args):
    context, _, delta, base = _load(args.context, args.delta, args.subset)
    value = ranks.localized_opd(context, base, delta, cap=args.cap,
                                max_n=args.max_n)
    return {"opdim": value}


def cmd_dprank(args):
    context, structure, pool, base = _load(args.context, args.pool, args.subset)
    value = patterns.dp_rank_lower(context, base, pool, args.cap,
                                   length=args.length,
                                   witness_grid=_parse_grid(args.grid, structure),
                                   budget=args.budget)
    return {"dp_rank_lower": value}


def cmd_pattern(args):
    """ird or ict: verify the --check pattern file, or search over --pool."""
    ird = args.command == "ird"
    if args.check:
        with open(args.check) as fh:
            doc = json.load(fh)
        # the shape of schemas/pattern.json
        if not (isinstance(doc, dict) and _nested_strings(doc.get("formulas"), 1)
                and _nested_strings(doc.get("witnesses"), 3)):
            raise CliInputError("a pattern file is a JSON object with a 'formulas' list "
                                "of strings and a 'witnesses' list of rows of lists of strings")
        context, structure, formulas, base = _load(args.context, doc["formulas"],
                                                   args.subset)
        witnesses = [[[_parse_value(v, structure) for v in w] for w in row]
                     for row in doc["witnesses"]]
        cls = patterns.IRDPattern if ird else patterns.ICTPattern
        pattern = cls(context, base, formulas, witnesses)
        ok, failing = (patterns.check_ird if ird else patterns.check_ict)(pattern)
        return {"verified": ok,
                "failing_selector": list(failing) if failing else None,
                "depth": pattern.depth, "length": pattern.length}
    context, structure, pool, base = _load(args.context, args.pool or [], args.subset)
    searcher = patterns.search_ird if ird else patterns.search_ict
    result = searcher(context, base, pool, args.depth, length=args.length,
                      witness_grid=_parse_grid(args.grid, structure),
                      budget=args.budget)
    out = {"status": result.status, "checks_used": result.checks_used}
    if result.found:
        out["pattern"] = result.pattern.to_json()
    return out


def cmd_mo(args):
    sub = args.mo_command
    if sub == "gen":
        mo = multiorder.generate_generic(args.n, args.size, args.seed,
                                         size_cap=_max_universe())
        return {"multiorder": multiorder.multiorder_to_dict(mo)}
    mo = _load_multiorder(args.file)
    if sub == "cuts":
        count = (mo.size + 1) ** mo.n  # one cut position per order
        return {"count": count, "expected": count}
    if sub == "embed":
        emb = multiorder.grid_embed(mo)
        ok, why = multiorder.check_embedding(emb)
        return {"map": {str(a): list(img) for a, img in emb.point_map},
                "verified": ok, "reason": why}
    if sub == "amalgamate":
        C = _load_multiorder(args.other)
        shared = tuple(b for b in mo.universe if b in set(C.universe))
        A = mo.restrict(shared)
        ident = lambda T: multiorder.Embedding(A, T, tuple((x, x) for x in shared))
        am = multiorder.amalgamate(A, mo, C, ident(mo), ident(C))
        return {"shared": list(shared),
                "multiorder": multiorder.multiorder_to_dict(am.result)}
    if sub == "extcheck":
        return {"level": args.k,
                "satisfied": multiorder.extension_property_level(mo, args.k)}
    context, structure, (phi,), _ = _load(args.host, [args.phi])  # moptest
    if len(phi.obj_vars) != 1:
        raise CliInputError("--phi must have one object variable")
    # on dlo an element stands at its position in the first order; on a
    # structure file its label must name a host element
    pos = mo.positions(0)
    point_map = tuple(
        (a, (Fraction(pos[a]) if structure is None else _parse_value(a, structure),))
        for a in mo.universe)
    witness = multiorder.PictureWitness(mo, context, point_map, phi)
    report = multiorder.check_mop_witness(witness, budget=args.budget)
    return report.to_json()


def cmd_omin(args):
    sub = args.omin_command
    f = parse_formula(args.formula, DLO_SIGNATURE)
    if sub == "qe":
        return {"formula": print_formula(dlo.qe_dlo(f))}
    if sub == "cells":
        diagrams = dlo.order_diagrams(f)
        return {"count": len(diagrams),
                "cells": [print_formula(d.to_formula()) for d in diagrams]}
    if sub == "dim":
        report = dlo.dimension(f, args.m, method=args.method)
        return report.to_json()
    if sub == "irdwitness":
        pattern = dlo.ird_witness_from_dim(f, args.m, length=args.length)
        if pattern is None:
            return {"pattern": None, "reason": "dimension 0 or empty"}
        # ird_witness_from_dim has checked the pattern: it raises when the check fails
        return {"pattern": pattern.to_json(), "verified": True}
    g = parse_formula(args.other, DLO_SIGNATURE)  # prodcheck
    dim_f = dlo.dimension(f, args.m).dimension
    dim_g = dlo.dimension(g, args.m1).dimension
    prod = dlo.product(f, args.m, g, args.m1)
    dim_p = dlo.dimension(prod, args.m + args.m1).dimension
    additive = None
    if dim_f is not None and dim_g is not None:
        additive = dim_p == dim_f + dim_g
    return {"dim_left": dim_f, "dim_right": dim_g, "dim_product": dim_p,
            "additive": additive}


# ---------------------------------------------------------------------------
# Argument wiring


def _add_common(p, *, cap=True, grid=False, budget=False, length=False):
    p.add_argument("--format", choices=("text", "json"), default="text")
    if cap:
        p.add_argument("--cap", type=int, default=6)
    if grid:
        p.add_argument("--grid", default=None,
                       help="comma-separated witness values")
    if budget:
        p.add_argument("--budget", type=int, default=None)
    if length:
        p.add_argument("--length", type=int, default=3)


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every later
    call: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(prog="opdim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="op-rank or Shelah 2-rank of a subset")
    p.add_argument("context", help="structure file, or 'dlo'")
    p.add_argument("--delta", action="append", required=True,
                   help="partitioned formula 'x ; y : body' (repeatable)")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--subset", default=None)
    p.add_argument("--shelah", action="store_true")
    _add_common(p)
    p.set_defaults(run=cmd_rank)

    p = sub.add_parser("opdim", help="localized op-dimension")
    p.add_argument("context")
    p.add_argument("--delta", action="append", required=True)
    p.add_argument("--subset", default=None)
    p.add_argument("--max-n", dest="max_n", type=int, default=8)
    _add_common(p)
    p.set_defaults(run=cmd_opdim)

    p = sub.add_parser("dprank", help="dp-rank lower bound by pattern search")
    p.add_argument("context")
    p.add_argument("--pool", action="append", required=True)
    p.add_argument("--subset", default=None)
    _add_common(p, grid=True, budget=True, length=True)
    p.set_defaults(run=cmd_dprank)

    for name in ("ird", "ict"):
        p = sub.add_parser(name, help=f"{name} pattern search or verification")
        p.add_argument("context")
        p.add_argument("--pool", action="append")
        p.add_argument("--depth", type=int, default=1)
        p.add_argument("--subset", default=None)
        p.add_argument("--check", default=None, help="verify a pattern JSON file")
        _add_common(p, cap=False, grid=True, budget=True, length=True)
        p.set_defaults(run=cmd_pattern)

    p = sub.add_parser("mo", help="multi-order operations")
    mo_sub = p.add_subparsers(dest="mo_command", required=True)
    q = mo_sub.add_parser("gen")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    _add_common(q, cap=False)
    q.set_defaults(run=cmd_mo)
    for name in ("cuts", "embed", "extcheck"):
        q = mo_sub.add_parser(name)
        q.add_argument("file")
        if name == "extcheck":
            q.add_argument("-k", type=int, default=1)
        _add_common(q, cap=False)
        q.set_defaults(run=cmd_mo)
    q = mo_sub.add_parser("amalgamate")
    q.add_argument("file", help="multi-order B")
    q.add_argument("other", help="multi-order C; shared element names form A")
    _add_common(q, cap=False)
    q.set_defaults(run=cmd_mo)
    q = mo_sub.add_parser("moptest")
    q.add_argument("file")
    q.add_argument("--host", default="dlo")
    q.add_argument("--phi", default="x0 ; y : x0 < y")
    _add_common(q, cap=False, budget=True)
    q.set_defaults(run=cmd_mo)

    p = sub.add_parser("omin", help="symbolic dense-order operations")
    omin_sub = p.add_subparsers(dest="omin_command", required=True)
    for name in ("qe", "cells"):
        q = omin_sub.add_parser(name)
        q.add_argument("formula")
        _add_common(q, cap=False)
        q.set_defaults(run=cmd_omin)
    q = omin_sub.add_parser("dim")
    q.add_argument("formula")
    q.add_argument("-m", type=int, required=True)
    q.add_argument("--method", choices=("diagram", "projection", "both"),
                   default="both")
    _add_common(q, cap=False)
    q.set_defaults(run=cmd_omin)
    q = omin_sub.add_parser("irdwitness")
    q.add_argument("formula")
    q.add_argument("-m", type=int, required=True)
    _add_common(q, cap=False, length=True)
    q.set_defaults(run=cmd_omin)
    q = omin_sub.add_parser("prodcheck")
    q.add_argument("formula")
    q.add_argument("other")
    q.add_argument("-m", type=int, required=True, help="variable count of the left factor")
    q.add_argument("-m1", type=int, required=True, help="variable count of the right factor")
    _add_common(q, cap=False)
    q.set_defaults(run=cmd_omin)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        result = args.run(args)
    except BudgetExceededError as exc:
        _emit_error(args, "budget", str(exc))
        return EXIT_BUDGET
    except CliInputError as exc:
        _emit_error(args, "input", str(exc))
        return EXIT_INPUT
    except _INPUT_ERRORS as exc:
        _emit_error(args, "input", f"{type(exc).__name__}: {exc}")
        return EXIT_INPUT
    except RecursionError:
        # the parser builds left-nested chains and the walkers recurse on them
        _emit_error(args, "budget", "formula nested past the recursion limit "
                                    f"({sys.getrecursionlimit()})")
        return EXIT_BUDGET
    elapsed = time.monotonic() - started
    command = [args.command] + [getattr(args, k) for k in
                                ("mo_command", "omin_command")
                                if getattr(args, k, None)]
    report = make_report(command, _config(args), result, elapsed)
    emit(report, args.format)
    return EXIT_OK


def _emit_error(args, kind, message):
    if getattr(args, "format", "text") == "json":
        json.dump({"error": {"kind": kind, "message": message}}, sys.stderr)
        sys.stderr.write("\n")
    else:
        sys.stderr.write(f"error ({kind}): {message}\n")


if __name__ == "__main__":
    sys.exit(main())
