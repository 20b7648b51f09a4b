"""Signatures, finite relational structures, and the first-order formula DSL.

Everything downstream (ranks, patterns, multi-order witnesses) queries
satisfiability through the evaluator and solution enumerator defined here.
All values are immutable; evaluation is pure.
"""
from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from operator import attrgetter


class LogicError(Exception):
    pass


class ParseError(LogicError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class UnknownSymbolError(ParseError):
    pass


class ArityMismatchError(ParseError):
    pass


class UnboundVariableError(LogicError):
    pass


class InsufficientCodesError(LogicError):
    """Raised when a structure is too small to host selector codes."""


# ---------------------------------------------------------------------------
# Records


_set = object.__setattr__   # how a constructor fills in a field: assignment raises


class Record:
    """The base of opdim's immutable value classes.

    A subclass lists its fields in `__slots__`, in the order its constructor
    takes them; a slot whose name starts with `_` is a cache, not a field.
    The constructor sets each field with `object.__setattr__` (the one given
    here takes the fields, all required, by position or name).  Records of
    one class are equal when their fields are, hash by their fields, print
    as `Name(field=value, ...)`, and `_replace` builds a changed copy through
    the constructor.  The field list is read once, when the class is
    created; no method is generated, so creating a record class costs
    microseconds where a dataclass costs a millisecond of import time."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"record class {cls.__qualname__} must declare __slots__")
        cls._fields += tuple(n for n in cls.__slots__ if not n.startswith("_"))
        # what equality and the hash compare, read in one C call: the fields'
        # values (a lone field's value alone), or a record's class if it has none
        cls._compared = attrgetter(*cls._fields or ("__class__",))

    def __init__(self, *args, **kwargs):
        names = self._fields
        rest = names[len(args):]
        if len(args) > len(names) or kwargs.keys() != set(rest):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args + tuple(map(kwargs.__getitem__, rest))):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable "
                             f"{type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable "
                             f"{type(self).__qualname__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == other._compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def _replace(self, **changes):
        """A copy with the named fields changed, through the constructor."""
        unknown = changes.keys() - set(self._fields)
        if unknown:
            raise TypeError(f"{type(self).__qualname__} has no field {sorted(unknown)[0]!r}")
        return type(self)(*[changes.get(n, getattr(self, n)) for n in self._fields])


# ---------------------------------------------------------------------------
# Terms and formulas


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name):
        _set(self, "name", name)


class Const(Record):
    """A named constant from the signature."""

    __slots__ = ("name",)

    def __init__(self, name):
        _set(self, "name", name)


class Rat(Record):
    """An exact rational literal; only meaningful in the symbolic order context."""

    __slots__ = ("value",)

    def __init__(self, value):
        _set(self, "value", value)


class Elem(Record):
    """A direct element reference (a formula parameter from a structure)."""

    __slots__ = ("value",)

    def __init__(self, value):
        _set(self, "value", value)


class Atom(Record):
    __slots__ = ("rel", "args")

    def __init__(self, rel, args):
        _set(self, "rel", rel)
        _set(self, "args", args)


class Eq(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)


class Not(Record):
    __slots__ = ("sub",)

    def __init__(self, sub):
        _set(self, "sub", sub)


class And(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)


class Or(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)


class Imp(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)


class Forall(Record):
    __slots__ = ("var", "sub")

    def __init__(self, var, sub):
        _set(self, "var", var)
        _set(self, "sub", sub)


class Exists(Record):
    __slots__ = ("var", "sub")

    def __init__(self, var, sub):
        _set(self, "var", var)
        _set(self, "sub", sub)


class Top(Record):
    __slots__ = ()


class Bot(Record):
    __slots__ = ()


TRUE = Top()
FALSE = Bot()


def conj_all(parts):
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj_all(parts):
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def signed(f, sign):
    """phi^1 = phi, phi^0 = ~phi."""
    return f if sign else Not(f)


def term_vars(t):
    return {t.name} if isinstance(t, Var) else set()


def free_vars(f):
    if isinstance(f, Atom):
        out = set()
        for a in f.args:
            out |= term_vars(a)
        return out
    if isinstance(f, Eq):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, (And, Or, Imp)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.sub) - {f.var}
    if isinstance(f, (Top, Bot)):
        return set()
    raise TypeError(f"not a formula: {f!r}")


def _subst_term(t, mapping):
    if isinstance(t, Var) and t.name in mapping:
        return mapping[t.name]
    return t


def subst(f, mapping):
    """Substitute terms for free variables; bound variables shadow."""
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(_subst_term(a, mapping) for a in f.args))
    if isinstance(f, Eq):
        return Eq(_subst_term(f.left, mapping), _subst_term(f.right, mapping))
    if isinstance(f, Not):
        return Not(subst(f.sub, mapping))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(subst(f.left, mapping), subst(f.right, mapping))
    if isinstance(f, (Forall, Exists)):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        if not inner:
            return f
        captured = set()
        for v in inner.values():
            captured |= term_vars(v)
        var = f.var
        sub = f.sub
        if var in captured:
            fresh = var
            taken = captured | free_vars(f.sub) | set(inner)
            while fresh in taken:
                fresh += "_"
            sub = subst(sub, {var: Var(fresh)})
            var = fresh
        return type(f)(var, subst(sub, inner))
    if isinstance(f, (Top, Bot)):
        return f
    raise TypeError(f"not a formula: {f!r}")


def rename_vars(f, renaming):
    return subst(f, {k: Var(v) for k, v in renaming.items()})


# ---------------------------------------------------------------------------
# Signatures and structures


class Signature(Record):
    __slots__ = ("relations", "constants")

    def __init__(self, relations=(), constants=()):
        _set(self, "relations", tuple((str(n), int(a)) for n, a in relations))
        _set(self, "constants", tuple(constants))
        names = [n for n, _ in self.relations] + list(self.constants)
        if len(set(names)) != len(names):
            raise LogicError("signature names must be pairwise distinct")
        for n, a in self.relations:
            if a < 1:
                raise LogicError(f"relation {n} must have positive arity")

    def arity(self, name):
        for n, a in self.relations:
            if n == name:
                return a
        return None


DLO_SIGNATURE = Signature(relations=(("<", 2),))


class FiniteStructure(Record):
    __slots__ = ("signature", "universe", "relations", "constants", "allow_empty")

    def __init__(self, signature, universe, relations=None, constants=None, allow_empty=False):
        relations = relations or {}
        _set(self, "signature", signature)
        _set(self, "universe", tuple(universe))
        _set(self, "allow_empty", allow_empty)
        uni = set(self.universe)
        if len(uni) != len(self.universe):
            raise LogicError("universe elements must be distinct")
        if not self.universe and not self.allow_empty:
            raise LogicError("empty universe must be explicitly flagged")
        rels = {}
        for name, arity in self.signature.relations:
            table = frozenset(tuple(t) for t in relations.get(name, ()))
            for t in table:
                if len(t) != arity:
                    raise LogicError(f"tuple {t} has wrong arity for {name}")
                if not set(t) <= uni:
                    raise LogicError(f"tuple {t} not within the universe")
            rels[name] = table
        unknown = set(relations) - {n for n, _ in self.signature.relations}
        if unknown:
            raise LogicError(f"relations not in signature: {sorted(unknown)}")
        _set(self, "relations", rels)
        consts = dict(constants or {})
        for c in self.signature.constants:
            if c not in consts:
                raise LogicError(f"constant {c} is not interpreted")
            if consts[c] not in uni:
                raise LogicError(f"constant {c} maps outside the universe")
        _set(self, "constants", consts)

    def __hash__(self):
        return hash((self.signature, self.universe,
                     tuple(sorted((k, v) for k, v in self.constants.items())),
                     tuple(sorted((k, tuple(sorted(v))) for k, v in self.relations.items()))))

    def __eq__(self, other):  # allow_empty only guards construction
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.signature == other.signature
                and self.universe == other.universe
                and self.relations == other.relations
                and self.constants == other.constants)

    def induced(self, elements):
        """Induced substructure on the given elements (constants must survive)."""
        keep = [e for e in self.universe if e in set(elements)]
        rels = {n: {t for t in tab if set(t) <= set(keep)} for n, tab in self.relations.items()}
        return FiniteStructure(self.signature, tuple(keep), rels, dict(self.constants),
                               allow_empty=True)


def structure_to_dict(m: FiniteStructure):
    return {
        "signature": {
            "relations": [{"name": n, "arity": a} for n, a in m.signature.relations],
            "constants": list(m.signature.constants),
        },
        "universe": list(m.universe),
        "relations": {n: sorted([list(t) for t in tab]) for n, tab in m.relations.items()},
        "constants": dict(m.constants),
    }


def structure_from_dict(d):
    try:
        sig = Signature(
            relations=tuple((r["name"], r["arity"]) for r in d["signature"]["relations"]),
            constants=tuple(d["signature"].get("constants", ())),
        )
        return FiniteStructure(
            sig,
            tuple(d["universe"]),
            {n: {tuple(t) for t in tab} for n, tab in d.get("relations", {}).items()},
            dict(d.get("constants", {})),
            allow_empty=not d["universe"],
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise LogicError(f"malformed structure document: {exc}") from exc


def load_structure(path):
    with open(path) as fh:
        return structure_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(t, structure, env):
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {t.name}") from None
    if isinstance(t, Const):
        if structure is None or t.name not in structure.constants:
            raise UnboundVariableError(f"uninterpreted constant {t.name}")
        return structure.constants[t.name]
    if isinstance(t, Elem):
        return t.value
    if isinstance(t, Rat):
        return t.value
    raise TypeError(f"not a term: {t!r}")


def evaluate(structure: FiniteStructure, f, env=None):
    """Tarskian satisfaction over a finite structure."""
    env = env or {}
    if isinstance(f, Atom):
        args = tuple(eval_term(a, structure, env) for a in f.args)
        return args in structure.relations[f.rel]
    if isinstance(f, Eq):
        return eval_term(f.left, structure, env) == eval_term(f.right, structure, env)
    if isinstance(f, Not):
        return not evaluate(structure, f.sub, env)
    if isinstance(f, And):
        return evaluate(structure, f.left, env) and evaluate(structure, f.right, env)
    if isinstance(f, Or):
        return evaluate(structure, f.left, env) or evaluate(structure, f.right, env)
    if isinstance(f, Imp):
        return (not evaluate(structure, f.left, env)) or evaluate(structure, f.right, env)
    if isinstance(f, Forall):
        return all(evaluate(structure, f.sub, {**env, f.var: e}) for e in structure.universe)
    if isinstance(f, Exists):
        return any(evaluate(structure, f.sub, {**env, f.var: e}) for e in structure.universe)
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    raise TypeError(f"not a formula: {f!r}")


def solutions(structure: FiniteStructure, f, variables):
    """All assignments to `variables` satisfying f, enumerated exhaustively."""
    variables = tuple(variables)
    missing = free_vars(f) - set(variables)
    if missing:
        raise UnboundVariableError(f"variables {sorted(missing)} not covered")
    out = set()
    for combo in itertools.product(structure.universe, repeat=len(variables)):
        if evaluate(structure, f, dict(zip(variables, combo))):
            out.add(combo)
    return out


# ---------------------------------------------------------------------------
# Partitioned formulas and formula sets


class PartitionedFormula(Record):
    """phi(x; y): an object-variable tuple x and a parameter tuple y."""

    __slots__ = ("body", "obj_vars", "param_vars", "_hash")

    def __init__(self, body, obj_vars, param_vars=()):
        _set(self, "body", body)
        _set(self, "obj_vars", tuple(obj_vars))
        _set(self, "param_vars", tuple(param_vars))
        if set(self.obj_vars) & set(self.param_vars):
            raise LogicError("object and parameter variables must be disjoint")
        extra = free_vars(self.body) - set(self.obj_vars) - set(self.param_vars)
        if extra:
            raise LogicError(f"free variables {sorted(extra)} not declared")

    def __hash__(self):
        # the recursive formula hash is hot in rank memo lookups; cache it
        try:
            return self._hash
        except AttributeError:
            h = hash((self.body, self.obj_vars, self.param_vars))
            _set(self, "_hash", h)
            return h

    def instantiate(self, params):
        """Plug concrete parameter values in, leaving the object variables free."""
        if len(params) != len(self.param_vars):
            raise LogicError("parameter tuple has wrong length")
        return subst(self.body, {v: _as_term(p) for v, p in zip(self.param_vars, params)})

    def at(self, obj, params):
        mapping = {v: _as_term(o) for v, o in zip(self.obj_vars, obj)}
        mapping.update({v: _as_term(p) for v, p in zip(self.param_vars, params)})
        if len(obj) != len(self.obj_vars) or len(params) != len(self.param_vars):
            raise LogicError("tuple length mismatch")
        return subst(self.body, mapping)


def _as_term(value):
    if isinstance(value, (Var, Const, Rat, Elem)):
        return value
    if isinstance(value, Fraction):
        return Rat(value)
    if isinstance(value, int):
        return Rat(Fraction(value))
    return Elem(value)


class DefinableSubset(Record):
    """A materialized definable set: element tuples of a fixed arity."""

    __slots__ = ("structure", "arity", "tuples")

    def __init__(self, structure, arity, tuples):
        _set(self, "structure", structure)
        _set(self, "arity", arity)
        _set(self, "tuples", frozenset(tuple(t) for t in tuples))
        uni = set(self.structure.universe)
        for t in self.tuples:
            if len(t) != self.arity or not set(t) <= uni:
                raise LogicError(f"tuple {t} invalid for this subset")


# ---------------------------------------------------------------------------
# Independence dimension (shattering)


def independence_dimension(structure, phi: PartitionedFormula, max_b):
    """Largest |B| <= max_b with 2^|B| phi-types over B, by exhaustive search."""
    params = list(itertools.product(structure.universe, repeat=len(phi.param_vars)))
    objs = list(itertools.product(structure.universe, repeat=len(phi.obj_vars)))
    truth = {}
    for b in params:
        inst = phi.instantiate(b)
        truth[b] = tuple(evaluate(structure, inst, dict(zip(phi.obj_vars, o))) for o in objs)
    best = 0
    for k in range(1, max_b + 1):
        found = False
        for bs in itertools.combinations(params, k):
            traces = {tuple(truth[b][i] for b in bs) for i in range(len(objs))}
            if len(traces) == 2 ** k:
                found = True
                break
        if not found:
            break
        best = k
    return best


# ---------------------------------------------------------------------------
# Parity combination and Delta-coding


def parity_combine(phi: PartitionedFormula, k):
    """psi(x; y_0..y_{k-1}) true iff evenly many of phi(x, y_i) hold."""
    if k < 1:
        raise LogicError("k must be >= 1")
    copies = []
    new_params = []
    for i in range(k):
        renaming = {y: f"{y}_{i}" for y in phi.param_vars}
        taken = set(phi.obj_vars)
        for y in phi.param_vars:
            while renaming[y] in taken:
                renaming[y] += "_"
            taken.add(renaming[y])
        copies.append(rename_vars(phi.body, renaming))
        new_params.extend(renaming[y] for y in phi.param_vars)
    terms = []
    for pattern in itertools.product((1, 0), repeat=k):
        if sum(pattern) % 2 == 0:
            terms.append(conj_all(signed(copies[i], pattern[i]) for i in range(k)))
    return PartitionedFormula(disj_all(terms), phi.obj_vars, tuple(new_params))


def encode_delta(delta, structure: FiniteStructure):
    """Code a finite formula set Delta into one formula phi_Delta(x; z, w).

    The selector w picks out which member applies; selector codes are tuples
    over two chosen universe elements.
    """
    delta = list(delta)
    if not delta:
        raise LogicError("Delta must be nonempty")
    obj = delta[0].obj_vars
    for theta in delta:
        if len(theta.obj_vars) != len(obj):
            raise LogicError("all members of Delta must share the object sort")
    if len(delta) == 1:
        theta = delta[0]
        body = rename_vars(theta.body, dict(zip(theta.obj_vars, obj)))
        return PartitionedFormula(body, obj, delta[0].param_vars)
    if len(structure.universe) < 2:
        raise InsufficientCodesError("need two distinct elements for selector codes")
    e0, e1 = structure.universe[0], structure.universe[1]
    bits = max(1, (len(delta) - 1).bit_length())
    zlen = max(len(t.param_vars) for t in delta)
    taken = set(obj)
    zvars = []
    for i in range(zlen):
        name = f"z{i}"
        while name in taken:
            name += "_"
        taken.add(name)
        zvars.append(name)
    wvars = []
    for i in range(bits):
        name = f"w{i}"
        while name in taken:
            name += "_"
        taken.add(name)
        wvars.append(name)
    clauses = []
    for idx, theta in enumerate(delta):
        code = [(e1 if (idx >> b) & 1 else e0) for b in range(bits)]
        sel = conj_all(Eq(Var(w), Elem(c)) for w, c in zip(wvars, code))
        renaming = dict(zip(theta.obj_vars, obj))
        renaming.update(dict(zip(theta.param_vars, zvars)))
        clauses.append(And(sel, rename_vars(theta.body, renaming)))
    return PartitionedFormula(disj_all(clauses), obj, tuple(zvars) + tuple(wvars))


# ---------------------------------------------------------------------------
# DSL parser / printer
#
# formula := quant | impl
# quant   := ("forall"|"exists") var "." formula
# impl    := disj ["->" impl]
# disj    := conj {"|" conj}
# conj    := lit {"&" lit}
# lit     := ["~"] atom | "(" formula ")"
# atom    := name "(" term {"," term} ")" | term ("<"suffix | "=") term

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<less><[0-9]*)
  | (?P<rat>-?\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<at>@)
  | (?P<op>[=~&|().,;:])
""", re.VERBOSE)

_KEYWORDS = {"forall", "exists", "true", "false"}


def _tokenize(text):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        for ch in value:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text, sig):
        self.tokens = _tokenize(text)
        self.sig = sig
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, line, col = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", line, col)

    def parse(self):
        f = self.formula()
        kind, val, line, col = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {val!r}", line, col)
        return f

    def formula(self):
        kind, val, line, col = self.peek()
        if kind == "name" and val in ("forall", "exists"):
            self.next()
            vkind, vname, vline, vcol = self.next()
            if vkind != "name" or vname in _KEYWORDS:
                raise ParseError("expected a variable name after quantifier", vline, vcol)
            self.expect(".")
            sub = self.formula()
            return (Forall if val == "forall" else Exists)(vname, sub)
        return self.impl()

    def impl(self):
        left = self.disj()
        if self.peek()[1] == "->":
            self.next()
            return Imp(left, self.impl())
        return left

    def disj(self):
        out = self.conj()
        while self.peek()[1] == "|":
            self.next()
            out = Or(out, self.conj())
        return out

    def conj(self):
        out = self.lit()
        while self.peek()[1] == "&":
            self.next()
            out = And(out, self.lit())
        return out

    def lit(self):
        kind, val, line, col = self.peek()
        if val == "~":
            self.next()
            return Not(self.lit())
        if val == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if kind == "name" and val in ("forall", "exists"):
            return self.formula()
        return self.atom()

    def atom(self):
        kind, val, line, col = self.peek()
        if kind == "name" and val == "true":
            self.next()
            return TRUE
        if kind == "name" and val == "false":
            self.next()
            return FALSE
        if kind == "name" and self.tokens[self.i + 1][1] == "(" and val not in _KEYWORDS:
            rel = val
            self.next()
            arity = self.sig.arity(rel)
            if arity is None:
                raise UnknownSymbolError(f"unknown relation {rel}", line, col)
            self.expect("(")
            args = [self.term()]
            while self.peek()[1] == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            if len(args) != arity:
                raise ArityMismatchError(
                    f"relation {rel} expects {arity} arguments, got {len(args)}", line, col)
            return Atom(rel, tuple(args))
        left = self.term()
        kind, val, line, col = self.peek()
        if kind == "less":
            self.next()
            if self.sig.arity(val) != 2:
                raise UnknownSymbolError(f"unknown relation {val}", line, col)
            return Atom(val, (left, self.term()))
        if val == "=":
            self.next()
            return Eq(left, self.term())
        raise ParseError(f"expected an infix relation, found {val or 'end of input'!r}",
                         line, col)

    def term(self):
        kind, val, line, col = self.next()
        if kind == "rat":
            try:
                return Rat(Fraction(val))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {val}", line, col) from None
        if kind == "at":
            nkind, nval, nline, ncol = self.next()
            if nkind not in ("name", "rat"):
                raise ParseError("expected an element id after '@'", nline, ncol)
            return Elem(nval)
        if kind == "name" and val not in _KEYWORDS:
            if val in self.sig.constants:
                return Const(val)
            return Var(val)
        raise ParseError(f"expected a term, found {val or 'end of input'!r}", line, col)


def parse_formula(text, sig=DLO_SIGNATURE):
    return _Parser(text, sig).parse()


def parse_partitioned(text, sig=DLO_SIGNATURE):
    """Parse "x ; y : body" or "x0 x1 ; y : body" into a PartitionedFormula."""
    if ":" not in text:
        raise ParseError("partitioned formula needs a 'x ; y :' header")
    header, body = text.split(":", 1)
    if ";" not in header:
        raise ParseError("header must separate object and parameter variables with ';'")
    xs, ys = header.split(";", 1)
    obj = tuple(v for v in re.split(r"[\s,]+", xs.strip()) if v)
    params = tuple(v for v in re.split(r"[\s,]+", ys.strip()) if v)
    return PartitionedFormula(parse_formula(body, sig), obj, params)


def _print_term(t):
    if isinstance(t, Var) or isinstance(t, Const):
        return t.name
    if isinstance(t, Rat):
        return str(t.value)
    if isinstance(t, Elem):
        return f"@{t.value}"
    raise TypeError(f"not a term: {t!r}")


# precedence levels: 0 formula/quant, 1 impl, 2 disj, 3 conj, 4 lit
def _print(f, level):
    if isinstance(f, (Forall, Exists)):
        q = "forall" if isinstance(f, Forall) else "exists"
        s = f"{q} {f.var}. {_print(f.sub, 0)}"
        return s if level == 0 else f"({s})"
    if isinstance(f, Imp):
        s = f"{_print(f.left, 2)} -> {_print(f.right, 1)}"
        return s if level <= 1 else f"({s})"
    if isinstance(f, Or):
        s = f"{_print(f.left, 2)} | {_print(f.right, 3)}"
        return s if level <= 2 else f"({s})"
    if isinstance(f, And):
        s = f"{_print(f.left, 3)} & {_print(f.right, 4)}"
        return s if level <= 3 else f"({s})"
    if isinstance(f, Not):
        return f"~{_print(f.sub, 4)}"
    if isinstance(f, Atom):
        if f.rel.startswith("<") and len(f.args) == 2:
            return f"{_print_term(f.args[0])} {f.rel} {_print_term(f.args[1])}"
        return f"{f.rel}({', '.join(_print_term(a) for a in f.args)})"
    if isinstance(f, Eq):
        return f"{_print_term(f.left)} = {_print_term(f.right)}"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f):
    return _print(f, 0)
