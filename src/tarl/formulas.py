"""Propositional formulas over ~, &, |, -> and the fusion connective o.

The ASCII surface syntax is

    formula := imp ;  imp := or ("->" imp)? ;  or := and ("|" and)* ;
    and := fus ("&" fus)* ;  fus := unary ("o" unary)* ;
    unary := "~" unary | "(" formula ")" | ident ;
    ident := [a-z][a-zA-Z0-9_]*   (the bare keyword "o" is reserved)

so precedence is ~ > o > & > | > ->, implication associates to the right and
the other binary connectives to the left.  The Unicode spellings of the
connectives are accepted as aliases on input.  Fusion is definable:
A o B abbreviates ~(A -> ~B), and ``desugar_fusion`` performs that rewrite.

Formulas are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): a constructor looks its class and children up in one
table with weak values and returns the live node if there is one, so each
formula exists once and equality is identity.  No node outlives its last
reference, so the table cannot grow for the life of the process.  A node
stores its hash and whether it is fusion-free when it is built, and caches
its printed text, built from its children's texts, and its variables on
first use.  Nodes are immutable; pickling and copying return the interned
node.  ``parse_formula`` is memoised by text.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
import weakref

__all__ = [
    "Formula", "Var", "Neg", "And", "Or", "Imp", "Fusion",
    "ParseError", "parse_formula", "print_formula",
    "desugar_fusion", "is_core", "variables", "shared_variables",
    "substitute",
]

_IDENT = re.compile(r"[a-z][a-zA-Z0-9_]*")

# every live node, keyed on (class, *children); children are interned, so a
# lookup hashes them by their stored hash and compares them by identity
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_LOCK = threading.Lock()  # two threads must not both make a missing node
_SERIAL = itertools.count()
_set = object.__setattr__


class Formula:
    """Base class of the interned, immutable formula nodes.

    Each node is built once (see the module docstring), so equality is
    identity.  A node keeps its hash, the same as a frozen dataclass of its
    fields would have, its ``uid`` (a serial number never reused in this
    process) and whether it is fusion-free; its printed text and its
    variables are filled in on first use."""

    __slots__ = ("_hash", "_core", "uid", "_text", "_vars", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return print_formula(self)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def _intern(key: tuple) -> Formula:
    """The node of key = (class, *children): the live one, or a new one."""
    cls, *children = key
    with _LOCK:
        node = _TABLE.get(key)
        if node is not None:
            return node
        if cls is Var:
            name = children[0]
            if not (isinstance(name, str) and _IDENT.fullmatch(name)) or name == "o":
                raise ValueError(f"bad variable name: {name!r}")
            core, text = True, name
        else:
            for child in children:
                if not isinstance(child, Formula):
                    raise TypeError(f"not a formula: {child!r}")
            core = cls is not Fusion and all(child._core for child in children)
            text = None
        node = object.__new__(cls)
        for field, child in zip(cls._fields, children):
            _set(node, field, child)
        _set(node, "_hash", hash(key[1:]))
        _set(node, "_core", core)
        _set(node, "uid", next(_SERIAL))
        _set(node, "_text", text)
        _set(node, "_vars", None)
        _TABLE[key] = node
        return node


class Var(Formula):
    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        return _TABLE.get(key) or _intern(key)


class Neg(Formula):
    __slots__ = ("body",)
    _fields = ("body",)

    def __new__(cls, body: Formula):
        key = (cls, body)
        return _TABLE.get(key) or _intern(key)


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        return _TABLE.get(key) or _intern(key)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Fusion(_Binary):
    __slots__ = ()


class ParseError(ValueError):
    """Raised on malformed input; carries the offset and what was expected."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        shown = f", found {found!r}" if found else ""
        super().__init__(f"at position {position}: expected {expected}{shown}")


# ------------------------------------------------------------------
# Lexer / parser
# ------------------------------------------------------------------

_ALIASES = {"∧": " & ", "∨": " | ", "→": " -> ", "¬": " ~", "∘": " o ",
            "～": " ~"}

# a token, or else the first character that starts none; the matches tile
# the text up to trailing white space
_TOKEN_RE = re.compile(r"\s*(?:(->|[~&|()]|[a-z][a-zA-Z0-9_]*)|(\S))")


def _tokenize(text: str) -> list[tuple[str, int]]:
    if not text.isascii():
        for uni, ascii_ in _ALIASES.items():
            text = text.replace(uni, ascii_)
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        token, bad = m.groups()
        if bad:
            raise ParseError(m.start(), "a connective, '(' or an identifier", bad)
        tokens.append((token, m.start(1)))
    return tokens


# each binary connective's binding level and class; only -> associates right
_BINARY = {"->": (1, Imp), "|": (2, Or), "&": (3, And), "o": (4, Fusion)}


class _Parser:
    """Precedence climbing over the grammar of the module docstring."""

    def __init__(self, tokens: list[tuple[str, int]], length: int):
        self.tokens = tokens + [(None, length)]  # end of input, at its offset
        self.pos = 0

    def binary(self, least: int) -> Formula:
        """A formula whose binary connectives bind at level least or above."""
        left = self.unary()
        while True:
            op = _BINARY.get(self.tokens[self.pos][0])
            if op is None or op[0] < least:
                return left
            level, cls = op
            self.pos += 1
            left = cls(left, self.binary(level if cls is Imp else level + 1))

    def unary(self) -> Formula:
        tok, at = self.tokens[self.pos]
        self.pos += 1
        if tok == "~":
            return Neg(self.unary())
        if tok == "(":
            f = self.binary(1)
            tok, at = self.tokens[self.pos]
            if tok != ")":
                raise ParseError(at, "')'", tok or "end of input")
            self.pos += 1
            return f
        if tok is not None and tok != "o" and _IDENT.fullmatch(tok):
            return Var(tok)
        raise ParseError(at, "'~', '(' or an identifier", tok or "end of input")


def parse_formula(text: str) -> Formula:
    """Parse the ASCII (or Unicode-aliased) syntax into a Formula; memoised
    by text (a ParseError is raised afresh each time)."""
    return _parse(text)


# the memo sits behind a plain function, which perfbench's tracer can wrap
@functools.lru_cache(maxsize=4096)
def _parse(text: str) -> Formula:
    parser = _Parser(_tokenize(text), len(text))
    f = parser.binary(1)
    tok, at = parser.tokens[parser.pos]
    if tok is not None:
        raise ParseError(at, "end of input", tok)
    return f


# ------------------------------------------------------------------
# Printer
# ------------------------------------------------------------------

# a connective's binding level (Neg and Var are never wrapped), and for each
# binary one its spelling and the least level each operand keeps unwrapped
_LEVEL = {Imp: 1, Or: 2, And: 3, Fusion: 4, Neg: 5, Var: 5}
_INFIX = {Imp: (" -> ", 2, 1), Or: (" | ", 2, 3), And: (" & ", 3, 4),
          Fusion: (" o ", 4, 5)}


def _operand(f: Formula, strength: int) -> str:
    text = print_formula(f)
    return "(" + text + ")" if _LEVEL[type(f)] < strength else text


def print_formula(f: Formula) -> str:
    """Minimal-parenthesis rendering; parse_formula(print_formula(f)) == f.
    Built once per node, from its children's texts."""
    text = f._text
    if text is None:
        if isinstance(f, Neg):
            text = "~" + _operand(f.body, 5)
        else:
            op, left, right = _INFIX[type(f)]
            text = _operand(f.left, left) + op + _operand(f.right, right)
        _set(f, "_text", text)
    return text


# ------------------------------------------------------------------
# Structural helpers
# ------------------------------------------------------------------

def desugar_fusion(f: Formula) -> Formula:
    """Replace every fusion A o B by ~(A -> ~B), bottom up; a fusion-free
    formula comes back as it is."""
    if f._core:
        return f
    if isinstance(f, Neg):
        return Neg(desugar_fusion(f.body))
    if isinstance(f, Fusion):
        return Neg(Imp(desugar_fusion(f.left), Neg(desugar_fusion(f.right))))
    return type(f)(desugar_fusion(f.left), desugar_fusion(f.right))


def is_core(f: Formula) -> bool:
    """True when f contains no fusion node."""
    return f._core


def variables(f: Formula) -> frozenset[str]:
    names = f._vars
    if names is None:
        if isinstance(f, Var):
            names = frozenset((f.name,))
        elif isinstance(f, Neg):
            names = variables(f.body)
        else:
            names = variables(f.left) | variables(f.right)
        _set(f, "_vars", names)
    return names


def shared_variables(a: Formula, b: Formula) -> frozenset[str]:
    return variables(a) & variables(b)


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Uniformly replace variables by formulas (schema instantiation)."""
    if isinstance(f, Var):
        return mapping.get(f.name, f)
    if isinstance(f, Neg):
        return Neg(substitute(f.body, mapping))
    return type(f)(substitute(f.left, mapping), substitute(f.right, mapping))
