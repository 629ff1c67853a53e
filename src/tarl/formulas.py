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

The syntax is written once, in ``Grammar``: one tokenizer, one
precedence-climbing parser, one minimal-parenthesis printer and one
evaluator, driven by a table of tokens, binding levels and node classes.
``FORMULAS`` is the table of this syntax; ``tarl.algebra.TERMS`` is that of
relation-algebra terms.

Formulas are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): a constructor looks its class and children up in one
plain dict of weak references and returns the live node if there is one,
so each formula exists once and equality is identity.  A hash-consed value
may be hashed by its unique tag, and a node's identity is one: nodes hash
as objects do, in C, and so do the tuples that hold them.  The order of a
set of nodes then follows their addresses, so no output may follow it.
Each reference holds its key, and when its node goes one shared callback
removes the entry if the reference there is dead, so a node that has
taken the key since stays.  No node outlives its last reference, so the
table cannot grow for the life of the process.  A node stores whether it
is fusion-free when it is built, and caches its printed text, built from
its children's texts, and its variables on first use.  Nodes are
immutable; pickling and copying return the interned node.

There is one formula memo, keyed by text, of weak references to nodes, and
two write to it: ``parse_formula`` stores each text it parses, and
``print_formula`` each text when it first builds it.  A whole text printed
or parsed before is read back with one lookup and no parse while its node
lives; the memo keeps no node alive.  The parser itself looks up no group
of a text: it reads every token.  A text in the memo parsed cleanly or was
printed, so a ParseError is raised afresh each time.  The memo is emptied,
dead references with the rest, when it holds MEMO_SIZE texts.  The proof
script reader's memos (``sequents``) are kept by the same helper,
``_remember``, within the same bound.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
import weakref
from _weakref import _remove_dead_weakref

__all__ = [
    "Formula", "Var", "Neg", "And", "Or", "Imp", "Fusion",
    "ParseError", "UnassignedVariable", "file_lines", "end_of_file",
    "parse_at", "Grammar",
    "FORMULAS", "parse_formula", "print_formula",
    "desugar_fusion", "is_core", "variables", "shared_variables",
    "substitution", "substitute",
]

_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*")


class _Ref(weakref.ref):
    """A weak reference to a node that holds the node's key in _TABLE.
    Unlike weakref.KeyedRef it is built by C code alone."""
    __slots__ = ("key",)


# every live node, keyed on (class, *children), as a _Ref; children are
# interned, so a lookup hashes and compares them by identity
_TABLE: dict[tuple, _Ref] = {}
_LOCK = threading.Lock()  # two threads must not both make a missing node
_SERIAL = itertools.count()
_set = object.__setattr__


class Formula:
    """Base class of the interned, immutable formula nodes.

    Each node is built once (see the module docstring), so equality and
    hashing are those of its identity.  A node keeps its ``uid`` (a serial
    number never reused in this process) and whether it is fusion-free;
    its printed text and its variables are filled in on first use."""

    __slots__ = ("_core", "uid", "_text", "_vars", "__weakref__")
    _fields: tuple[str, ...] = ()

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


def _forget(ref: _Ref) -> None:
    """The callback of a node's reference: remove ref's key from the table
    if the reference there is dead, in one atomic call, so that a live
    node that has taken the key since is kept."""
    _remove_dead_weakref(_TABLE, ref.key)


def _intern(key: tuple) -> Formula:
    """The node of key = (class, *children): the live one, or a new one."""
    cls, *children = key
    with _LOCK:
        ref = _TABLE.get(key)
        node = ref and ref()
        if node is not None:
            return node
        if cls is Var:
            core, text = True, FORMULAS.name(children[0])
        else:
            for child in children:
                if not isinstance(child, Formula):
                    raise TypeError(f"not a formula: {child!r}")
            core = cls is not Fusion and all(child._core for child in children)
            text = None
        node = object.__new__(cls)
        for field, child in zip(cls._fields, children):
            _set(node, field, child)
        _set(node, "_core", core)
        _set(node, "uid", next(_SERIAL))
        _set(node, "_text", text)
        _set(node, "_vars", None)
        ref = _Ref(node, _forget)
        ref.key = key
        _TABLE[key] = ref
        return node


class Var(Formula):
    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _TABLE.get(key)  # a weak reference, which may be dead
        return ref is not None and ref() or _intern(key)


class Neg(Formula):
    __slots__ = ("body",)
    _fields = ("body",)

    def __new__(cls, body: Formula):
        key = (cls, body)
        ref = _TABLE.get(key)
        return ref is not None and ref() or _intern(key)


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        ref = _TABLE.get(key)
        return ref is not None and ref() or _intern(key)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Fusion(_Binary):
    __slots__ = ()


class ParseError(ValueError):
    """Raised on malformed input; carries where, what was expected and what
    was found.  In a text, position is an offset into it; in a file, line is
    the 1-based line number and position the 1-based column in that line."""

    def __init__(self, position: int, expected: str, found: str = "",
                 line: int | None = None):
        self.position = position
        self.expected = expected
        self.found = found
        self.line = line
        where = "at position" if line is None else f"line {line}, column"
        shown = f", found {found!r}" if found else ""
        super().__init__(f"{where} {position}: expected {expected}{shown}")


class UnassignedVariable(KeyError):
    """A variable that an evaluation's environment gives no value."""


def _lines(text: str) -> list[str]:
    r"""A file's lines, ended only by \n, \r\n or \r, unlike str.splitlines."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removesuffix("\n").split("\n") if text else []


def file_lines(text: str):
    """Each line of a file's text that holds more than a '#' comment, as
    (line number, column where its content starts, content): the line less
    its comment and the blanks around what is left.  Numbers and columns
    count from 1."""
    for number, raw in enumerate(_lines(text), start=1):
        content = raw.split("#", 1)[0]
        stripped = content.strip()
        if stripped:
            yield number, len(content) - len(content.lstrip()) + 1, stripped


def end_of_file(text: str, expected: str) -> ParseError:
    """The error of a file's text that ends where expected should come."""
    return ParseError(1, expected, "end of file", len(_lines(text)) + 1)


_NEXT = re.compile(r"\s*(\S|$)")  # the next character that is not blank
MEMO_SIZE = 8192  # a text memo is emptied when it holds this many texts


def parse_at(parse, source: str, start: int, end: int, line: int | None = None,
             col: int = 0):
    """parse(source[start:end]).  A ParseError then says where in source it
    arose: at an offset into it (line None), or at a column of line when
    source starts at column col.  An error at the end of the part names
    the character of source that follows it, if there is one."""
    try:
        return parse(source[start:end])
    except ParseError as e:
        at, found = start + e.position, e.found
        after = _NEXT.match(source, end)
        if found == "end of input" and after.group(1):
            at, found = after.start(1), after.group(1)
        raise ParseError(col + at, e.expected, found, line) from None


# ------------------------------------------------------------------
# Grammars: one parser and one printer, driven by a table
# ------------------------------------------------------------------

class Grammar:
    """The surface syntax of one kind of tree, as tables read by one
    tokenizer, one precedence-climbing parser, one printer and one
    evaluator.

    `symbols` is the regular expression of the tokens other than names
    (lower-case identifiers).  `binary` maps a token to (level, class,
    printed form); a higher level binds tighter, and every class associates
    to the left except `right`.  `prefix` and `postfix` map a token to a
    one-operand class, `constants` a token to its node; a postfix operator
    binds tighter than a prefix one, both tighter than any binary one, and
    parentheses group.  A name that is no operator or constant is a
    `variable`.  `bad_token` and `bad_operand` say what was expected where a
    character starts no token and where an operand is missing; `aliases`
    map other spellings of a token to it.  Binary nodes hold their operands
    as `left` and `right`, one-operand nodes as `body`, variables their
    `name`."""

    def __init__(self, *, symbols: str, binary: dict, right: type | None,
                 prefix: dict, postfix: dict, constants: dict, variable: type,
                 bad_token: str, bad_operand: str, aliases: dict):
        # a token, or else the first character that starts none, and the
        # blanks around it; the matches tile the text
        tokens = "|".join((symbols, *map(re.escape, aliases), _NAME.pattern))
        self.token = re.compile(rf"\s*(?:({tokens})|(\S))\s*")
        self.binary, self.right = binary, right
        self.prefix, self.postfix, self.constants = prefix, postfix, constants
        self.variable = variable
        self.bad_token, self.bad_operand = bad_token, bad_operand
        self.aliases = aliases
        self.reserved = frozenset(tok for tok in (*binary, *constants) if _NAME.fullmatch(tok))
        self.spelling = {**{cls: tok for tok, (_, cls, _) in binary.items()},
                         **{cls: tok for tok, cls in (*prefix.items(), *postfix.items())},
                         **{type(node): tok for tok, node in constants.items()}}
        # for printing: each class's binding level (prefix nodes bind above
        # every binary one, postfix nodes above them, leaves at atom), and
        # each operator's text around and between its operands with the
        # least level each operand keeps unwrapped
        prefixed = max(level for level, _, _ in binary.values()) + 1
        postfixed = prefixed + 1
        self.atom = postfixed + 1
        self.level = {cls: level for level, cls, _ in binary.values()}
        self.level.update((cls, prefixed) for cls in prefix.values())
        self.level.update((cls, postfixed) for cls in postfix.values())
        self.infix = {cls: (shown, level + (cls is right), level + (cls is not right))
                      for level, cls, shown in binary.values()}
        self.affix = {**{cls: (tok, prefixed, "") for tok, cls in prefix.items()},
                      **{cls: ("", postfixed, tok) for tok, cls in postfix.items()}}
        # for evaluating: the number of operands of each class but variables
        self.arity = {**{type(node): 0 for node in constants.values()},
                      **{cls: 1 for cls in (*prefix.values(), *postfix.values())},
                      **{cls: 2 for _, cls, _ in binary.values()}}

    def name(self, name) -> str:
        """name, if it can be a variable's: a name that is no token."""
        if not (isinstance(name, str) and _NAME.fullmatch(name)) or name in self.reserved:
            raise ValueError(f"bad variable name: {name!r}")
        return name

    def parse(self, text: str):
        """The tree of text, read afresh: no memo is looked up, and no group
        of text is skipped unread (parse_formula adds the formula memo).  A
        ParseError's position is an offset into text, and what it found is
        as text spells it.  A character that starts no token is reported
        before any other error."""
        parser = _Parser(self, text)
        parser.read(0)
        node = parser.binary(1)
        if parser.tok is not None:
            raise parser.error("end of input")
        return node

    def show(self, node, operand) -> str:
        """Minimal-parenthesis rendering of node, given operand(child), the
        text of a child."""
        cls = type(node)
        if cls in self.infix:
            shown, left, right = self.infix[cls]
            return (self._wrap(node.left, left, operand) + shown
                    + self._wrap(node.right, right, operand))
        if cls in self.affix:
            before, strength, after = self.affix[cls]
            return before + self._wrap(node.body, strength, operand) + after
        if cls is self.variable:
            return self.name(node.name)
        return self.spelling[cls]

    def evaluate(self, node, env, ops):
        """The value of node: a variable's is env[its name], a constant's is
        ops[its class], and an operator's is ops[its class] applied to the
        values of its operands (operations on masks or matrices, say, or
        another grammar's constructors).  A name env lacks raises
        UnassignedVariable, and a value that is no node TypeError."""
        cls = type(node)
        if cls is self.variable:
            try:
                return env[node.name]
            except KeyError:
                raise UnassignedVariable(node.name) from None
        arity = self.arity.get(cls)
        if arity == 2:
            return ops[cls](self.evaluate(node.left, env, ops),
                            self.evaluate(node.right, env, ops))
        if arity == 1:
            return ops[cls](self.evaluate(node.body, env, ops))
        if arity == 0:
            return ops[cls]
        raise TypeError(f"not a node of this grammar: {node!r}")

    def _wrap(self, node, strength: int, operand) -> str:
        text = operand(node)
        return "(" + text + ")" if self.level.get(type(node), self.atom) < strength else text


class _Parser:
    """Precedence climbing over one grammar's tokens, each read from the text
    when the parser comes to it; no part of the text is looked up in a
    memo."""

    def __init__(self, grammar: Grammar, text: str):
        self.g, self.text = grammar, text

    def read(self, at: int) -> None:
        """Read the token at offset at, after any blanks: tok (an alias read
        as its token, None at the end), its offset, the offset after it and
        the blanks that follow, and its text as typed."""
        m = self.g.token.match(self.text, at)
        if m is None:  # nothing but blanks is left
            self.tok, self.at, self.typed = None, len(self.text), "end of input"
            return
        typed, bad = m.groups()
        if bad:
            raise ParseError(m.start(2), self.g.bad_token, bad)
        self.tok = self.g.aliases.get(typed, typed)
        self.at, self.after, self.typed = m.start(1), m.end(), typed

    def error(self, expected: str) -> ParseError:
        """A ParseError at the current token, found as the text spells it;
        but a character from there on that starts no token comes first.
        Everything before the current token was read, none of it looked up
        in a memo, so it holds no such character."""
        for m in self.g.token.finditer(self.text, self.at):
            if m.group(2):
                return ParseError(m.start(2), self.g.bad_token, m.group(2))
        return ParseError(self.at, expected, self.typed)

    def binary(self, least: int):
        """A tree whose binary operators bind at level least or above."""
        left = self.unary()
        while True:
            op = self.g.binary.get(self.tok)
            if op is None or op[0] < least:
                return left
            level, cls, _ = op
            self.read(self.after)  # right's right operand may hold right again
            left = cls(left, self.binary(level + (cls is not self.g.right)))

    def unary(self):
        g = self.g
        tok = self.tok
        if tok in g.prefix:
            self.read(self.after)
            return g.prefix[tok](self.unary())
        if tok == "(":
            self.read(self.after)
            node = self.binary(1)
            if self.tok != ")":
                raise self.error("')'")
        elif tok in g.constants:
            node = g.constants[tok]
        elif tok is not None and "a" <= tok[0] <= "z" and tok not in g.reserved:
            node = g.variable(tok)  # the tokenizer matched the whole name
        else:
            raise self.error(g.bad_operand)
        self.read(self.after)  # past the ')', constant or name
        while self.tok in g.postfix:
            node = g.postfix[self.tok](node)
            self.read(self.after)
        return node


FORMULAS = Grammar(
    symbols=r"->|[~&|()]",
    binary={"->": (1, Imp, " -> "), "|": (2, Or, " | "), "&": (3, And, " & "),
            "o": (4, Fusion, " o ")},
    right=Imp, prefix={"~": Neg}, postfix={}, constants={}, variable=Var,
    bad_token="a connective, '(' or an identifier",
    bad_operand="'~', '(' or an identifier",
    aliases={"∧": "&", "∨": "|", "→": "->", "¬": "~", "∘": "o", "～": "~"})


_MEMO: dict[str, weakref.ref] = {}  # text -> its node, weakly; see the module docstring


def _remember(memo: dict, text: str, entry) -> None:
    """Store text's entry in memo, emptying the memo first if it holds
    MEMO_SIZE texts."""
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[text] = entry


def parse_formula(text: str) -> Formula:
    """Parse the ASCII (or Unicode-aliased) syntax into a Formula.  A text
    parsed or printed before is looked up in the formula memo, if its node
    is alive; a ParseError is raised afresh each time."""
    ref = _MEMO.get(text)
    node = ref and ref()
    if node is None:
        node = FORMULAS.parse(text)
        _remember(_MEMO, text, weakref.ref(node))
    return node


def print_formula(f: Formula) -> str:
    """Minimal-parenthesis rendering; parse_formula(print_formula(f)) is f.
    Built once per node, from its children's texts, and then stored in the
    formula memo, so that parse_formula reads it back with one lookup."""
    text = f._text
    if text is None:
        text = FORMULAS.show(f, print_formula)
        _set(f, "_text", text)
        _remember(_MEMO, text, weakref.ref(f))
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


def _image(images: dict, mapping: dict, f: Formula) -> Formula:
    """f with each variable mapping names replaced by its formula; images
    holds the image of each node met so far."""
    out = images.get(f)
    if out is None:
        if isinstance(f, Var):
            out = mapping.get(f.name, f)
        elif isinstance(f, Neg):
            out = Neg(_image(images, mapping, f.body))
        else:
            out = type(f)(_image(images, mapping, f.left), _image(images, mapping, f.right))
        images[f] = out
    return out


def substitution(mapping: dict[str, Formula]):
    """The map f -> f with each variable mapping names replaced by its
    formula.  The map remembers the image of each node it meets, so a
    subformula shared by the formulas it is given is substituted once.  It
    holds no reference to itself, so its images go when it does."""
    return functools.partial(_image, {}, mapping)


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Uniformly replace variables by formulas (schema instantiation)."""
    return substitution(mapping)(f)
