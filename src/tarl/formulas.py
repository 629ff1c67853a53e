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
shunting-yard parser and one fold, ``Grammar.evaluate``, driven by a table
of tokens, binding levels and node classes.  ``FORMULAS`` is the table of
this syntax; ``tarl.algebra.TERMS`` is that of relation-algebra terms.
Every walk over formulas and terms is that fold, given an environment for
the variables and a table of operations: semantics, translation, the
minimal-parenthesis printer (on values (level, text)), substitution,
``desugar_fusion`` and ``variables``.  The fold walks the tree in
post-order from an explicit stack and runs each node's step on a stack of
values; a node keeps its compiled steps.  A walk may pass a memo by node
identity, looked up before a node's operands are visited, so that a
subtree shared in the DAG is folded once: ``variables`` keeps each node's
names in its ``_vars`` slot, the printer its value (level, text) in
``_text``, and a substitution its images in a dict.  So no nesting is too
deep to read, print or evaluate; but each formula keeps its printed text,
so printing a chain takes memory that grows with the square of its depth.

Formulas and terms are nodes of one base, ``Node``, hash-consed
(Filliâtre and Conchon, "Type-safe modular hash-consing", 2006): a
constructor looks its class and children up in one plain dict of weak
references, ``_TABLE``, and returns the live node if there is one, so each
node exists once and equality is identity.  Nodes hash by identity, in C,
and so do the tuples that hold them, so the order of a set of nodes
follows their addresses and no output may follow it.  Each reference holds
its key, and when its node goes one shared callback removes the entry if
the reference there is dead, so a node that has taken the key since stays.
No node outlives its last reference, so the table cannot grow for the life
of the process.  Nodes are immutable and copying returns the node; `repr`
and pickling walk from explicit stacks, and a pickle holds the node's
post-order steps.  A formula stores whether it is fusion-free when it is
built (a variable also its text and its variables).

There is one formula memo, keyed by text, of weak references to nodes, and
two write to it: ``parse_formula`` stores each text it parses, and
``print_formula`` each text when it first builds it.  A whole text printed
or parsed before is read back with one lookup and no parse while its node
lives; the memo keeps no node alive.  The parser itself looks up no group
of a text: it reads every token.  A text in the memo parsed cleanly or was
printed, so a ParseError is raised afresh each time.  It is a ``Cache``,
as every module-level memo and store is.
"""

from __future__ import annotations

import itertools
import operator
import re
import threading
import weakref
from _weakref import _remove_dead_weakref

__all__ = [
    "Node", "Formula", "Var", "Neg", "And", "Or", "Imp", "Fusion",
    "ParseError", "UnassignedVariable", "file_lines", "end_of_file",
    "parse_at", "Grammar", "Env",
    "FORMULAS", "parse_formula", "print_formula", "Cache", "CACHES", "clear_caches",
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


class Node:
    """Base class of the interned, immutable nodes of formulas and of
    relation-algebra terms (``tarl.algebra.RATerm``): see the module
    docstring.  A node class is called with one value per name in its
    `_fields`, which are nodes of its kind but a variable's name; its kind
    fills the other slots (`_start`).  `repr` and pickling walk from
    explicit stacks, so no node is too deep for them."""

    __slots__ = ("uid", "_vars", "__weakref__")
    _fields: tuple[str, ...] = ()
    _leaf = False  # a variable: its one field is a name, not a node

    def __init_subclass__(cls):
        cls.__new__ = staticmethod(_NEW[len(cls._fields)])
        if Node in cls.__bases__:
            cls._kind = cls  # a kind of node, whose nodes have children of their kind

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        """Cls(field=value, ...), from a stack of nodes and texts."""
        pieces, todo = [], [self]
        while todo:
            n = todo.pop()
            if not isinstance(n, Node):
                pieces.append(n)
                continue
            pieces.append(type(n).__name__ + "(")
            todo.append(")")
            for i in reversed(range(len(n._fields))):
                value = getattr(n, n._fields[i])
                todo += (value if isinstance(value, Node) else repr(value),
                         (", " if i else "") + n._fields[i] + "=")
        return "".join(pieces)

    def __reduce__(self):
        """The node's steps in post-order, each (class, *operands): a leaf's
        name, or else the numbers of its operands' steps, so that _rebuild
        makes each node once and no printed text is kept."""
        steps, number, todo = [], {}, [self]
        while todo:
            n = todo.pop()
            if n in number:
                continue
            operands = [getattr(n, field) for field in n._fields]
            if not n._leaf:
                missing = [c for c in operands if c not in number]
                if missing:
                    todo += (n, *reversed(missing))
                    continue
                operands = [number[c] for c in operands]
            number[n] = len(steps)
            steps.append((type(n), *operands))
        return _rebuild, (steps,)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def _rebuild(steps: list) -> Node:
    """The node that Node.__reduce__ gave the steps of."""
    built = []
    for cls, *operands in steps:
        built.append(cls(*operands) if cls._leaf else cls(*map(built.__getitem__, operands)))
    return built[-1]


def _new0(cls):
    key = (cls,)
    ref = _TABLE.get(key)  # a weak reference, which may be dead
    return ref is not None and ref() or _intern(key)


def _new1(cls, operand):
    key = (cls, operand)
    ref = _TABLE.get(key)
    return ref is not None and ref() or _intern(key)


def _new2(cls, left, right):
    key = (cls, left, right)
    ref = _TABLE.get(key)
    return ref is not None and ref() or _intern(key)


_NEW = (_new0, _new1, _new2)  # a node class's constructor, by its number of fields


def _forget(ref: _Ref) -> None:
    """The callback of a node's reference: remove ref's key from the table
    if the reference there is dead, in one atomic call, so that a live
    node that has taken the key since is kept."""
    _remove_dead_weakref(_TABLE, ref.key)


def _intern(key: tuple) -> Node:
    """The node of key = (class, *children): the live one, or a new one."""
    cls, *children = key
    with _LOCK:
        ref = _TABLE.get(key)
        node = ref and ref()
        if node is not None:
            return node
        for child in () if cls._leaf else children:
            if not isinstance(child, cls._kind):
                raise TypeError(f"not a {cls._kind.__name__}: {child!r}")
        node = object.__new__(cls)
        node._start(children)
        for field, child in zip(cls._fields, children):
            _set(node, field, child)
        _set(node, "uid", next(_SERIAL))
        _set(node, "_vars", frozenset(children) if cls._leaf else None)
        ref = _Ref(node, _forget)
        ref.key = key
        _TABLE[key] = ref
        return node


class Formula(Node):
    """Base class of the formula nodes.  A node keeps whether it is
    fusion-free; its printed text, its variables and its program are
    filled in on first use (a variable has its text and its variables from
    the start)."""

    __slots__ = ("_core", "_text", "_program")

    def _start(self, children):
        leaf = self._leaf  # a variable's printed value is known
        _set(self, "_core", leaf or type(self) is not Fusion and all(c._core for c in children))
        _set(self, "_text", (FORMULAS.atom, FORMULAS.name(*children)) if leaf else None)
        _set(self, "_program", None)

    def __str__(self) -> str:
        return print_formula(self)


class Var(Formula):
    __slots__ = ("name",)
    _fields = ("name",)
    _leaf = True


class Neg(Formula):
    __slots__ = ("body",)
    _fields = ("body",)


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")


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
MEMO_SIZE = 8192  # the bound of each text memo, in texts


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
    tokenizer, one precedence-climbing parser and one fold, `evaluate`,
    through which the printer and every other walk over the trees go.

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
    `name`.  `program` names the attribute in which each node keeps the
    program that evaluate compiles for it (each grammar its own, so that a
    node of one is no node of the other)."""

    def __init__(self, *, symbols: str, binary: dict, right: type | None,
                 prefix: dict, postfix: dict, constants: dict, variable: type,
                 bad_token: str, bad_operand: str, aliases: dict, program: str):
        # a token, or else the first character that starts none, and the
        # blanks around it; the matches tile the text
        tokens = "|".join((symbols, *map(re.escape, aliases), _NAME.pattern))
        self.token = re.compile(rf"\s*(?:({tokens})|(\S))\s*")
        self.binary = binary
        self.prefix, self.postfix, self.constants = prefix, postfix, constants
        self.variable, self.program = variable, program
        self.bad_token, self.bad_operand = bad_token, bad_operand
        self.aliases = aliases
        self.reserved = frozenset(tok for tok in (*binary, *constants) if _NAME.fullmatch(tok))
        self.spelling = {**{cls: tok for tok, (_, cls, _) in binary.items()},
                         **{cls: tok for tok, cls in (*prefix.items(), *postfix.items())},
                         **{type(node): tok for tok, node in constants.items()}}
        # each class's binding level (prefix nodes bind above every binary
        # one, postfix nodes above them, leaves at atom), and the least level
        # that a binary class keeps unwrapped on its right, where the parser
        # ends its right operand
        prefixed = max(level for level, _, _ in binary.values()) + 1
        self.atom = prefixed + 2
        self.level = {cls: level for level, cls, _ in binary.values()}
        self.level.update((cls, prefixed) for cls in prefix.values())
        self.level.update((cls, prefixed + 1) for cls in postfix.values())
        self.least = {cls: level + (cls is not right) for level, cls, _ in binary.values()}
        # each class's number of operands, and the step that evaluates it
        self.arity = {**{type(node): 0 for node in constants.values()},
                      **{cls: 1 for cls in (*prefix.values(), *postfix.values())},
                      **{cls: 2 for _, cls, _ in binary.values()}}
        self.steps = {cls: (arity, cls) for cls, arity in self.arity.items()}
        # the printer's operations on (level, text): each operand is wrapped
        # when it binds below the least level its operator keeps unwrapped
        self.printer = {type(node): (self.atom, tok) for tok, node in constants.items()}
        for level, cls, shown in binary.values():
            self.printer[cls] = _infix(level, shown, level + (cls is right), self.least[cls])
        for tok, cls in prefix.items():
            self.printer[cls] = _affix(self.level[cls], tok, "")
        for tok, cls in postfix.items():
            self.printer[cls] = _affix(self.level[cls], "", tok)
        self.names = Env(lambda name: (self.atom, self.name(name)))
        # the fold of `variables`: a constant has none, an operator its operands'
        self.union = {cls: (frozenset(), lambda names: names, operator.or_)[arity]
                      for cls, arity in self.arity.items()}

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
        before any other error.  Precedence climbing on explicit stacks
        (shunting-yard), so no nesting is too deep: `pending` holds the open
        parentheses and the operators not yet given all their operands, and
        `operands` the left operands of its binary ones."""
        p = _Parser(self, text)
        p.read(0)
        operands, pending = [], []
        while True:
            while p.tok in self.prefix or p.tok == "(":
                pending.append(self.prefix.get(p.tok, _OPEN))
                p.read(p.after)
            node = p.operand()
            while True:  # after an operand: its postfixes, prefixes and ends
                p.read(p.after)
                while p.tok in self.postfix:
                    node = self.postfix[p.tok](node)
                    p.read(p.after)
                while pending and self.arity.get(pending[-1]) == 1:
                    node = pending.pop()(node)
                op = self.binary.get(p.tok)
                level = op[0] if op else 0
                # each binary operator whose right operand ends here
                while pending and pending[-1] is not _OPEN and level < self.least[pending[-1]]:
                    node = pending.pop()(operands.pop(), node)
                if op:
                    break
                if not pending:
                    if p.tok is not None:
                        raise p.error("end of input")
                    return node
                if p.tok != ")":  # pending ends in the '(' of this group
                    raise p.error("')'")
                pending.pop()
            operands.append(node)
            pending.append(op[1])
            p.read(p.after)

    def variables(self, node) -> frozenset[str]:
        """The names of node's variables, kept on each node folded (the
        nodes of both grammars have the slot, so the kind is checked)."""
        if not isinstance(node, self.variable._kind):
            raise TypeError(f"not a node of this grammar: {node!r}")
        names = node._vars
        return self.evaluate(node, _SINGLETONS, self.union, _VARS) if names is None else names

    def show(self, node, memo=None) -> str:
        """node's minimal-parenthesis text, folded by the printer; memo, if
        given, holds printed values (level, text) by node."""
        return self.evaluate(node, self.names, self.printer, memo)[1]

    def evaluate(self, node, env, ops, memo=None):
        """The value of node: a variable's is env[its name], a constant's is
        ops[its class], and an operator's is ops[its class] applied to the
        values of its operands (operations on masks or matrices, say, a
        grammar's constructors, or the printer).  A name env lacks raises
        UnassignedVariable, and a value that is no node TypeError.  Nothing
        recurses (see the module docstring): the steps of a post-order walk
        (`_steps`) run on a stack of values, each operator popping its
        operands'.  Without a memo the steps are compiled once per node, and
        kept on it (`program`).  memo, a mapping by node identity with
        `get` and no None values, is looked up at each node before its
        operands are visited and given each value computed, so a shared
        subtree is folded once."""
        values = []
        if memo is not None:
            value = memo.get(node)
            if value is not None:
                return value
            steps = self._steps(node, memo, values)
        else:  # a node of another grammar has no program: _steps says so
            steps = getattr(node, self.program, None)
            if steps is None:
                steps = tuple(self._steps(node))
                _set(node, self.program, steps)
        arity = 0
        try:
            for arity, key in steps:
                if arity < 0:
                    values.append(env[key])
                elif arity == 2:
                    right = values.pop()
                    values[-1] = ops[key](values[-1], right)
                elif arity:
                    values[-1] = ops[key](values[-1])
                else:
                    values.append(ops[key])
        except KeyError:
            if arity < 0:
                raise UnassignedVariable(key) from None
            raise
        return values[-1]

    def _steps(self, node, memo=None, values=None):
        """evaluate's steps for node, from one explicit stack, each node's
        after its operands', left to right: (arity, class), or (-1, name) at
        a variable.  A node in memo is no step: its value goes on values and
        its operands are skipped; each step's value, once evaluate has pushed
        it, goes in memo."""
        todo = [node]
        while todo:
            n = todo.pop()
            if n is _OPERANDS_DONE:
                n = todo.pop()
                yield self.steps[type(n)]
            else:
                if memo is not None:
                    value = memo.get(n)
                    if value is not None:
                        values.append(value)
                        continue
                arity = self.arity.get(type(n))
                if arity:
                    todo += ((n, _OPERANDS_DONE, n.right, n.left) if arity == 2
                             else (n, _OPERANDS_DONE, n.body))
                    continue
                if type(n) is self.variable:
                    yield -1, n.name
                elif arity == 0:
                    yield self.steps[type(n)]
                else:
                    raise TypeError(f"not a node of this grammar: {n!r}")
            if memo is not None:
                memo[n] = values[-1]


_OPEN = "("  # an open parenthesis among the parser's pending operators
_OPERANDS_DONE = object()  # on a walk's stack: the node under it has its operands' values


def _wrap(value, strength: int) -> str:
    level, text = value
    return "(" + text + ")" if level < strength else text


def _infix(level: int, shown: str, left: int, right: int):
    return lambda a, b: (level, _wrap(a, left) + shown + _wrap(b, right))


def _affix(level: int, before: str, after: str):
    return lambda a: (level, before + _wrap(a, level) + after)


class Env(dict):
    """An environment for Grammar.evaluate: its values, and of(name) for
    any other name."""
    __slots__ = ("of",)

    def __init__(self, of, values=()):
        super().__init__(values)
        self.of = of

    def __missing__(self, name):
        return self.of(name)


class _Parser:
    """The tokens of one text, each read when the parser comes to it; no
    part of the text is looked up in a memo."""

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

    def operand(self):
        """The constant or variable that the current token names."""
        g, tok = self.g, self.tok
        if tok in g.constants:
            return g.constants[tok]
        if tok is not None and "a" <= tok[0] <= "z" and tok not in g.reserved:
            return g.variable(tok)  # the tokenizer matched the whole name
        raise self.error(g.bad_operand)


FORMULAS = Grammar(
    symbols=r"->|[~&|()]",
    binary={"->": (1, Imp, " -> "), "|": (2, Or, " | "), "&": (3, And, " & "),
            "o": (4, Fusion, " o ")},
    right=Imp, prefix={"~": Neg}, postfix={}, constants={}, variable=Var,
    bad_token="a connective, '(' or an identifier",
    bad_operand="'~', '(' or an identifier",
    aliases={"∧": "&", "∨": "|", "→": "->", "¬": "~", "∘": "o", "～": "~"},
    program="_program")


CACHES: dict[str, Cache] = {}  # every Cache, by its name


class Cache(dict):
    """A module-level memo or store, listed by name in CACHES, with a bound
    on its weight: its number of entries, or the sum of weigh(value) over
    them if weigh is given.  It is emptied before an entry would push the
    weight past the bound.  Not Caches: the intern table `_TABLE`, which
    identity equality needs; `models._GRIDS`, which holds nothing alive;
    `algebra._proper_carrier`, which holds at most five carriers, one per
    base size 2 to 6."""

    __slots__ = ("name", "bound", "weigh")

    def __init__(self, name: str, bound: float, weigh=None):
        self.name, self.bound, self.weigh = name, bound, weigh
        CACHES[name] = self

    @property
    def weight(self):
        return len(self) if self.weigh is None else sum(map(self.weigh, self.values()))

    def keep(self, key, value):
        """Store value under key, emptying the cache first if the entry would
        push its weight past the bound, and return value."""
        weigh = self.weigh
        if (len(self) + 1 if weigh is None else self.weight + weigh(value)) > self.bound:
            self.clear()
        self[key] = value
        return value

    def grew(self, key, value) -> None:
        """Keep value alone if it, kept under key, has grown past the bound."""
        if self.get(key) is value and self.weight > self.bound:
            self.clear()
            self[key] = value


def clear_caches() -> None:
    """Empty every cache in CACHES."""
    for cache in CACHES.values():
        cache.clear()


_MEMO = Cache("formulas", MEMO_SIZE)  # text -> its node, weakly; see the module docstring


def parse_formula(text: str) -> Formula:
    """Parse the ASCII (or Unicode-aliased) syntax into a Formula.  A text
    parsed or printed before is looked up in the formula memo, if its node
    is alive; a ParseError is raised afresh each time."""
    ref = _MEMO.get(text)
    node = ref and ref()
    if node is None:
        node = FORMULAS.parse(text)
        _MEMO.keep(text, weakref.ref(node))
    return node


class _Slot:
    """A memo kept in one slot of each node, None until it is set."""

    def __init__(self, name: str):
        self.name, self.get = name, operator.attrgetter(name)

    def __setitem__(self, node, value):
        _set(node, self.name, value)


class _Texts(_Slot):
    """print_formula's memo: each node's printed value (level, text), in
    its _text slot; each new text also goes in the formula memo."""

    def __setitem__(self, node, value):
        _set(node, "_text", value)
        _MEMO.keep(value[1], weakref.ref(node))


_TEXTS = _Texts("_text")


def print_formula(f: Formula) -> str:
    """Minimal-parenthesis rendering; parse_formula(print_formula(f)) is f.
    Built once per node, from its children's texts, and then stored in the
    formula memo, so that parse_formula reads it back with one lookup."""
    shown = f._text
    return FORMULAS.show(f, _TEXTS) if shown is None else shown[1]


# ------------------------------------------------------------------
# Structural helpers: folds
# ------------------------------------------------------------------

_SAME = Env(Var)  # each variable is itself
_REBUILT = {cls: cls for cls in (Neg, And, Or, Imp, Fusion)}
_DESUGARED = {**_REBUILT, Fusion: lambda a, b: Neg(Imp(a, Neg(b)))}
_SINGLETONS = Env(lambda name: frozenset((name,)))
_VARS = _Slot("_vars")


def desugar_fusion(f: Formula) -> Formula:
    """Replace every fusion A o B by ~(A -> ~B), bottom up; a fusion-free
    formula comes back as it is."""
    return f if f._core else FORMULAS.evaluate(f, _SAME, _DESUGARED, {})


def is_core(f: Formula) -> bool:
    """True when f contains no fusion node."""
    return f._core


variables = FORMULAS.variables  # the names of a formula's variables


def shared_variables(a: Formula, b: Formula) -> frozenset[str]:
    return variables(a) & variables(b)


def substitution(mapping: dict[str, Formula]):
    """The map f -> f with each variable mapping names replaced by its
    formula.  The map remembers the image of each node it meets, so a
    subformula shared by the formulas it is given is substituted once.  It
    holds no reference to itself, so its images go when it does."""
    env, images = Env(Var, mapping), {}
    return lambda f: FORMULAS.evaluate(f, env, _REBUILT, images)


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Uniformly replace variables by formulas (schema instantiation)."""
    return substitution(mapping)(f)
