"""A small textual language for naming groups, elements, and connection sets.

Expressions build groups: ``C(n)``, ``D(n)``, ``Q8``, ``Dih(expr)``,
``Dic(expr, word)``, ``expr x expr``, ``Wr2(expr)``, ``Perm[(0 1 2), ...]``,
and bare names referring to earlier ``let`` declarations.  Words multiply
generator names with optional ``^k`` powers; connection sets wrap words in
braces, with an explicit ``+inv`` suffix when the inverses should be added
(they are never added silently).  Programs are lines: ``let name = expr``
declarations, comment lines starting with ``#``, and task lines in shell
syntax.
"""

from __future__ import annotations

import shlex
from typing import NamedTuple

from .errors import SpecElabError, SpecSyntaxError
from .groups import (FiniteGroup, closure, cyclic, dihedral, direct_product,
                     generalized_dicyclic, generalized_dihedral, quaternion,
                     within_cap, wreath_c2)
from .perm import from_cycles

# brackets open at once plus products met, at most, in one expression: each
# is one level of the recursion that parses, prints and elaborates it
_MAX_NESTING = 100

_PUNCT = {"(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
          "[": "LBRACKET", "]": "RBRACKET", ",": "COMMA", "^": "CARET",
          "*": "STAR", "+": "PLUS", "-": "MINUS", "=": "EQUALS"}


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, line_offset: int = 1) -> list[Token]:
    out = []
    line = line_offset
    col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            out.append(Token(_PUNCT[ch], ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise SpecSyntaxError(f"unexpected character {ch!r}", line, col)
    out.append(Token("EOF", "", line, col))
    return out


def _node(cls):
    """Equal by class and fields, ignoring the trailing source position."""
    k = len(cls._fields) - (cls._fields[-1] in ("pos", "line"))
    cls.__eq__ = lambda a, b: type(a) is type(b) and a[:k] == b[:k]
    cls.__ne__ = lambda a, b: not a == b
    cls.__hash__ = lambda a: hash(a[:k])
    return cls


@_node
class Atom(NamedTuple):
    """One factor of a word: a generator name raised to an integer power."""

    name: str
    exp: int = 1


@_node
class Word(NamedTuple):
    atoms: tuple[Atom, ...]
    pos: tuple[int, int] = (1, 1)


@_node
class Connection(NamedTuple):
    words: tuple[Word, ...]
    close_inverses: bool = False


@_node
class ECyclic(NamedTuple):
    n: int
    pos: tuple[int, int] = (1, 1)


@_node
class EDihedral(NamedTuple):
    n: int
    pos: tuple[int, int] = (1, 1)


@_node
class EQ8(NamedTuple):
    pos: tuple[int, int] = (1, 1)


@_node
class EDih(NamedTuple):
    inner: object
    pos: tuple[int, int] = (1, 1)


@_node
class EDic(NamedTuple):
    inner: object
    word: Word
    pos: tuple[int, int] = (1, 1)


@_node
class EProduct(NamedTuple):
    left: object
    right: object
    pos: tuple[int, int] = (1, 1)


@_node
class EWreath(NamedTuple):
    inner: object
    pos: tuple[int, int] = (1, 1)


@_node
class EPerms(NamedTuple):
    """Explicit generators, each a product of cycles over points 0..d-1."""

    gens: tuple[tuple[tuple[int, ...], ...], ...]
    pos: tuple[int, int] = (1, 1)


@_node
class ERef(NamedTuple):
    name: str
    pos: tuple[int, int] = (1, 1)


@_node
class Task(NamedTuple):
    argv: tuple[str, ...]
    line: int = 1


@_node
class SpecProgram(NamedTuple):
    declarations: tuple[tuple[str, object], ...]
    tasks: tuple[Task, ...]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0  # brackets open now plus products met so far

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise SpecSyntaxError(
                f"expected {what}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        return self.advance()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "EOF":
            raise SpecSyntaxError(f"unexpected trailing {tok.text!r}",
                                  tok.line, tok.col)

    # ---- expressions -----------------------------------------------------

    def nest(self, tok: Token) -> None:
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise SpecSyntaxError(
                f"more than {_MAX_NESTING} brackets and products nested",
                tok.line, tok.col)

    def parse_inner(self, bracket: Token):
        """An expression inside ``bracket``, one level deeper."""
        self.nest(bracket)
        inner = self.parse_expr()
        self.nesting -= 1
        return inner

    def parse_expr(self):
        tok = self.peek()
        node = self.parse_term()
        while self.peek().kind == "NAME" and self.peek().text == "x":
            self.nest(self.advance())
            right = self.parse_term()
            node = EProduct(node, right, pos=(tok.line, tok.col))
        return node

    def parse_term(self):
        tok = self.peek()
        if tok.kind == "LPAREN":
            inner = self.parse_inner(self.advance())
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind != "NAME":
            raise SpecSyntaxError(
                f"expected a group expression, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        self.advance()
        pos = (tok.line, tok.col)
        head = tok.text
        if head == "C" or head == "D":
            self.expect("LPAREN", "'('")
            num = self.expect("INT", "an integer")
            self.expect("RPAREN", "')'")
            cls = ECyclic if head == "C" else EDihedral
            return cls(int(num.text), pos=pos)
        if head == "Q8":
            return EQ8(pos=pos)
        if head == "Dih":
            inner = self.parse_inner(self.expect("LPAREN", "'('"))
            self.expect("RPAREN", "')'")
            return EDih(inner, pos=pos)
        if head == "Dic":
            inner = self.parse_inner(self.expect("LPAREN", "'('"))
            self.expect("COMMA", "','")
            word = self.parse_word(("RPAREN",))
            self.expect("RPAREN", "')'")
            return EDic(inner, word, pos=pos)
        if head == "Wr2":
            inner = self.parse_inner(self.expect("LPAREN", "'('"))
            self.expect("RPAREN", "')'")
            return EWreath(inner, pos=pos)
        if head == "Perm":
            self.expect("LBRACKET", "'['")
            gens = [self.parse_perm_gen()]
            while self.peek().kind == "COMMA":
                self.advance()
                gens.append(self.parse_perm_gen())
            self.expect("RBRACKET", "']'")
            return EPerms(tuple(gens), pos=pos)
        return ERef(head, pos=pos)

    def parse_perm_gen(self) -> tuple[tuple[int, ...], ...]:
        cycles = []
        tok = self.peek()
        if tok.kind != "LPAREN":
            raise SpecSyntaxError("expected a cycle '(p q ...)'",
                                  tok.line, tok.col)
        while self.peek().kind == "LPAREN":
            self.advance()
            points = []
            while self.peek().kind == "INT":
                points.append(int(self.advance().text))
            self.expect("RPAREN", "')'")
            if len(points) < 2:
                raise SpecSyntaxError("a cycle needs at least two points",
                                      tok.line, tok.col)
            cycles.append(tuple(points))
        return tuple(cycles)

    # ---- words and connection sets ---------------------------------------

    def parse_word(self, stop_kinds: tuple[str, ...]) -> Word:
        tok = self.peek()
        atoms = []
        while True:
            cur = self.peek()
            if cur.kind in stop_kinds or cur.kind == "EOF":
                break
            if cur.kind == "STAR":
                self.advance()
                continue
            if cur.kind != "NAME":
                raise SpecSyntaxError(
                    f"expected a generator name, found {cur.text!r}",
                    cur.line, cur.col)
            self.advance()
            exp = 1
            if self.peek().kind == "CARET":
                self.advance()
                sign = 1
                if self.peek().kind == "MINUS":
                    self.advance()
                    sign = -1
                num = self.expect("INT", "an exponent")
                exp = sign * int(num.text)
            atoms.append(Atom(cur.text, exp))
        if not atoms:
            raise SpecSyntaxError("expected a word", tok.line, tok.col)
        return Word(tuple(atoms), pos=(tok.line, tok.col))

    def parse_connection(self) -> Connection:
        self.expect("LBRACE", "'{'")
        words = [self.parse_word(("COMMA", "RBRACE"))]
        while self.peek().kind == "COMMA":
            self.advance()
            words.append(self.parse_word(("COMMA", "RBRACE")))
        self.expect("RBRACE", "'}'")
        close = False
        if self.peek().kind == "PLUS":
            plus = self.advance()
            tag = self.expect("NAME", "'inv' after '+'")
            if tag.text != "inv":
                raise SpecSyntaxError("only '+inv' may follow a connection set",
                                      plus.line, plus.col)
            close = True
        return Connection(tuple(words), close)


def parse_expr(text: str, line: int = 1):
    p = _Parser(_tokenize(text, line))
    node = p.parse_expr()
    p.expect_end()
    return node


def parse_word(text: str, line: int = 1) -> Word:
    p = _Parser(_tokenize(text, line))
    word = p.parse_word(())
    p.expect_end()
    return word


def parse_connection(text: str, line: int = 1) -> Connection:
    p = _Parser(_tokenize(text, line))
    conn = p.parse_connection()
    p.expect_end()
    return conn


def parse_program(text: str) -> SpecProgram:
    decls: list[tuple[str, object]] = []
    names = set()
    tasks: list[Task] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split(maxsplit=1)[0] == "let":
            p = _Parser(_tokenize(raw, lineno))
            p.expect("NAME", "'let'")
            name_tok = p.expect("NAME", "a declaration name")
            if name_tok.text in names:
                raise SpecSyntaxError(
                    f"name {name_tok.text!r} declared twice",
                    name_tok.line, name_tok.col)
            p.expect("EQUALS", "'='")
            expr = p.parse_expr()
            p.expect_end()
            names.add(name_tok.text)
            decls.append((name_tok.text, expr))
            continue
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            raise SpecSyntaxError(str(exc), lineno, 1) from None
        tasks.append(Task(tuple(argv), line=lineno))
    return SpecProgram(tuple(decls), tuple(tasks))


# ---- canonical printing ---------------------------------------------------

def print_expr(e) -> str:
    if isinstance(e, ECyclic):
        return f"C({e.n})"
    if isinstance(e, EDihedral):
        return f"D({e.n})"
    if isinstance(e, EQ8):
        return "Q8"
    if isinstance(e, EDih):
        return f"Dih({print_expr(e.inner)})"
    if isinstance(e, EDic):
        return f"Dic({print_expr(e.inner)}, {print_word(e.word)})"
    if isinstance(e, EWreath):
        return f"Wr2({print_expr(e.inner)})"
    if isinstance(e, EProduct):
        right = print_expr(e.right)
        if isinstance(e.right, EProduct):
            right = f"({right})"
        return f"{print_expr(e.left)} x {right}"
    if isinstance(e, EPerms):
        gens = []
        for cycles in e.gens:
            gens.append("".join(
                "(" + " ".join(str(p) for p in cyc) + ")" for cyc in cycles))
        return "Perm[" + ", ".join(gens) + "]"
    if isinstance(e, ERef):
        return e.name
    raise TypeError(f"not an expression node: {e!r}")


def print_word(w: Word) -> str:
    parts = []
    for a in w.atoms:
        parts.append(a.name if a.exp == 1 else f"{a.name}^{a.exp}")
    return "*".join(parts)


def print_connection(c: Connection) -> str:
    body = "{" + ", ".join(print_word(w) for w in c.words) + "}"
    return body + " +inv" if c.close_inverses else body


def print_program(p: SpecProgram) -> str:
    lines = [f"let {name} = {print_expr(expr)}" for name, expr in
             p.declarations]
    lines.extend(shlex.join(t.argv) for t in p.tasks)
    return "\n".join(lines) + "\n"


# ---- elaboration ----------------------------------------------------------

def _at(pos: tuple[int, int], msg: str) -> SpecElabError:
    return SpecElabError(f"line {pos[0]}, column {pos[1]}: {msg}")


def elaborate(e, env: dict[str, FiniteGroup] | None = None) -> FiniteGroup:
    """Build the group an expression denotes.

    ``env`` provides declared names.  Every constructed order is checked
    against ``default_cap()`` before its table is built, and so is the
    degree of ``Perm[...]`` before its generators are; overruns raise
    CapExceededError.  Structural misuse (Dih of a non-abelian group, a bad
    Dic involution) raises SpecElabError carrying the source position.
    """
    env = env or {}
    if isinstance(e, ECyclic):
        if e.n < 1:
            raise _at(e.pos, "C(n) needs n >= 1")
        within_cap(e.n)
        return cyclic(e.n)
    if isinstance(e, EDihedral):
        within_cap(2 * e.n)
        try:
            return dihedral(e.n)
        except ValueError as exc:
            raise _at(e.pos, str(exc)) from None
    if isinstance(e, EQ8):
        within_cap(8)
        return quaternion()
    if isinstance(e, EDih):
        inner = elaborate(e.inner, env)
        within_cap(2 * inner.order)
        try:
            return generalized_dihedral(inner)
        except ValueError as exc:
            raise _at(e.pos, str(exc)) from None
    if isinstance(e, EDic):
        inner = elaborate(e.inner, env)
        y = evaluate_word(e.word, inner)
        within_cap(2 * inner.order)
        try:
            return generalized_dicyclic(inner, y)
        except ValueError as exc:
            raise _at(e.pos, str(exc)) from None
    if isinstance(e, EProduct):
        left = elaborate(e.left, env)
        right = elaborate(e.right, env)
        return direct_product(left, right)
    if isinstance(e, EWreath):
        inner = elaborate(e.inner, env)
        return wreath_c2(inner)
    if isinstance(e, EPerms):
        degree = 0
        for cycles in e.gens:
            for cyc in cycles:
                degree = max(degree, max(cyc) + 1)
        if degree == 0:
            raise _at(e.pos, "Perm needs at least one cycle")
        within_cap(degree, what="degree")
        perms = []
        for cycles in e.gens:
            try:
                perms.append(from_cycles(degree, cycles))
            except ValueError as exc:
                raise _at(e.pos, str(exc)) from None
        return closure(perms)
    if isinstance(e, ERef):
        if e.name not in env:
            raise _at(e.pos, f"unknown name {e.name!r}")
        return env[e.name]
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_word(w: Word, group: FiniteGroup) -> int:
    """Multiply out a word over the group's named generators."""
    acc = group.identity
    for a in w.atoms:
        if a.name not in group.generators:
            known = ", ".join(sorted(group.generators)) or "none"
            raise _at((w.pos[0], w.pos[1]),
                      f"unknown generator {a.name!r} (available: {known})")
        acc = group.mult(acc, group.power(group.generators[a.name], a.exp))
    return acc


def elaborate_connection(c: Connection, group: FiniteGroup) -> list[int]:
    """Resolve a connection set to sorted element indices.

    ``+inv`` adds inverses; without it the set is used exactly as written
    (the graph constructor rejects sets that are not inverse-closed).
    """
    out = set()
    for w in c.words:
        idx = evaluate_word(w, group)
        if idx == group.identity:
            raise _at(w.pos, "the identity cannot lie in a connection set")
        out.add(idx)
    if c.close_inverses:
        out |= {group.inverse[i] for i in out}
    return sorted(out)
