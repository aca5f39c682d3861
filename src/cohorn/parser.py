"""Parser and renderer for the declaration language.

A source module is a sequence of `axiom`, `lemma` and `auto` declarations
under a `module <name> where` header.  Files use the `.asl` extension,
UTF-8 encoding and `--` line comments; LF and CRLF both work.

Grammar::

    module := "module" IDENT "where" decl*
    decl   := ("axiom" | "lemma" | "auto") horn
    horn   := [ "(" atom ("," atom)* ")" "=>" | atom "=>" ] atom
    atom   := UPPER_IDENT aterm*
    aterm  := UPPER_IDENT | LOWER_IDENT | "(" term ")" | "(" term "," term ")"
    term   := aterm+                       -- left-associative application

`(t1, t2)` is sugar for `Pair t1 t2`.  A lone atom parses as the bodiless
clause `=> A`.

An identifier starts with a letter (`str.isalpha`) and goes on with
letters, digits (`str.isalnum`), `_` and `'`.  The keywords `module`,
`where`, `axiom`, `lemma` and `auto` are reserved: none of them is an
identifier anywhere, so `Eq (lemma)` is an error.  Blanks are space, tab,
CR and LF.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    App,
    Atom,
    Const,
    HornFormula,
    Term,
    Var,
    free_vars,
    pair,
    render_atom,
    render_evidence,
    render_horn,
)

KEYWORDS = {"module", "where", "axiom", "lemma", "auto"}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ScopeError(Exception):
    """A body variable does not occur in the head of its clause."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Decl:
    kind: str  # "axiom" | "lemma" | "auto"
    formula: HornFormula
    line: int


@dataclass(frozen=True)
class SourceModule:
    name: str
    decls: tuple[Decl, ...]


# ---------------------------------------------------------------------------
# Lexer: tokens are (kind, text, line, col) tuples, kind one of "ident",
# "keyword", "punct" and "eof"

_LEXEME = re.compile(
    r"(?P<nl>\n)|[ \t\r]+|--[^\n]*"  # blanks and comments have no group
    r"|(?P<punct>=>|[(),])|(?P<ident>\w[\w']*)|(?P<bad>.)"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    toks = []
    line, start = 1, 0  # the current line and the offset of its first character
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind is None:  # blanks or a comment
            continue
        if kind == "nl":
            line += 1
            start = m.end()
            continue
        word = m.group()
        col = m.start() - start + 1
        if kind == "ident":
            # `\w` also matches digits and "_", which cannot start a name
            if not word[0].isalpha():
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            if word in KEYWORDS:
                kind = "keyword"
        elif kind == "bad":
            raise ParseError(f"unexpected character {word!r}", line, col)
        toks.append((kind, word, line, col))
    # end of input sits after the last line's text, less a trailing comment
    last = text[start:]
    cut = last.find("--")
    toks.append(("eof", "", line, (len(last) if cut < 0 else cut) + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser: recursive descent for the flat rules, a loop for nested terms


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.toks[self.pos]

    def fail(self, msg: str):
        kind, text, line, col = self.peek()
        got = text if kind != "eof" else "end of input"
        raise ParseError(f"{msg}, got {got!r}", line, col)

    def expect(self, kind: str, text: str):
        t = self.peek()
        if t[0] != kind or t[1] != text:
            self.fail(f"expected {text!r}")
        self.pos += 1

    # grammar rules -------------------------------------------------------

    def module(self) -> SourceModule:
        self.expect("keyword", "module")
        if self.peek()[0] != "ident":
            self.fail("expected an identifier")
        name = self.peek()[1]
        self.pos += 1
        self.expect("keyword", "where")
        decls = []
        while self.peek()[0] != "eof":
            decls.append(self.decl())
        return SourceModule(name, tuple(decls))

    def decl(self) -> Decl:
        kind, text, line, _ = self.peek()
        if kind != "keyword" or text not in ("axiom", "lemma", "auto"):
            self.fail("expected 'axiom', 'lemma' or 'auto'")
        self.pos += 1
        formula = self.horn()
        _check_scope(formula, line)
        return Decl(text, formula, line)

    def horn(self) -> HornFormula:
        body: tuple[Atom, ...] = ()
        if self.peek()[1] == "(":
            # atoms never start with '(' so this must be a context list
            self.pos += 1
            atoms = [self.atom()]
            while self.peek()[1] == ",":
                self.pos += 1
                atoms.append(self.atom())
            self.expect("punct", ")")
            self.expect("punct", "=>")
            body = tuple(atoms)
        else:
            first = self.atom()
            if self.peek()[1] != "=>":
                return HornFormula((), first)
            self.pos += 1
            body = (first,)
        return HornFormula(body, self.atom())

    def atom(self) -> Atom:
        kind, text, _, _ = self.peek()
        if kind != "ident" or not text[0].isupper():
            self.fail("expected a predicate (uppercase identifier)")
        self.pos += 1
        args = []
        while self.peek()[0] == "ident" or self.peek()[1] == "(":
            args.append(self.aterm())
        return Atom(text, tuple(args))

    def aterm(self) -> Term:
        """An identifier, `(term)` or `(term, term)`, where a term is one or
        more aterms applied left to right.  Each open parenthesis is one
        stack entry: the application read so far inside it, and the first
        component once a comma has been read."""
        toks = self.toks
        stack: list[tuple[Term | None, Term | None]] = []
        while True:
            kind, text, _, _ = toks[self.pos]
            if kind != "ident":
                self.expect("punct", "(")
                stack.append((None, None))
                continue
            self.pos += 1
            t = Const(text) if text[0].isupper() else Var(text)
            # fold the finished aterm into the innermost open parenthesis,
            # closing parentheses until one expects a further aterm
            while stack:
                app, first = stack.pop()
                app = t if app is None else App(app, t)
                kind, text, _, _ = toks[self.pos]
                if kind == "ident" or text == "(":
                    stack.append((app, first))
                    break
                if text == "," and first is None:
                    self.pos += 1
                    stack.append((None, app))
                    break
                self.expect("punct", ")")
                t = app if first is None else pair(first, app)
            else:
                return t


def _check_scope(f: HornFormula, line: int):
    head_vars = set(free_vars(f.head))
    for b in f.body:
        for v in free_vars(b):
            if v not in head_vars:
                raise ScopeError(
                    f"variable {v!r} occurs in the body but not in the head "
                    f"of {render_horn(f)}",
                    line,
                )


def parse_module(text: str) -> SourceModule:
    return _Parser(text).module()


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. a --goal argument."""
    p = _Parser(text)
    a = p.atom()
    if p.peek()[0] != "eof":
        p.fail("trailing input after atom")
    return a


# ---------------------------------------------------------------------------
# Rendering


def render(x) -> str:
    """Render a module, declaration, formula, atom or evidence term.

    parse_module(render(m)) is structurally equal to m for well-formed
    modules.
    """
    if isinstance(x, SourceModule):
        lines = [f"module {x.name} where"]
        lines.extend(render(d) for d in x.decls)
        return "\n".join(lines) + "\n"
    if isinstance(x, Decl):
        return f"{x.kind} {render_horn(x.formula)}"
    if isinstance(x, HornFormula):
        return render_horn(x)
    if isinstance(x, Atom):
        return render_atom(x)
    return render_evidence(x)
