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
"""

from __future__ import annotations

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
# Tokenizer


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "punct" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "-" and text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "(),":
            toks.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        if text.startswith("=>", i):
            toks.append(Token("punct", "=>", line, col))
            i += 2
            col += 2
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Recursive descent


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str):
        t = self.peek()
        got = t.text if t.kind != "eof" else "end of input"
        raise ParseError(f"{msg}, got {got!r}", t.line, t.col)

    def expect_punct(self, text: str) -> Token:
        t = self.peek()
        if t.kind != "punct" or t.text != text:
            self.fail(f"expected {text!r}")
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text != word:
            self.fail(f"expected {word!r}")
        return self.next()

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.fail("expected an identifier")
        return self.next()

    # grammar rules -------------------------------------------------------

    def module(self) -> SourceModule:
        self.expect_keyword("module")
        name = self.expect_ident().text
        self.expect_keyword("where")
        decls = []
        while self.peek().kind != "eof":
            decls.append(self.decl())
        return SourceModule(name, tuple(decls))

    def decl(self) -> Decl:
        t = self.peek()
        if t.kind != "ident" or t.text not in ("axiom", "lemma", "auto"):
            self.fail("expected 'axiom', 'lemma' or 'auto'")
        self.next()
        formula = self.horn()
        _check_scope(formula, t.line)
        return Decl(t.text, formula, t.line)

    def horn(self) -> HornFormula:
        body: tuple[Atom, ...] = ()
        t = self.peek()
        if t.kind == "punct" and t.text == "(":
            # atoms never start with '(' so this must be a context list
            self.next()
            atoms = [self.atom()]
            while self.peek().text == ",":
                self.next()
                atoms.append(self.atom())
            self.expect_punct(")")
            self.expect_punct("=>")
            body = tuple(atoms)
        else:
            first = self.atom()
            if self.peek().text == "=>":
                self.next()
                body = (first,)
            else:
                return HornFormula((), first)
        return HornFormula(body, self.atom())

    def atom(self) -> Atom:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS or not t.text[0].isupper():
            self.fail("expected a predicate (uppercase identifier)")
        pred = self.next().text
        args = []
        while self._at_aterm():
            args.append(self.aterm())
        return Atom(pred, tuple(args))

    def _at_aterm(self) -> bool:
        t = self.peek()
        if t.kind == "ident" and t.text not in KEYWORDS:
            return True
        return t.kind == "punct" and t.text == "("

    def aterm(self) -> Term:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return Const(t.text) if t.text[0].isupper() else Var(t.text)
        self.expect_punct("(")
        first = self.term()
        if self.peek().text == ",":
            self.next()
            second = self.term()
            self.expect_punct(")")
            return pair(first, second)
        self.expect_punct(")")
        return first

    def term(self) -> Term:
        t = self.aterm()
        while self._at_aterm():
            t = App(t, self.aterm())
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
    if p.peek().kind != "eof":
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
