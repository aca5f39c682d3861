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

The lexer splits each line, less its `--` comment, into token strings with
one `findall` and keeps the index of each line's first token, so a line is
a bisect; a column is computed only for an error, by scanning its line
again with the same regex.  A clause is in scope when every variable name
the term rule read in its body was read in its head as well.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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
# Lexer: a token is its text, "" standing for the end of input

_TOKEN = re.compile(r"=>|[(),]|\w[\w']*|[^ \t\r]")
_PUNCT = {"(", ")", ",", "=>"}
_NOT_NAMES = _PUNCT | KEYWORDS | {""}
_ENDS = _NOT_NAMES - {"("}  # the tokens that start no aterm


def _code(line: str) -> str:
    cut = line.find("--")
    return line if cut < 0 else line[:cut]


# ---------------------------------------------------------------------------
# Parser: recursive descent for the flat rules, a loop for nested terms


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        toks, starts = [], []  # the tokens, and the index of each line's first
        for line in self.lines:
            starts.append(len(toks))
            toks += _TOKEN.findall(_code(line))
        self.toks, self.starts, self.pos = toks, starts, 0
        # `\w` also matches digits and "_", which cannot start a name; any
        # bad token fails the whole text before parsing starts
        bad = {t for t in set(toks) if not t[0].isalpha() and t not in _PUNCT}
        if bad:
            self.pos = next(i for i, t in enumerate(toks) if t in bad)
            raise ParseError(f"unexpected character {toks[self.pos][0]!r}", *self.where())
        toks.append("")
        self.names: list[str] = []  # the variable names the term rule read
        self.leaves: dict[str, Term] = {}  # one Const or Var per name

    def where(self) -> tuple[int, int]:
        """Line and column of the current token, from a second scan of its
        line; the end of input sits after the last line's code."""
        line = bisect_right(self.starts, self.pos)
        code = _code(self.lines[line - 1])
        cols = [m.start() for m in _TOKEN.finditer(code)] + [len(code)]
        return line, cols[self.pos - self.starts[line - 1]] + 1

    def fail(self, msg: str):
        got = self.toks[self.pos] or "end of input"
        raise ParseError(f"{msg}, got {got!r}", *self.where())

    def expect(self, text: str):
        if self.toks[self.pos] != text:
            self.fail(f"expected {text!r}")
        self.pos += 1

    # grammar rules -------------------------------------------------------

    def module(self) -> SourceModule:
        self.expect("module")
        name = self.toks[self.pos]
        if name in _NOT_NAMES:
            self.fail("expected an identifier")
        self.pos += 1
        self.expect("where")
        toks, decls = self.toks, []
        while toks[self.pos]:
            decls.append(self.decl())
        return SourceModule(name, tuple(decls))

    def decl(self) -> Decl:
        pos = self.pos
        kind = self.toks[pos]
        if kind not in ("axiom", "lemma", "auto"):
            self.fail("expected 'axiom', 'lemma' or 'auto'")
        self.pos += 1
        names = self.names
        names.clear()
        formula = self.horn()
        line = bisect_right(self.starts, pos)
        # a clause is in scope when its body reads no name its head does not
        if formula.body and not set(names[: self.head_from]).issubset(names[self.head_from :]):
            _scope_error(formula, line)
        return Decl(kind, formula, line)

    def horn(self) -> HornFormula:
        toks = self.toks
        if toks[self.pos] == "(":
            # atoms never start with '(' so this must be a context list
            self.pos += 1
            atoms = [self.atom()]
            while toks[self.pos] == ",":
                self.pos += 1
                atoms.append(self.atom())
            self.expect(")")
            self.expect("=>")
            body = tuple(atoms)
        else:
            first = self.atom()
            if toks[self.pos] != "=>":
                return HornFormula((), first)
            self.pos += 1
            body = (first,)
        self.head_from = len(self.names)
        return HornFormula(body, self.atom())

    def atom(self) -> Atom:
        pred = self.toks[self.pos]
        if pred in _NOT_NAMES or not pred[0].isupper():
            self.fail("expected a predicate (uppercase identifier)")
        self.pos += 1
        return Atom(pred, self.aterms())

    def aterms(self) -> tuple[Term, ...]:
        """The aterms up to a token that starts none.  An aterm is an
        identifier, `(term)` or `(term, term)`, where a term is one or more
        aterms applied left to right.  Each open parenthesis is one stack
        entry: the application read so far inside it, and the first
        component once a comma has been read."""
        toks, pos, names, leaves = self.toks, self.pos, self.names, self.leaves
        args: list[Term] = []
        stack: list[tuple[Term | None, Term | None]] = []
        while True:
            text = toks[pos]
            if text in _NOT_NAMES:
                if text == "(":
                    pos += 1
                    stack.append((None, None))
                    continue
                self.pos = pos
                if stack:
                    self.fail("expected a term")
                return tuple(args)
            pos += 1
            t = leaves.get(text)
            if t is None:
                t = leaves[text] = Const(text) if text[0].isupper() else Var(text)
            if t.__class__ is Var:
                names.append(text)
            # fold the finished aterm into the innermost open parenthesis,
            # closing parentheses until one expects a further aterm
            while stack:
                app, first = stack.pop()
                app = t if app is None else App(app, t)
                text = toks[pos]
                if text not in _ENDS:
                    stack.append((app, first))
                    break
                if text == "," and first is None:
                    pos += 1
                    stack.append((None, app))
                    break
                if text != ")":
                    self.pos = pos
                    self.fail("expected ')'")
                pos += 1
                t = app if first is None else pair(first, app)
            else:
                args.append(t)


def _scope_error(f: HornFormula, line: int):
    """Raise for the first body variable missing from the head."""
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
    if p.toks[p.pos]:
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
