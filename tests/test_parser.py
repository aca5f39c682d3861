import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass

import pytest

from cohorn.parser import (
    KEYWORDS,
    Decl,
    ParseError,
    ScopeError,
    SourceModule,
    parse_atom,
    parse_module,
    render,
)
from cohorn.syntax import (
    App,
    Atom,
    Const,
    HornFormula,
    Term,
    Var,
    fact,
    free_vars,
    mk_app,
    pair,
    render_horn,
)
from conftest import CORPUS, eq

BUSH = """\
module bush where
axiom Eq (f (Mu f) a) => Eq (Mu f a)
axiom (Eq a, Eq (f (f a))) => Eq (HBush f a)
axiom Eq Unit
auto Eq (Mu HBush Unit)
"""


def test_minimal_module():
    m = parse_module("module m where\naxiom Eq Unit\nauto Eq Unit\n")
    assert m.name == "m"
    assert [d.kind for d in m.decls] == ["axiom", "auto"]
    assert m.decls[0].formula == fact(eq(Const("Unit")))
    assert m.decls[1].formula == fact(eq(Const("Unit")))


def test_bush_module():
    m = parse_module(BUSH)
    assert m.name == "bush"
    assert [d.kind for d in m.decls] == ["axiom", "axiom", "axiom", "auto"]
    f, a = Var("f"), Var("a")
    mu_axiom = HornFormula(
        (eq(mk_app(f, App(Const("Mu"), f), a)),), eq(mk_app(Const("Mu"), f, a))
    )
    hbush_axiom = HornFormula(
        (eq(a), eq(App(f, App(f, a)))), eq(mk_app(Const("HBush"), f, a))
    )
    assert m.decls[0].formula == mu_axiom
    assert m.decls[1].formula == hbush_axiom
    assert m.decls[2].formula == fact(eq(Const("Unit")))
    assert m.decls[3].formula == fact(
        eq(mk_app(Const("Mu"), Const("HBush"), Const("Unit")))
    )


def test_body_variable_missing_from_head_is_a_scope_error():
    with pytest.raises(ScopeError):
        parse_module("module m where\naxiom Eq y => Eq (List x)\n")


def test_single_atom_context_without_parens():
    m = parse_module("module m where\naxiom Eq a => Eq (Maybe a)\n")
    assert m.decls[0].formula == HornFormula(
        (eq(Var("a")),), eq(App(Const("Maybe"), Var("a")))
    )


def test_pair_sugar():
    m = parse_module("module m where\nauto Eq (Int, Int)\n")
    assert m.decls[0].formula.head == eq(pair(Const("Int"), Const("Int")))


def test_comments_and_crlf():
    text = "-- a comment\r\nmodule m where\r\n-- another\r\nauto Eq Unit\r\n"
    m = parse_module(text)
    assert m.decls[0].formula.head == eq(Const("Unit"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_module("module m where\naxiom => Eq Unit\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_module("axiom Eq Unit\n")  # missing header


def test_auto_accepts_bare_atoms_and_full_formulas():
    m = parse_module("module m where\nauto D Z Z\nlemma Q x => Q (S x)\n")
    assert m.decls[0].formula == fact(Atom("D", (Const("Z"), Const("Z"))))
    assert m.decls[1].formula == HornFormula(
        (Atom("Q", (Var("x"),)),), Atom("Q", (App(Const("S"), Var("x")),))
    )


def test_parse_atom_helper():
    got = parse_atom("Eq (Mu HPTree x)")
    assert got == eq(mk_app(Const("Mu"), Const("HPTree"), Var("x")))


def test_deep_terms_parse_at_the_default_recursion_limit():
    # in a child, since `cohorn.cli.main` raises this interpreter's limit
    code = """
import sys
from cohorn.parser import parse_atom, parse_module
from cohorn.syntax import App, Atom, Const, Var, pair
assert sys.getrecursionlimit() <= 1000
n = 10_000
chain, pairs = Const("Z"), Var("x")
for _ in range(n):
    chain, pairs = App(Const("S"), chain), pair(Var("x"), pairs)
for text, term in [("(S " * n + "Z" + ")" * n, chain), ("(x, " * n + "x" + ")" * n, pairs)]:
    want = Atom("Eq", (term,))
    assert parse_atom("Eq " + text) == want
    module = parse_module("module m where\\nauto Eq " + text + "\\n")
    assert module.decls[0].formula.head == want
print("ok")
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(CORPUS.parent.parent / "src")},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def test_deep_modules_print_and_parse_back_at_the_default_recursion_limit():
    # in a child, since `cohorn.cli.main` raises this interpreter's limit;
    # the printer used to recurse once per nesting level
    code = """
import sys
from cohorn.parser import parse_module, render
from cohorn.syntax import EApp, EAxiom, ELam, render_evidence
assert sys.getrecursionlimit() <= 1000
n = 10_000
chain, pairs = "(S " * n + "Z" + ")" * n, "(x, " * n + "x" + ")" * n
for text in (chain, pairs):
    module = parse_module(
        f"module m where\\naxiom Eq {chain}\\nlemma Eq x => Eq (x, {text})\\nauto Eq {text}\\n"
    )
    printed = render(module)
    assert parse_module(printed) == module
    assert render(parse_module(printed)) == printed
ev, lam = EAxiom("KZ"), EAxiom("KZ")
for _ in range(n):
    ev, lam = EApp(EAxiom("KS"), ev), ELam("b", lam)
assert render_evidence(ev, atomic=True) == "(KS " * n + "KZ" + ")" * n
assert render_evidence(lam) == "\\\\ b . " * n + "KZ"
print("ok")
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(CORPUS.parent.parent / "src")},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


# ---------------------------------------------------------------------------
# pinned errors: message, line and column of each malformed input

# (entry point, input, error class, message, line, column or None)
ERROR_TABLE = [
    ('module', 'module m where\n_x', "ParseError", "unexpected character '_'", 2, 1),
    ('module', 'module m where\naxiom Eq 1', "ParseError", "unexpected character '1'", 2, 10),
    ('module', "module m where\naxiom Eq 'a", "ParseError", 'unexpected character "\'"', 2, 10),
    ('module', 'module m where\naxiom Eq ²', "ParseError", "unexpected character '²'", 2, 10),
    ('module', '\ufeffmodule m where\n', "ParseError", "unexpected character '\\ufeff'", 1, 1),
    ('module', 'module m where\n\x0caxiom Eq Unit', "ParseError", "unexpected character '\\x0c'", 2, 1),
    ('module', 'module m where\naxiom Eq a - Eq b', "ParseError", "unexpected character '-'", 2, 12),
    ('module', 'module m where\naxiom Eq a = Eq b', "ParseError", "unexpected character '='", 2, 12),
    ('module', 'module m where\nauto Eq (List a\n', "ParseError", "expected ')', got 'end of input'", 3, 1),
    ('module', 'module m where\nauto Eq (a, b, c)', "ParseError", "expected ')', got ','", 2, 14),
    ('module', 'module m where\nauto Eq (a,)', "ParseError", "expected a term, got ')'", 2, 12),
    ('module', 'module m where\nauto Eq ()', "ParseError", "expected a term, got ')'", 2, 10),
    ('module', 'module m where\nauto Eq (a --)', "ParseError", "expected ')', got 'end of input'", 2, 12),
    ('module', '--)', "ParseError", "expected 'module', got 'end of input'", 1, 1),
    ('module', 'module m where\nauto Eq (a -- b)\n', "ParseError", "expected ')', got 'end of input'", 3, 1),
    ('module', 'module where where\n', "ParseError", "expected an identifier, got 'where'", 1, 8),
    ('module', 'module m where\naxiom lemma\n', "ParseError", "expected a predicate (uppercase identifier), got 'lemma'", 2, 7),
    ('module', 'module m where\naxiom Eq a => auto\n', "ParseError", "expected a predicate (uppercase identifier), got 'auto'", 2, 15),
    ('module', '', "ParseError", "expected 'module', got 'end of input'", 1, 1),
    ('module', 'module m', "ParseError", "expected 'where', got 'end of input'", 1, 9),
    ('module', 'module m where\nfoo', "ParseError", "expected 'axiom', 'lemma' or 'auto', got 'foo'", 2, 1),
    ('module', 'module m where\naxiom eq a', "ParseError", "expected a predicate (uppercase identifier), got 'eq'", 2, 7),
    ('module', 'module m where\naxiom (Eq a => Eq b', "ParseError", "expected ')', got '=>'", 2, 13),
    ('module', 'module m where\naxiom (Eq a) Eq b', "ParseError", "expected '=>', got 'Eq'", 2, 14),
    ('module', 'module m where\nauto Eq a =>', "ParseError", "expected a predicate (uppercase identifier), got 'end of input'", 2, 13),
    ('module', 'module m where\naxiom Eq y => Eq (List x)\n', "ScopeError", "variable 'y' occurs in the body but not in the head of (Eq y) => Eq (List x)", 2, None),
    ('module', 'module m where\r\nauto Eq\r 1\r\n', "ParseError", "unexpected character '1'", 2, 10),
    ('module', 'module m where\r\naxiom Eq a\r\n  => 1', "ParseError", "unexpected character '1'", 3, 6),
    ('module', 'module m where\r\nauto Eq (a\r\n', "ParseError", "expected ')', got 'end of input'", 3, 1),
    ('module', 'module m where\r\n\r\naxiom Eq a =>\r\n  Eq\r\n', "ScopeError", "variable 'a' occurs in the body but not in the head of (Eq a) => Eq", 3, None),
    ('module', 'module m where\nauto Eq (lemma)\n', "ParseError", "expected a term, got 'lemma'", 2, 10),
    ('module', 'module m where\nauto Eq (a, where)\n', "ParseError", "expected a term, got 'where'", 2, 13),
    ('atom', 'Eq (auto a)', "ParseError", "expected a term, got 'auto'", 1, 5),
    ('atom', 'Eq a )', "ParseError", "trailing input after atom, got ')'", 1, 6),
    ('atom', 'Eq a b, c', "ParseError", "trailing input after atom, got ','", 1, 7),
    ('atom', 'Eq lemma', "ParseError", "trailing input after atom, got 'lemma'", 1, 4),
    ('atom', 'eq a', "ParseError", "expected a predicate (uppercase identifier), got 'eq'", 1, 1),
    ('atom', '', "ParseError", "expected a predicate (uppercase identifier), got 'end of input'", 1, 1),
    ('atom', 'Eq (a', "ParseError", "expected ')', got 'end of input'", 1, 6),
    ('atom', 'P (', "ParseError", "expected a term, got 'end of input'", 1, 4),
    ('atom', 'P (S Z,)', "ParseError", "expected a term, got ')'", 1, 8),
]


@pytest.mark.parametrize("entry, text, error, message, line, col", ERROR_TABLE)
def test_pinned_error(entry, text, error, message, line, col):
    parse = parse_module if entry == "module" else parse_atom
    with pytest.raises((ParseError, ScopeError)) as exc:
        parse(text)
    ex = exc.value
    assert type(ex).__name__ == error
    assert (str(ex), ex.line, getattr(ex, "col", None)) == (
        f"{line}:{col}: {message}" if col else f"{line}: {message}",
        line,
        col,
    )


# ---------------------------------------------------------------------------
# rendering


def test_render_elides_empty_body():
    assert render(fact(eq(Const("Unit")))) == "Eq Unit"


def test_render_hbush_axiom():
    f, a = Var("f"), Var("a")
    formula = HornFormula(
        (eq(a), eq(App(f, App(f, a)))), eq(mk_app(Const("HBush"), f, a))
    )
    assert render(formula) == "(Eq a, Eq (f (f a))) => Eq (HBush f a)"


def test_render_parse_round_trip_on_bush():
    m = parse_module(BUSH)
    assert parse_module(render(m)) == m


def test_keywords_are_not_variables_so_rendering_round_trips():
    # `Eq (lemma)` used to parse, with a variable `lemma` that renders as
    # `Eq lemma`, which does not parse back
    for kw in sorted(KEYWORDS):
        with pytest.raises(ParseError, match=f"^2:10: expected a term, got '{kw}'$"):
            parse_module(f"module m where\nauto Eq ({kw})\n")
    m = SourceModule("m", (Decl("auto", fact(eq(Var("lemma_"))), 2),))
    assert parse_module(render(m)) == m


def _random_formula(rng: random.Random) -> HornFormula:
    consts = ["Int", "Unit", "List", "Tree", "S"]
    head_vars = [Var(v) for v in ("x", "y", "z")[: rng.randint(0, 3)]]

    def term(depth):
        if depth == 0 or rng.random() < 0.4:
            if head_vars and rng.random() < 0.5:
                return rng.choice(head_vars)
            return Const(rng.choice(consts))
        if rng.random() < 0.25:
            return pair(term(depth - 1), term(depth - 1))
        t = Const(rng.choice(consts))
        for _ in range(rng.randint(1, 2)):
            t = App(t, term(depth - 1))
        return t

    head = Atom("P", tuple([mk_app(Const("F"), *(v for v in head_vars))] + [term(2)]))
    body = tuple(
        Atom("P", (rng.choice(head_vars), term(1))) for _ in range(rng.randint(0, 2))
    ) if head_vars else ()
    return HornFormula(body, head)


def test_render_parse_round_trip_on_random_modules():
    rng = random.Random(29)
    for _ in range(100):
        decls = tuple(
            Decl(rng.choice(["axiom", "lemma", "auto"]), _random_formula(rng), 0)
            for _ in range(rng.randint(1, 4))
        )
        m = SourceModule("gen", decls)
        back = parse_module(render(m))
        assert back.name == m.name
        assert [d.kind for d in back.decls] == [d.kind for d in m.decls]
        assert [d.formula for d in back.decls] == [d.formula for d in m.decls]


# ---------------------------------------------------------------------------
# Reference: the parser before the regex lexer and the iterative term rule,
# verbatim but for names

REF_KEYWORDS = {"module", "where", "axiom", "lemma", "auto"}


@dataclass(frozen=True)
class RefToken:
    kind: str  # "ident" | "punct" | "eof"
    text: str
    line: int
    col: int


def ref_tokenize(text: str) -> list[RefToken]:
    toks: list[RefToken] = []
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
            toks.append(RefToken("punct", c, line, col))
            i += 1
            col += 1
            continue
        if text.startswith("=>", i):
            toks.append(RefToken("punct", "=>", line, col))
            i += 2
            col += 2
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(RefToken("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(RefToken("eof", "", line, col))
    return toks


class RefParser:
    def __init__(self, text: str):
        self.toks = ref_tokenize(text)
        self.pos = 0

    def peek(self) -> RefToken:
        return self.toks[self.pos]

    def next(self) -> RefToken:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str):
        t = self.peek()
        got = t.text if t.kind != "eof" else "end of input"
        raise ParseError(f"{msg}, got {got!r}", t.line, t.col)

    def expect_punct(self, text: str) -> RefToken:
        t = self.peek()
        if t.kind != "punct" or t.text != text:
            self.fail(f"expected {text!r}")
        return self.next()

    def expect_keyword(self, word: str) -> RefToken:
        t = self.peek()
        if t.kind != "ident" or t.text != word:
            self.fail(f"expected {word!r}")
        return self.next()

    def expect_ident(self) -> RefToken:
        t = self.peek()
        if t.kind != "ident" or t.text in REF_KEYWORDS:
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
        ref_check_scope(formula, t.line)
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
        if t.kind != "ident" or t.text in REF_KEYWORDS or not t.text[0].isupper():
            self.fail("expected a predicate (uppercase identifier)")
        pred = self.next().text
        args = []
        while self._at_aterm():
            args.append(self.aterm())
        return Atom(pred, tuple(args))

    def _at_aterm(self) -> bool:
        t = self.peek()
        if t.kind == "ident" and t.text not in REF_KEYWORDS:
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
        if self.peek().kind != "ident" and not self._at_aterm():
            self.fail("expected a term")
        t = self.aterm()
        while self._at_aterm():
            t = App(t, self.aterm())
        return t


def ref_check_scope(f: HornFormula, line: int):
    head_vars = set(free_vars(f.head))
    for b in f.body:
        for v in free_vars(b):
            if v not in head_vars:
                raise ScopeError(
                    f"variable {v!r} occurs in the body but not in the head "
                    f"of {render_horn(f)}",
                    line,
                )


def ref_parse_module(text: str) -> SourceModule:
    return RefParser(text).module()


def ref_parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. a --goal argument."""
    p = RefParser(text)
    a = p.atom()
    if p.peek().kind != "eof":
        p.fail("trailing input after atom")
    return a


# ---------------------------------------------------------------------------
# the parser against the reference on mutated and random inputs

_PIECES = [
    "(", ")", ",", "=>", "-", "--", "=", "\n", "\r\n", " ", "\t", "\f", "_", "1",
    "'", "\u00b2", "\ufeff", "\u00e9", "a", "X", "x'", "Eq", "Pair", "Unit",
    *sorted(KEYWORDS),
]


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 4))
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(_PIECES) + text[i:]
        else:
            text = text[:i] + text[i:j] + text[i:]
    return text


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as ex:
        return "ParseError", str(ex), ex.line, ex.col
    except ScopeError as ex:
        return "ScopeError", str(ex), ex.line


def _keyword_in_term(new, old) -> bool:
    """The one allowed difference: a keyword where a term starts, which the
    reference read as a variable, is an error at the keyword."""
    if new[0] != "ParseError":
        return False
    _, message, line, col = new
    if message not in {f"{line}:{col}: expected a term, got {kw!r}" for kw in KEYWORDS}:
        return False
    return old[0] != "ParseError" or old[2:] > (line, col)


def _fuzz_inputs():
    """(module text, atom text) pairs: mutated corpus files with one of
    their lines less its first word, then short random strings."""
    rng = random.Random(13)
    seeds = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.asl"))]
    seeds.append(BUSH.replace("\n", "\r\n"))
    for _ in range(1500):
        text = _mutate(rng, rng.choice(seeds))
        yield text, rng.choice(text.split("\n")).partition(" ")[2]
    for _ in range(1500):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 8)))
        yield text, text


def test_parser_agrees_with_the_reference_on_mutated_inputs():
    keyword_cases = 0
    for text, atom_text in _fuzz_inputs():
        for parse, ref_parse, arg in [
            (parse_module, ref_parse_module, text),
            (parse_atom, ref_parse_atom, atom_text),
        ]:
            new, old = _outcome(parse, arg), _outcome(ref_parse, arg)
            if new != old:
                assert _keyword_in_term(new, old), (arg, new, old)
                keyword_cases += 1
            elif new[0] == "ok" and parse is parse_module:
                # every accepted module prints back to itself
                back = parse_module(render(new[1]))
                assert [(d.kind, d.formula) for d in back.decls] == [
                    (d.kind, d.formula) for d in new[1].decls
                ]
    assert keyword_cases > 0


# ---------------------------------------------------------------------------
# positions deep into generated modules, and the scope check's work


def _generated_module(rng: random.Random, n: int, stray: int = -1) -> str:
    """A module of n random declarations, laid out as files can be: LF or
    CRLF, tabs, blank lines, `--` comments on lines of their own and after
    code, declarations spread over several lines, and a last line with or
    without its line end.  The body of declaration `stray` reads a variable
    its head lacks."""
    lines = ["module gen where"]
    for k in range(n):
        f = _random_formula(rng)
        if k == stray:
            f = HornFormula((Atom("P", (Var("w"),)),) + f.body, f.head)
        words = render(Decl(rng.choice(["axiom", "lemma", "auto"]), f, 0)).split(" ")
        line = ""
        for w in words:
            if line and rng.random() < 0.08:
                lines.append(line)
                line = rng.choice(["  ", "\t", ""])
            line += rng.choice([" ", " ", "\t", "  "]) + w if line.strip() else w
        if rng.random() < 0.2:
            line += rng.choice([" -- ", "\t--", "--"]) + rng.choice(["note", "(x, y", "²"])
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "  ", "-- a comment", "\t-- é"]))
    newline = rng.choice(["\n", "\r\n"])
    return newline.join(lines) + rng.choice([newline, ""])


def test_positions_deep_in_generated_modules_agree_with_the_reference():
    rng = random.Random(17)
    seen = Counter()
    for _ in range(160):
        n = 200
        text = _generated_module(rng, n, rng.randrange(n) if rng.random() < 0.3 else -1)
        if rng.random() < 0.3:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(["²", "é", "\ufeff", "\f"]) + text[i:]
        if rng.random() < 0.6:
            text = _mutate(rng, text)
        if rng.random() < 0.15:  # ends in mid-declaration
            text = text[: rng.randrange(len(text))]
        new, old = _outcome(parse_module, text), _outcome(ref_parse_module, text)
        if new != old:
            assert _keyword_in_term(new, old), (text, new, old)
            continue
        deep = new[0] != "ok" and new[2] > 100 or new[0] == "ok" and len(new[1].decls) >= n
        seen[new[0], deep] += 1
    # every outcome occurs past line 100
    assert all(seen[kind, True] >= 10 for kind in ("ok", "ParseError", "ScopeError")), seen


def _wide_module(preds: int = 4, ctors: int = 100, pairs: int = 80) -> str:
    """The shape of the wide_lemmas benchmark files: 564 declarations."""
    lines = ["module wide where"]
    for p in range(preds):
        lines.append(f"axiom P{p} Z")
        lines.extend(f"axiom P{p} x => P{p} (C{i} x)" for i in range(ctors))
    for k in range(pairs):
        p, i, j = k % preds, k % ctors, 7 * k % ctors
        lines.append(f"lemma P{p} x => P{p} (C{i} (C{j} x))")
        lines.append(f"auto P{p} (C{i} (C{j} (C{k} Z)))")
    return "\n".join(lines) + "\n"


def test_scope_check_runs_free_vars_only_on_a_failing_declaration(monkeypatch):
    calls = []

    def counting_free_vars(x):
        calls.append(x)
        return free_vars(x)

    monkeypatch.setattr("cohorn.parser.free_vars", counting_free_vars)
    text = _wide_module()
    m = parse_module(text)
    assert len(m.decls) == 564 and calls == []
    bad = "axiom P0 y => P0 (C0 x)\n"
    with pytest.raises(ScopeError) as exc:
        parse_module(text + bad)
    # only on the atoms of the last declaration, and the message is the same
    body, head = Atom("P0", (Var("y"),)), Atom("P0", (App(Const("C0"), Var("x")),))
    assert calls and set(calls) <= {body, head}
    message = "variable 'y' occurs in the body but not in the head of (P0 y) => P0 (C0 x)"
    assert str(exc.value) == f"566: {message}"
    assert _outcome(ref_parse_module, text + bad) == ("ScopeError", f"566: {message}", 566)
