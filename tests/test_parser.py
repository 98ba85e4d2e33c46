"""DSL parsing, rendering, diagnostics, and fuzz totality."""

import random
import re
import sys

import pytest

from qcsp import parser
from qcsp.cli import main
from qcsp.model import Quantifier, app, exists, forall, QuantifiedExpression
from qcsp.parser import (
    ParseError,
    SourceDocument,
    _Parser,
    _read_plain,
    parse_document,
    parse_expression,
    render_constraint_def,
    render_document,
    render_expression,
)
from qcsp.presets import EQ2, OIT, XOR2
from qcsp.randgen import random_constraint, random_expression
from qcsp.verify import document_mismatch


def test_formula_constraint_example():
    doc = parse_document("constraint OR2f arity 2 := formula (v1 | v2);")
    assert doc.constraints["OR2f"].table() == "0111"


def test_table_constraint_example():
    doc = parse_document("constraint OITf arity 3 := table 01101000;")
    assert doc.constraints["OITf"].bits == OIT.bits


def test_expression_definition_example():
    doc = parse_document("expr E := E x ; A y : OR2(x, y), OR2(y, 1);")
    e = doc.expressions["E"]
    assert [b.quantifier for b in e.prefix] == [Quantifier.EXISTS, Quantifier.FORALL]
    assert len(e.matrix) == 2
    assert e.matrix[1].args[1].const == 1


def test_presets_are_known():
    doc = parse_document("expr X := E a b c : OIT(a, b, c), SYMOR1(a, b, c);")
    assert doc.expressions["X"].constraints()[0].name == "OIT"


def test_document_definition_shadows_presets_later():
    doc = parse_document(
        "expr A1 := E x : XOR2(x, x);\n"
        "constraint XOR2 arity 2 := table 1001;\n"
        "expr A2 := E x : XOR2(x, x);"
    )
    assert doc.expressions["A1"].matrix[0].constraint.bits == XOR2.bits
    assert doc.expressions["A2"].matrix[0].constraint.bits == EQ2.bits


def test_adjacent_same_quantifier_rejected():
    with pytest.raises(ParseError, match="alternate"):
        parse_document("expr Y := E x ; E y : XOR2(x, y);")


def test_positioned_diagnostics():
    formula_var = "expected formula variable v1..v2"
    cases = [
        ("constraint X arity 2 := table 011;",
         "constraint 'X': table has 3 entries, expected 4 for arity 2", 1, 31),
        ("expr Y := E x x : ;", "duplicate variable 'x'", 1, 15),
        ("expr Y := E x : FOO(x);", "unknown constraint 'FOO'", 1, 17),
        ("expr Y := E x : XOR2(x, z);", "free variable 'z' in matrix", 1, 25),
        ("expr Y := A x : XOR2(x);", "XOR2 takes 2 arguments, got 1", 1, 17),
        ("constraint F arity 2 := formula (v1 | v9);", formula_var, 1, 39),
        ("constraint F arity 2 := formula v\u00b2;", formula_var, 1, 33),
        ("constraint F arity 2 := formula v" + "1" * 5000 + ";", formula_var, 1, 33),
        ("constraint F arity \u00b2 := table 0110;",
         "unexpected character '\u00b2'", 1, 20),
        ("wat", "expected 'constraint' or 'expr' definition", 1, 1),
        ("expr Y := E x : XOR2(x, 3);", "expected variable or constant 0/1", 1, 25),
        ("constraint D arity 1 := table 01; constraint D arity 1 := table 01;",
         "constraint 'D' already defined", 1, 46),
        # the end of input after a trailing comment sits where the '#' began
        ("expr E := E x : XOR2(x, 0) # tail",
         "expected ';', got 'end of input'", 1, 28),
        # a tab counts as one column
        ("expr E := E x :\n\tXOR2(x, q);", "free variable 'q' in matrix", 2, 10),
        ("# c\nexpr E := E x : XOR2(x,\n 0)",
         "expected ';', got 'end of input'", 3, 4),
        ("expr E := E x : XOR2(x, 0); @", "unexpected character '@'", 1, 29),
        # '=', '<', '-' and '>' alone begin no token; only ':=', '->' and
        # '<->' do
        ("constraint X arity 2 = table 0110;", "unexpected character '='", 1, 22),
        ("expr E := E x ; A y :\n  XOR2(x, y) < 1;", "unexpected character '<'", 2, 14),
        ("constraint F arity 2 := formula v1 - v2;", "unexpected character '-'", 1, 36),
        ("constraint F arity 2 := formula (v1\n\t> v2);", "unexpected character '>'", 2, 2),
        ("constraint F arity 2 := formula v1 <- v2;", "unexpected character '<'", 1, 36),
        ("expr E := E x : XOR2(x, 0); ->= 1;", "unexpected character '='", 1, 31),
    ]
    for text, message, line, col in cases:
        with pytest.raises(ParseError) as info:
            parse_document(text)
        got = (info.value.message, info.value.line, info.value.col)
        assert got == (message, line, col), text[:60]
        assert str(info.value) == f"{line}:{col}: {message}"


def test_formula_operators_and_precedence():
    doc = parse_document(
        "constraint A arity 2 := formula v1 -> v2 -> v1;\n"  # right assoc: const 1
        "constraint B arity 2 := formula !v1 & v2 | v1;\n"    # (!v1&v2)|v1
        "constraint C arity 2 := formula v1 <-> v2 ^ v2;\n"   # v1 <-> (v2^v2)
    )
    assert doc.constraints["A"].table() == "1111"
    assert doc.constraints["B"].table() == "0111"
    assert doc.constraints["C"].table() == "1100"


def test_render_examples():
    e = QuantifiedExpression((forall("x"),), (app(EQ2, "x", 0),))
    assert render_expression(e) == "A x : EQ2(x, 0);"
    e = QuantifiedExpression((exists("x"),), ())
    assert render_expression(e) == "E x : ;"
    assert parse_expression(render_expression(e)) == e
    e = QuantifiedExpression((), (app(EQ2, 0, 1),))
    assert parse_expression(render_expression(e)) == e


def test_roundtrip_random_expressions():
    rng = random.Random(2024)
    for trial in range(100):
        cs = [random_constraint(rng, rng.randint(1, 3), name=f"C{trial}_{j}")
              for j in range(rng.randint(1, 3))]
        e = random_expression(rng, cs, rng.randint(1, 10), rng.randint(0, 8),
                              const_prob=0.2)
        text = render_expression(e)
        back = parse_expression(text, {c.name: c for c in cs})
        assert back == e


def test_roundtrip_at_scale():
    rng = random.Random(8)
    cs = [random_constraint(rng, k, name=f"S{k}") for k in range(1, 7)]
    e = random_expression(rng, cs + [XOR2], 10_000, 2_480, const_prob=0.05, max_block=60)
    names = e.variables()
    repeats = tuple(
        app(c, *[rng.choice(names[:3])] * c.arity) for c in cs + [XOR2] for _ in range(3)
    )
    e = QuantifiedExpression(e.prefix, e.matrix + repeats)
    assert any(a.has_constants() for a in e.matrix)
    doc = parse_document(render_document(cs, {"Big": e}))  # XOR2 is a preset
    assert doc.expressions["Big"] == e


def test_overlong_arity_is_a_diagnostic():
    # int() refuses more than 4300 digits; the arity token is reported instead
    with pytest.raises(ParseError, match="arity out of range") as info:
        parse_document("constraint F arity " + "1" * 5000 + " := table 01;")
    assert (info.value.line, info.value.col) == (1, 20)


def test_render_document_roundtrip():
    e = QuantifiedExpression((forall("x"), exists("y")), (app(XOR2, "x", "y"),))
    text = render_document([XOR2], {"E1": e})
    doc = parse_document(text)
    assert doc.expressions["E1"] == e
    assert render_constraint_def(XOR2) == "constraint XOR2 arity 2 := table 0110;"


def test_comments_and_whitespace():
    doc = parse_document("# heading\nexpr E := E x : XOR2(x, 0); # tail\n\n")
    assert "E" in doc.expressions


def test_token_classes_match_str_predicates():
    # the lexer's num and ident runs are \d+ and \w+, read as the str
    # predicates the grammar names
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\d", chars) == [c for c in chars if c.isdecimal()]
    assert re.findall(r"\w", chars) == [c for c in chars if c.isalnum() or c == "_"]
    # the fast reader, which reads only ASCII, takes a name by isidentifier
    # and splits on str.split()'s whitespace, declining the characters of
    # that whitespace the lexer does not skip
    ascii_chars = [chr(i) for i in range(128)]
    ident = re.compile(r"[A-Za-z_]\w*")
    for word in ascii_chars + [a + b for a in ascii_chars for b in ascii_chars]:
        assert word.isidentifier() == bool(ident.fullmatch(word)), repr(word)
    assert "".join(c for c in ascii_chars if c.isspace()) == "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
    assert "a\x0bb\x1fc d".split() == ["a", "b", "c", "d"]


def test_fuzz_totality_bytes():
    rng = random.Random(0)
    for _ in range(100_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
        try:
            parse_document(blob.decode("latin-1"))
        except ParseError:
            pass  # positioned diagnostic: the only permitted failure


def test_fuzz_totality_token_soup():
    rng = random.Random(1)
    vocab = [
        "constraint", "expr", "arity", "table", "formula", "E", "A", ":=", ";",
        ":", ",", "(", ")", "!", "&", "|", "^", "->", "<->", "v1", "v2", "x",
        "0", "1", "01101000", "XOR2", "3",
    ]
    parsed = 0
    for _ in range(20_000):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 50)))
        try:
            doc = parse_document(text)
        except ParseError:
            continue
        # whichever reader took it, the token parser reads the same document
        assert document_mismatch(doc, _Parser(text, SourceDocument()).document()) is None, text
        parsed += 1
    assert parsed > 0


# documents the fast reader must leave to the token parser, with the token
# parser's diagnostic, or None where it reads them
DECLINED = [
    # whitespace to str.split() but an unexpected character to the lexer
    ("expr E := E x\x0b y : XOR2(x, y);", "1:14: unexpected character '\\x0b'"),
    ("expr E := E x\x0c y : XOR2(x, y);", "1:14: unexpected character '\\x0c'"),
    ("expr E := E x y : XOR2(x,\x1fy);", "1:26: unexpected character '\\x1f'"),
    ("expr E := E x\u00e9 : XOR2(x\u00e9, 0);", None),
    ("expr E := E 1abc : XOR2(1abc, 0);", "1:11: quantifier block binds no variables"),
    ("constraint 1abc arity 1 := table 01;", "1:12: expected constraint name, got '1'"),
    ("expr E := E x : XOR2(1abc, 0);", "1:23: expected ')', got 'abc'"),
    ("# heading ; :\nexpr E := E x : XOR2(x, 0);", None),
    ("expr E := E x : XOR2(x, 0); # tail", None),
    ("constraint F arity 2 := formula v1 | v2;", None),
    # a valid plain document with a formula constraint appended
    ("constraint T arity 2 := table 1001;\nexpr E := E x ; A y : T(x, y), XOR2(x, 0);\n"
     "constraint F9 arity 2 := formula v1 | v2;\n", None),
    ("expr E := E x A y : XOR2(x, y);", None),
    ("expr E := E x ; E y : XOR2(x, y);", "1:17: adjacent quantifier blocks must alternate"),
    ("expr E := E x ; : XOR2(x, x);",
     "1:15: expected ':' between prefix and matrix, got ';'"),
    ("expr Y := E x x : ;", "1:15: duplicate variable 'x'"),
    ("expr E := E x : ; expr E := A y : ;", "1:24: expression 'E' already defined"),
    ("constraint D arity 1 := table 01; constraint D arity 1 := table 01;",
     "1:46: constraint 'D' already defined"),
    ("expr Y := E x : FOO(x);", "1:17: unknown constraint 'FOO'"),
    ("expr Y := E x : XOR2(x, z);", "1:25: free variable 'z' in matrix"),
    ("expr Y := A x : XOR2(x);", "1:17: XOR2 takes 2 arguments, got 1"),
    ("constraint F arity " + "1" * 5000 + " := table 01;", "1:20: arity out of range 1..16"),
    # one range check, at the arity, whatever the body
    ("constraint F arity 17 := table 01;", "1:20: arity 17 out of range 1..16"),
    ("constraint F arity 17 := formula v1;", "1:20: arity 17 out of range 1..16"),
    ("constraint F arity 0 := table 0;", "1:20: arity 0 out of range 1..16"),
    ("constraint F arity 0 := formula v1;", "1:20: arity 0 out of range 1..16"),
    ("expr E := E x :=XOR2(x, 0);",
     "1:15: expected ':' between prefix and matrix, got ':='"),
    ("expr E := E x : XOR2(x, 0)", "1:27: expected ';', got 'end of input'"),
    ("expr E := E x : XOR2(x, 0) XOR2(x, 1);", "1:28: expected ';', got 'XOR2'"),
    ("expr E := E x : XOR2(x, 0) ID1, XOR2(x, 1);", "1:28: expected ';', got 'ID1'"),
    ("expr E := E x : XOR2(x, (0));", "1:25: expected variable or constant 0/1"),
    ("expr E := E x : XOR2(x, 0),;", "1:28: expected constraint name, got ';'"),
    ("expr E := E x : XOR2(x, 0); wat", "1:29: expected 'constraint' or 'expr' definition"),
]


def test_fast_reader_declines_to_the_token_parser(monkeypatch):
    for text, diagnostic in DECLINED:
        assert _read_plain(text) is None, text[:60]
        if "formula" in text:
            # declined before any definition is read, so a valid document
            # with a formula is read once, by the token parser
            with monkeypatch.context() as m:
                m.setattr("qcsp.parser.make_constraint", None)
                m.setattr("qcsp.parser._read_expression", None)
                assert _read_plain(text) is None, text[:60]
        if diagnostic is None:
            want = _Parser(text, SourceDocument()).document()
            assert document_mismatch(parse_document(text), want) is None, text
        else:
            with pytest.raises(ParseError) as info:
                parse_document(text)
            assert str(info.value) == diagnostic, text[:60]


def test_fast_reader_reads_plain_documents():
    text = (
        "constraint XOR2 arity 2 := table 1001;\r\n"
        "expr e:=E x\t; A y:XOR2(x,y) ,\n\tOIT( x , 1 ,y ) ;\n"
        "expr f := : ;\n"
    )
    doc = _read_plain(text)
    assert doc is not None
    assert document_mismatch(doc, _Parser(text, SourceDocument()).document()) is None


class _CountingRegex:
    """A stand-in for the lexer's regex that counts its scans."""

    def __init__(self, regex):
        self.regex = regex
        self.scans = {"findall": 0, "finditer": 0}

    def findall(self, *args):
        self.scans["findall"] += 1
        return self.regex.findall(*args)

    def finditer(self, *args):
        self.scans["finditer"] += 1
        return self.regex.finditer(*args)


def test_token_parser_scans_once(monkeypatch):
    # the lexer's findall is the one scan of a valid document; a diagnostic
    # adds one finditer to its token
    valid = ("# heading\nexpr e := E x ; A y : XOR2(x, y), OIT(x, 1, y);\n"
             "constraint F arity 2 := formula v1 -> v2 ^ !v1;\n")
    cases = [
        (valid, 0),
        ("expr E := E x : XOR2(x, 0) XOR2(x, 1);", 1),
        ("expr E := E x : XOR2(x, 0); @", 1),
        (valid + "constraint G arity 2 := formula v1 | v3;", 1),
    ]
    for text, finditer in cases:
        counting = _CountingRegex(parser._TOKEN)
        with monkeypatch.context() as m:
            m.setattr(parser, "_TOKEN", counting)
            try:
                parse_document(text)
            except ParseError:
                assert finditer, text
            else:
                assert not finditer, text
        assert counting.scans == {"findall": 1, "finditer": finditer}, text


def test_deep_nesting_is_a_diagnostic():
    for text in (
        "constraint X arity 1 := formula " + "(" * 4000 + "v1" + ")" * 4000 + ";",
        "constraint X arity 1 := formula " + "!" * 4000 + "v1;",
    ):
        with pytest.raises(ParseError, match="nesting"):
            parse_document(text)


def test_long_operator_chains_parse(tmp_path, capsys):
    # a chain of one operator is a loop over table words, so its length is
    # not bounded by the nesting depth: 4,000 operators over v1 give v1, and
    # the right-grouped v1 -> (v1 -> ...) is true everywhere
    for op, table in (("^", "01"), ("&", "01"), ("|", "01"), ("<->", "01"), ("->", "11")):
        text = "constraint X arity 1 := formula " + f" {op} ".join(["v1"] * 4001) + ";"
        assert parse_document(text).constraints["X"].table() == table, op
        path = tmp_path / "chain.qcsp"
        path.write_text(text + "\n", encoding="utf-8")
        assert main(["classify", str(path)]) == 0, op
        capsys.readouterr()
