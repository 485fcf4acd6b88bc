import pytest

from ccakit.errors import SpecElabError, SpecSyntaxError
from ccakit.groups import are_isomorphic, dihedral, quaternion
from ccakit.speclang import (Atom, Connection, ECyclic, EDic, EDihedral,
                             EProduct, ERef, Task, Word, elaborate,
                             elaborate_connection, evaluate_word,
                             parse_connection, parse_expr, parse_program,
                             parse_word, print_connection, print_expr,
                             print_program)

ROUND_TRIP = [
    "C(3)",
    "D(5)",
    "Q8",
    "Dih(C(5))",
    "Dic(C(4), r^2)",
    "C(3) x D(3)",
    "C(2) x C(2) x C(2)",
    "C(2) x (C(3) x C(5))",
    "Wr2(D(3))",
    "Perm[(0 1 2)(3 4), (0 3)]",
    "Dic(C(2) x C(4), r2^2)",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_expression_round_trip(text):
    ast = parse_expr(text)
    assert print_expr(ast) == text
    assert parse_expr(print_expr(ast)) == ast


def test_product_is_left_associative():
    ast = parse_expr("C(2) x C(3) x C(5)")
    assert isinstance(ast, EProduct)
    assert isinstance(ast.left, EProduct)
    assert print_expr(ast) == "C(2) x C(3) x C(5)"


def test_positions_do_not_affect_equality():
    a = parse_expr("C(3) x  D(3)")
    b = parse_expr("  C(3) x D(3)")
    assert a == b
    assert hash(a) == hash(b)
    assert ECyclic(3, pos=(1, 1)) == ECyclic(3, pos=(4, 2))
    assert Task(("check-group", "G"), line=2) == Task(("check-group", "G"))
    # nodes of different classes never compare equal, even with equal fields
    assert ECyclic(3) != EDihedral(3)
    assert not ECyclic(3) == EDihedral(3)
    assert Atom("r", 2) != ("r", 2)
    assert {parse_word("r^2 s", line=3): 1}[parse_word(" r^2*s")] == 1


@pytest.mark.parametrize("text,line,col", [
    ("C(", 1, 3),
    ("C(3", 1, 4),
    ("D()", 1, 3),
    ("C(3) x", 1, 7),
    ("Dih(C(3)", 1, 9),
    ("Perm[]", 1, 6),
    ("Perm[(0)]", 1, 6),
    ("C(3) )", 1, 6),
    ("@", 1, 1),
])
def test_syntax_errors_carry_positions(text, line, col):
    with pytest.raises(SpecSyntaxError) as err:
        parse_expr(text)
    assert err.value.line == line
    assert err.value.column == col


def _product(k: int) -> str:
    return " x ".join(["C(1)"] * k)


# each bracket open at once and each product counts one level; the 101st
# fails at its own token
@pytest.mark.parametrize("text,col", [
    ("(" * 500 + "C(2)" + ")" * 500, 101),
    ("Dih(" * 101 + "C(2)" + ")" * 101, 404),
    ("Wr2(" * 60 + "Dic(" * 60 + "Q8, y" + ")" * 120, 404),
    (_product(1000), 706),
    ("(" * 50 + _product(52) + ")" * 50, 50 + 7 * 50 + 6),
], ids=["brackets", "constructors", "mixed-constructors", "products",
        "brackets-and-products"])
def test_nesting_beyond_the_bound_is_a_syntax_error(text, col):
    with pytest.raises(SpecSyntaxError, match="more than 100") as err:
        parse_expr(text)
    assert (err.value.line, err.value.column) == (1, col)


def test_nesting_up_to_the_bound_parses_prints_and_elaborates():
    assert parse_expr("(" * 100 + "C(2)" + ")" * 100) == ECyclic(2)
    text = _product(101)  # 100 products, left-nested 100 deep
    ast = parse_expr(text)
    assert print_expr(ast) == text
    assert parse_expr(print_expr(ast)) == ast
    assert elaborate(ast).order == 1
    text = "(" * 99 + _product(2) + ")" * 99
    assert elaborate(parse_expr(text)).order == 1


def test_word_parsing():
    w = parse_word("r^2 s")
    assert [(a.name, a.exp) for a in w.atoms] == [("r", 2), ("s", 1)]
    assert parse_word("r^2*s") == w  # star and juxtaposition are the same
    w = parse_word("r^-1")
    assert w.atoms[0].exp == -1
    with pytest.raises(SpecSyntaxError):
        parse_word("")
    with pytest.raises(SpecSyntaxError):
        parse_word("r^")


def test_connection_parsing_and_printing():
    c = parse_connection("{r, r^2} +inv")
    assert c.close_inverses
    assert print_connection(c) == "{r, r^2} +inv"
    c2 = parse_connection("{s}")
    assert not c2.close_inverses
    with pytest.raises(SpecSyntaxError):
        parse_connection("{}")
    with pytest.raises(SpecSyntaxError):
        parse_connection("{r} +foo")


def test_elaborate_spec_examples():
    assert elaborate(parse_expr("C(3) x D(3)")).order == 18
    assert are_isomorphic(elaborate(parse_expr("Dih(C(5))")), dihedral(5))
    assert are_isomorphic(elaborate(parse_expr("Dic(C(4), r^2)")),
                          quaternion())


def test_elaborate_structural_errors():
    with pytest.raises(SpecElabError, match="abelian"):
        elaborate(parse_expr("Dih(D(3))"))
    with pytest.raises(SpecElabError, match="involution"):
        elaborate(parse_expr("Dic(C(4), r)"))
    with pytest.raises(SpecElabError, match="unknown name"):
        elaborate(parse_expr("Mystery"))
    with pytest.raises(SpecElabError, match="n >= 1"):
        elaborate(parse_expr("C(0)"))


def test_elaborate_reference_environment():
    env = {"G": elaborate(parse_expr("C(6)"))}
    assert elaborate(parse_expr("G x C(2)"), env).order == 12


def test_elaborate_perm_generators():
    g = elaborate(parse_expr("Perm[(0 1 2), (0 1)]"))
    assert g.order == 6  # Sym(3)
    with pytest.raises(SpecElabError):
        elaborate(parse_expr("Perm[(0 1)(1 2)]"))  # repeated point


def test_evaluate_word_and_connection():
    g = elaborate(parse_expr("C(6)"))
    assert evaluate_word(parse_word("r^2"), g) == 2
    assert evaluate_word(parse_word("r^-1"), g) == 5
    assert evaluate_word(parse_word("r r r"), g) == 3
    with pytest.raises(SpecElabError, match="available: r"):
        evaluate_word(parse_word("q"), g)
    conn = elaborate_connection(parse_connection("{r} +inv"), g)
    assert conn == [1, 5]
    with pytest.raises(SpecElabError, match="identity"):
        elaborate_connection(parse_connection("{r^6}"), g)


def test_program_parsing_and_round_trip():
    text = """# a comment
let G = C(3) x D(3)
let H = Dih(C(5))

check-group H --seedless
check-graph G "{s2, r1*r2} +inv"
"""
    prog = parse_program(text)
    assert [name for name, _ in prog.declarations] == ["G", "H"]
    assert prog.tasks[0].argv == ("check-group", "H", "--seedless")
    assert prog.tasks[1].argv[2] == "{s2, r1*r2} +inv"
    assert parse_program(print_program(prog)) == prog


def test_program_rejects_duplicate_names():
    with pytest.raises(SpecSyntaxError, match="declared twice") as err:
        parse_program("let G = C(3)\nlet G = C(5)\n")
    assert err.value.line == 2


def test_program_reports_bad_let_line():
    with pytest.raises(SpecSyntaxError) as err:
        parse_program("let G C(3)\n")
    assert err.value.line == 1
