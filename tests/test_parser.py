import pytest

from homcoh import bundles as B
from homcoh import parser
from homcoh.bundles import bundle_expr
from homcoh.parser import BundleSyntaxError, parse_bundle, parse_collection, parse_weight


def test_spec_examples():
    assert parse_bundle("Sym2 Uv (2)") == B.schur("Uv", "Sym", 2, 2)
    assert parse_bundle("U") == B.U()
    assert parse_bundle("O(0)") == B.O()


def test_atoms_and_twists():
    assert parse_bundle("O(3)") == B.O(3)
    assert parse_bundle("Uv(-1)") == B.Uv(-1)
    assert parse_bundle("That(6)") == B.Named("That", 6)
    assert parse_bundle("Ktilde(2)") == B.Named("Ktilde", 2)
    assert parse_bundle("W") == B.Uv()
    assert parse_bundle("T(1)") == B.schur("Uv", "Wedge", 2, 1)
    assert parse_bundle("R") == B.R()


def test_prefix_operators():
    assert parse_bundle("dual That (1)") == B.Named("Thatv", 1)
    assert parse_bundle("dual Uv") == B.U()
    assert parse_bundle("Wedge2 Rv (4)") == B.schur("Rv", "Wedge", 2, 4)
    assert parse_bundle("Sym2 U (1)") == B.twist(B.schur("U", "Sym", 2), 1)
    assert parse_bundle("Sym2 (Uv(1))") == B.schur("Uv", "Sym", 2, 2)
    assert parse_bundle("Wedge4 Uv") == B.schur("Uv", "Wedge", 4)


def test_weight_literals():
    assert parse_bundle("D5 [0,0,1,-2,0]") == B.irr(B.D5_P4, (0, 0, 1, -2, 0))
    assert parse_bundle("B4[1,0,0,0]") == B.Rv()
    assert parse_bundle("D5 [1,0,0,0,0] (2)") == B.Uv(2)


def test_sum_and_tensor():
    assert parse_bundle("Uv + O") == B.direct_sum(B.Uv(), B.O())
    assert parse_bundle("U * Uv") == B.tensor(B.U(), B.Uv())
    assert parse_bundle("Sym2 Uv + Wedge2 Uv") == B.tensor(B.Uv(), B.Uv())
    # a twist of O lives on both descriptions, however it is spelled
    assert parse_bundle("B4 [0,0,0,1] * R") == parse_bundle("O(1) * R") == B.R(1)
    assert parse_bundle("R + B4 [0,0,0,1]") == parse_bundle("R + O(1)")
    assert parse_bundle("B4 [0,0,0,0] + B4 [0,0,0,1]") == parse_bundle("O + O(1)")


def test_whitespace_insensitive():
    assert parse_bundle("  Sym2   Uv(2)") == B.schur("Uv", "Sym", 2, 2)
    assert parse_bundle("D5[ 0 , 0 , 1 , -2 , 0 ]") == B.irr(B.D5_P4, (0, 0, 1, -2, 0))


def test_errors_carry_positions():
    with pytest.raises(BundleSyntaxError) as err:
        parse_bundle("O * foo")
    assert "foo" in str(err.value)
    with pytest.raises(BundleSyntaxError):
        parse_bundle("Sym2 That")
    with pytest.raises(BundleSyntaxError):
        parse_bundle("D5 [1,2]")
    with pytest.raises(BundleSyntaxError):
        parse_bundle("U * R")
    with pytest.raises(BundleSyntaxError):
        parse_bundle("O(")
    with pytest.raises(BundleSyntaxError):
        parse_bundle("")
    with pytest.raises(BundleSyntaxError):
        parse_bundle("D5 [1,0,0,0,0] trailing")
    # Schur powers out of range and binary operators that cannot apply
    # name the operator's position.
    for text, message, position in (
        ("Sym-1 Uv", "negative symmetric power", 0),
        ("Wedge9 Rv", "wedge power 9 out of range 0..4", 0),
        ("O + Sym-1 Uv(2)", "negative symmetric power", 4),
        ("That + O", "direct sums of named objects are not supported", 5),
        ("(Uv + O) * Rv(2)", "tensor products need two sums in one description", 9),
        ("Uv + R", "direct sum needs a common description", 3),
    ):
        with pytest.raises(BundleSyntaxError) as err:
            parse_bundle(text)
        assert err.value.position == position, text
        assert str(err.value) == f"{message} (at position {position})", text


def test_parse_weight_reads_the_bracket_list_of_a_weight_literal():
    for text in ("[1,-2,0]", " [ 1 , -2,0 ] ", "[0,0,0,0,0]"):
        assert parse_weight(text) == tuple(int(c) for c in text.strip(" []").split(",")), text
    for text, message, position in (
        ("", "expected '[', found ''", 0),
        ("1,0", "expected '[', found '1'", 0),
        ("[]", "expected int, found ']'", 1),
        ("[1_0]", "unexpected character '_'", 2),
        ("[+1]", "expected int, found '+'", 1),
        ("[1,0", "expected ']', found ''", 4),
        ("[1,0] x", "trailing input 'x'", 6),
    ):
        with pytest.raises(BundleSyntaxError) as err:
            parse_weight(text)
        assert str(err.value) == f"{message} (at position {position})", text


def test_expr_roundtrip():
    # Every object prints in one form, its repr, and that form parses back.
    objs = [
        B.O(5), B.Uv(3), B.U(7), B.schur("Uv", "Sym", 2, 2), B.Named("That", 6), B.Named("Thatv", 1),
        B.Named("Ktilde", 2), B.Named("Ktildev", -2), B.schur("Uv", "Wedge", 2, 4),
        B.schur("Rv", "Wedge", 2, 4), B.schur("Rv", "Sym", 2, 3),
        B.R(), B.schur("R", "Wedge", 3, 1), B.irr(B.D5_P4, (1, 2, 0, -3, 1)),
        B.direct_sum(B.Uv(), B.O(1)),
        # multi-part sums, with multiplicities and unnamed parts
        B.make_sum(B.D5_P4, {(1, 0, 0, 0, 0): 2, (0, 0, 0, 1, 0): 1, (1, 2, 0, -3, 1): 3}),
        B.make_sum(B.B4_Q4, {(1, 0, 0, 0): 1, (0, 0, 0, 2): 2, (2, 0, 1, -1): 1}),
        B.tensor(B.schur("Uv", "Sym", 2), B.U(1)),
        # O(k) spelled on B4/Q4 is O(k); within a B4/Q4 sum it prints as a weight
        *(B.irr(B.B4_Q4, (0, 0, 0, k)) for k in range(-3, 4)),
        *(B.direct_sum(B.R(), B.O(k)) for k in range(-3, 4)),
    ]
    objs += [parse_bundle(f"{g}({t})") for g in SWEEP_GENERATORS for t in range(-3, 4)]
    objs += [term.obj for seq in B.standard_sequences() for term in seq.terms]
    for obj in objs:
        assert repr(obj) == bundle_expr(obj)
        assert parse_bundle(repr(obj)) == obj, obj
    assert repr(B.irr(B.B4_Q4, (0, 0, 0, 2))) == "O (2)"
    assert parse_bundle("O (2)") == B.irr(B.B4_Q4, (0, 0, 0, 2))
    assert repr(B.direct_sum(B.R(), B.O(1))) == "B4 [0,0,0,1] + R"


def test_tokenizer_names_the_first_unexpected_character():
    # Blanks before a bad character are skipped: the error names the
    # character itself and its position.
    for text, char, position in (("O $", "$", 2), ("Uv(1)   ;", ";", 8), ("?", "?", 0), (" \t@O", "@", 2)):
        with pytest.raises(BundleSyntaxError) as err:
            parse_bundle(text)
        assert err.value.position == position, text
        assert str(err.value) == f"unexpected character {char!r} (at position {position})", text
    assert [(t.kind, t.text, t.pos) for t in parser._tokenize(" Uv (1)  ")] == [
        ("name", "Uv", 1), ("sym", "(", 4), ("int", "1", 5), ("sym", ")", 6), ("end", "", 9)
    ]


def test_collection_files():
    text = """
    # a small collection
    O
    Uv  # dual tautological
    O(1)
    """
    objs = parse_collection(text)
    assert objs == [B.O(), B.Uv(), B.O(1)]
    with pytest.raises(BundleSyntaxError) as err:
        parse_collection("O\nbad-name\n")
    assert "line 2" in str(err.value)
    # The line is named once and the position once.
    for line, message in (
        ("Uv * R", "tensor products need two sums in one description"),
        ("Uv + R", "direct sum needs a common description"),
    ):
        with pytest.raises(BundleSyntaxError) as err:
            parse_collection(f"O\n{line}\n")
        assert err.value.position == 3
        assert str(err.value) == f"line 2: {message} (at position 3)"


ATOM_CONSTRUCTORS = {
    "O": B.O, "U": B.U, "Uv": B.Uv, "R": B.R, "Rv": B.Rv, "W": B.Uv,
    "T": lambda k=0: B.schur("Uv", "Wedge", 2, k),
    **{name: lambda k=0, name=name: B.Named(name, k) for name in ("That", "Thatv", "Ktilde", "Ktildev")},
}


def test_atom_table_equals_the_bundle_constructors():
    # bundles builds each atom once; every name must still give what its
    # constructor gives, at level zero and twisted.
    assert set(B.ATOMS) == set(ATOM_CONSTRUCTORS)
    for name, make in ATOM_CONSTRUCTORS.items():
        assert parse_bundle(name) == make(), name
        for k in (-2, 2):
            assert parse_bundle(f"{name}({k})") == make(k), (name, k)


# The generators of the ext-sweep benchmark workload, each asked bare and at twists -3..3.
SWEEP_GENERATORS = (
    "O", "U", "Uv", "R", "Rv", "T", "That", "Thatv", "Ktilde", "Ktildev",
    "Sym2 Uv", "Sym2 Rv", "Wedge2 Rv",
)


def test_each_string_is_parsed_once():
    texts = [*SWEEP_GENERATORS, *(f"{g}({t})" for g in SWEEP_GENERATORS for t in range(-3, 4))]
    for text in texts:
        obj = parse_bundle(text)
        assert parse_bundle(text) is obj, text
        assert obj == parser._Parser(text).parse(parser._Parser.expr), text


def test_a_failed_parse_is_not_kept():
    for text in ("O * foo", "Sym-1 Uv", "U * R"):
        for _ in range(2):
            with pytest.raises(BundleSyntaxError):
                parse_bundle(text)
