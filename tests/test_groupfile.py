"""Parser/serializer round-trips and syntax error reporting."""


import pytest

import pgw
from pgw import cli, groupfile

from conftest import ALL_NAMES


@pytest.mark.parametrize("name", ALL_NAMES)
def test_round_trip_whole_corpus(name):
    P = pgw.load(name)
    text = groupfile.serialize(P)
    Q = groupfile.parse_text(text).presentation
    assert Q.validated
    assert (Q.name, Q.p, Q.n, Q.power_rel, Q.comm_rel, Q.defn, Q.minimal_count) == (
        P.name, P.p, P.n, P.power_rel, P.comm_rel, P.defn, P.minimal_count
    )
    assert groupfile.serialize(Q) == text


def test_parse_h27_inline():
    text = """
# Heisenberg group of order 27
name h27-inline
p 3
n 3
comm 2 1 = g3^1
def 3 = comm 2 1
"""
    P = groupfile.parse_text(text).presentation
    assert P.order == 27
    assert P.comm_rel == {(2, 1): ((3, 1),)}
    assert P.minimal_count == 2


def test_comments_and_blank_lines_ignored():
    text = "name t\n\n# comment\np 3   # trailing comment\nn 1\n"
    P = groupfile.parse_text(text).presentation
    assert P.order == 3


def _err(text):
    with pytest.raises(pgw.PresentationSyntaxError) as ei:
        groupfile.parse_text(text, source="test.pg")
    return ei.value


def test_p_must_be_prime():
    e = _err("name x\np 4\nn 1\n")
    assert e.line == 2
    assert "not prime" in str(e)


def test_missing_p_or_n():
    assert "missing p" in str(_err("name x\n"))
    assert "missing n" in str(_err("name x\np 3\n"))


def test_word_token_errors():
    base = "name x\np 3\nn 2\n"
    assert "bad word token" in str(_err(base + "pow 1 = f2^1\n"))
    assert "strictly increase" in str(
        _err("name x\np 3\nn 3\npow 1 = g2^1 g2^1\n")
    )
    assert "out of range" in str(_err(base + "pow 1 = g5^1\n"))
    assert "exponent" in str(_err(base + "pow 1 = g2^4\n"))
    assert "exponent" in str(_err(base + "pow 1 = g2^0\n"))
    assert "needs index > 1" in str(_err(base + "pow 1 = g1^1\n"))
    assert "empty word" in str(_err(base + "pow 1 =\n"))


def test_structural_errors():
    base = "name x\np 3\nn 2\n"
    assert "duplicate pow" in str(_err(base + "pow 1 = g2^1\npow 1 = g2^2\n"))
    assert "duplicate comm" in str(
        _err("name x\np 3\nn 3\ncomm 2 1 = g3^1\ncomm 2 1 = g3^1\n")
    )
    assert "j < i" in str(_err(base + "comm 1 2 = g2^1\n"))
    assert "before p and n" in str(_err("name x\npow 1 = g2^1\np 3\nn 2\n"))
    assert "unknown directive" in str(_err(base + "powx 1 = g2^1\n"))
    assert "tail range" in str(_err("name x\np 3\nn 3\ndef 2 = pow 1\n"))
    assert "duplicate p" in str(_err("p 3\np 3\nn 1\n"))


def test_def_line_on_every_generator_is_an_input_error(tmp_path, capsys):
    # the def lines cover the tail range f_1..f_n, which leaves no minimal
    # generator: an input error, exit 2, not a traceback
    text = "name c9\np 3\nn 2\npow 1 = g2^1\ndef 1 = pow 1\ndef 2 = pow 1\n"
    with pytest.raises(pgw.BadDefinition, match="2 defn tags for 2 generators leave none minimal"):
        groupfile.parse_text(text)
    f = tmp_path / "alldef.pg"
    f.write_text(text)
    assert cli.main(["info", str(f)]) == 2
    assert capsys.readouterr().err.startswith("pgw: error: 2 defn tags")


def test_consistency_violation_passes_through():
    text = "name bad\np 3\nn 3\npow 1 = g2^1\npow 2 = g3^1\ncomm 2 1 = g3^1\n"
    with pytest.raises(pgw.ConsistencyViolation):
        groupfile.parse_text(text)


def test_line_numbers_in_errors():
    e = _err("name x\np 3\nn 2\n# fine\npow 1 = g9^1\n")
    assert e.line == 5
    assert e.source == "test.pg"


def test_parse_path(tmp_path):
    f = tmp_path / "c9.pg"
    f.write_text(groupfile.serialize(pgw.load("c9")), encoding="utf-8")
    gf = groupfile.parse_path(str(f))
    assert gf.presentation.order == 9
    assert gf.source == str(f)


def test_word_text_rendering():
    assert groupfile.word_text(()) == "1"
    assert groupfile.word_text(((5, 2), (6, 1), (7, 1))) == "g5^2 g6^1 g7^1"


def test_unnamed_presentation_gets_default():
    P = groupfile.parse_text("p 3\nn 1\n").presentation
    assert P.name == "unnamed"
    assert groupfile.parse_text(groupfile.serialize(P)).presentation.name == "unnamed"


B2 = "name x\np 3\nn 2\n"
B3 = "name x\np 3\nn 3\n"

# (text, line, full message) for each syntax error parse_text and _parse_word raise
SYNTAX_ERRORS = {
    "empty-word": (B2 + "pow 1 =\n", 4, "empty word (use 1 for the identity)"),
    "bad-token": (B2 + "pow 1 = f2^1\n", 4, "bad word token 'f2^1'"),
    "token-unicode-digit": (B2 + "pow 1 = g²^1\n", 4, "bad word token 'g²^1'"),
    "generator-range": (B2 + "pow 1 = g5^1\n", 4, "generator g5 out of range 1..2"),
    "generator-too-low": (B2 + "pow 1 = g1^1\n", 4,
                          "generator g1 not allowed here (needs index > 1)"),
    "not-increasing": (B3 + "pow 1 = g3^1 g2^1\n", 4,
                       "generator indices must strictly increase, g2 after g3"),
    "exponent": (B2 + "pow 1 = g2^3\n", 4, "exponent 3 not in 1..2"),
    "duplicate-name": ("name x\nname y\n", 2, "duplicate name line"),
    "name-label": ("name\n", 1, "name line needs a label"),
    "duplicate-p": ("p 3\np 3\nn 1\n", 2, "duplicate p line"),
    "p-integer": ("p three\n", 1, "p must be an integer, got 'three'"),
    # int() reads these four as 3, 13, 3 and 2; p and n are ASCII digits,
    # as relation indices are
    "p-arabic-indic": ("p ٣\nn 2\n", 1, "p must be an integer, got '٣'"),
    "p-underscore": ("p 1_3\nn 2\n", 1, "p must be an integer, got '1_3'"),
    "p-plus": ("p +3\nn 2\n", 1, "p must be an integer, got '+3'"),
    "n-fullwidth": ("p 3\nn ２\n", 2, "n must be an integer, got '２'"),
    "p-prime": ("name x\np 4\nn 1\n", 2, "p = 4 is not prime"),
    "duplicate-n": ("p 3\nn 1\nn 1\n", 3, "duplicate n line"),
    "n-integer": ("p 3\nn 2.5\n", 2, "n must be an integer, got '2.5'"),
    "n-positive": ("p 3\nn 0\n", 2, "n must be >= 1, got 0"),
    "pow-before-header": ("name x\npow 1 = g2^1\np 3\nn 2\n", 2,
                          "pow line before p and n are declared"),
    "comm-before-header": ("p 3\ncomm 2 1 = 1\nn 2\n", 2, "comm line before p and n are declared"),
    "def-before-header": ("n 2\ndef 2 = pow 1\n", 2, "def line before p and n are declared"),
    "pow-equals": (B2 + "pow 1 g2^1\n", 4, "pow line needs '='"),
    "comm-equals": (B2 + "comm 2 1\n", 4, "comm line needs '='"),
    "def-equals": (B2 + "def 2 pow 1\n", 4, "def line needs '='"),
    "pow-arity": (B2 + "pow 1 2 = 1\n", 4, "pow needs one generator index"),
    "pow-not-index": (B2 + "pow x = 1\n", 4, "pow needs one generator index"),
    "pow-range": (B2 + "pow 3 = 1\n", 4, "pow index 3 out of range"),
    "pow-zero": (B2 + "pow 0 = 1\n", 4, "pow index 0 out of range"),
    "duplicate-pow": (B2 + "pow 1 = g2^1\npow 1 = g2^2\n", 5, "duplicate pow line for 1"),
    "comm-arity": (B2 + "comm 2 = g2^1\n", 4, "comm needs two generator indices"),
    "comm-not-index": (B2 + "comm 2 -1 = 1\n", 4, "comm needs two generator indices"),
    "comm-order": (B2 + "comm 1 2 = g2^1\n", 4,
                   "comm indices need 1 <= j < i <= n, got i=1 j=2"),
    "comm-range": (B2 + "comm 3 1 = 1\n", 4, "comm indices need 1 <= j < i <= n, got i=3 j=1"),
    "duplicate-comm": (B3 + "comm 2 1 = g3^1\ncomm 02 1 = g3^1\n", 5,
                       "duplicate comm line for 2 1"),
    "def-arity": (B2 + "def = pow 1\n", 4, "def needs one generator index"),
    "def-range": (B2 + "def 3 = pow 1\n", 4, "def index 3 out of range"),
    "duplicate-def": (B3 + "comm 2 1 = g3^1\ndef 3 = comm 2 1\ndef 3 = comm 2 1\n", 6,
                      "duplicate def line for 3"),
    "def-body-kind": (B2 + "def 2 = power 1\n", 4,
                      "def body must be 'pow <j>' or 'comm <j> <k>', got ' power 1'"),
    "def-body-arity": (B2 + "def 2 = comm 1\n", 4,
                       "def body must be 'pow <j>' or 'comm <j> <k>', got ' comm 1'"),
    "def-body-index": (B2 + "def 2 = pow x\n", 4,
                       "def body must be 'pow <j>' or 'comm <j> <k>', got ' pow x'"),
    "def-body-empty": (B2 + "def 2 =\n", 4,
                       "def body must be 'pow <j>' or 'comm <j> <k>', got ''"),
    "unknown-directive": (B2 + "powx 1 = g2^1\n", 4, "unknown directive 'powx'"),
    "missing-p": ("name x\n", 0, "missing p line"),
    "missing-n": ("name x\np 3\n", 0, "missing n line"),
    "def-tail": (B3 + "def 2 = pow 1\n", 0,
                 "def lines must cover a tail range of generators; got [2]"),
}


@pytest.mark.parametrize("text, line, reason", SYNTAX_ERRORS.values(), ids=SYNTAX_ERRORS)
def test_syntax_error_message_and_line(text, line, reason):
    e = _err(text)
    assert (e.source, e.line, e.reason) == ("test.pg", line, reason)
    assert str(e) == f"test.pg:{line}: {reason}"


def test_trivial_commutator_line_counts_as_a_duplicate():
    # a trivial word is not stored, but its line is still the one for 2 1
    text = "p 3\nn 3\ncomm 2 1 = 1\ncomm 2 1 = g3^1\ndef 3 = comm 2 1\n"
    e = _err(text)
    assert (e.line, e.reason) == (4, "duplicate comm line for 2 1")
    e = _err("p 3\nn 2\ncomm 2 1 = 1\ncomm 2 1 = 1\n")
    assert (e.line, e.reason) == (4, "duplicate comm line for 2 1")


# str.isdigit accepts these, int() rejects the superscript and reads the
# Arabic-Indic digit as 3; an index is ASCII digits only, as inside a word
@pytest.mark.parametrize(
    "line, reason",
    [
        ("pow ² = 1", "pow needs one generator index"),
        ("comm 2 ¹ = 1", "comm needs two generator indices"),
        ("def ٣ = comm 2 1", "def needs one generator index"),
        ("def 3 = comm ² 1", "def body must be 'pow <j>' or 'comm <j> <k>', "
                                  "got ' comm ² 1'"),
        ("def 3 = pow ¹", "def body must be 'pow <j>' or 'comm <j> <k>', got ' pow ¹'"),
    ],
    ids=["pow", "comm", "def", "def-comm-body", "def-pow-body"],
)
def test_indices_are_ascii_digits(line, reason):
    e = _err(B3 + "comm 2 1 = g3^1\n" + line + "\n")
    assert (e.line, e.reason) == (5, reason)

