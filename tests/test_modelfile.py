import functools
import json

import pytest
from hypothesis import example, given, strategies as st

import record_load_errors
import token_oracle
from conftest import corpus_path
from rgkit.modelfile import (
    Parser,
    load,
    parse_bpc,
    parse_pcm,
    serialize,
    serialize_bpel,
    token_kind,
    token_position,
    tokenize,
)
from rgkit.values import LoadError

PCM_FILES = [
    "cpts_suite.pcm",
    "prove_suite.pcm",
    "broken_suite.pcm",
    "inv_suite.pcm",
    "loop_variant.pcm",
    "buddy_desk.pcm",
    "buddy_single.pcm",
]


def test_empty_model_is_valid():
    mf = parse_pcm("MODEL nothing")
    assert mf.name == "nothing" and not mf.sets and not mf.esystems


@pytest.mark.parametrize("name", PCM_FILES)
def test_corpus_roundtrip_byte_identical(name):
    mf = load(corpus_path(name))
    s1 = serialize(mf)
    s2 = serialize(parse_pcm(s1))
    assert s1 == s2


def test_bpc_roundtrip_byte_identical():
    bf = load(corpus_path("bpel_suite.bpc"))
    s1 = serialize_bpel(bf)
    s2 = serialize_bpel(parse_bpc(s1))
    assert s1 == s2
    assert len(bf.activities) == 12


def test_missing_end_positioned_error():
    text = """MODEL broken
SCHEMA
  x : INT 0..1 INIT 0
END
EVENT e WHEN true THEN x := 1
"""
    with pytest.raises(LoadError) as ei:
        parse_pcm(text)
    assert ei.value.pos is not None


def test_unresolved_name_is_load_error():
    text = """MODEL broken
SCHEMA
  x : INT 0..1 INIT 0
END
ESYS s := EVT nosuch
"""
    with pytest.raises(LoadError) as ei:
        parse_pcm(text)
    assert "nosuch" in str(ei.value)


def test_init_outside_domain_rejected():
    text = """MODEL broken
SCHEMA
  x : INT 0..1 INIT 7
END
"""
    with pytest.raises(LoadError):
        parse_pcm(text)


def test_type_error_rejected_at_load():
    text = """MODEL broken
SCHEMA
  x : INT 0..1 INIT 0
END
SET s := x + true
"""
    with pytest.raises(LoadError):
        parse_pcm(text)


def test_expression_precedence():
    p = Parser("1 + 2 * 3 ^ 2 = 19 AND NOT false")
    e = p.parse_expr()
    from rgkit.exprs import render_expr
    from rgkit.values import IntType, Schema

    schema = Schema([("x", IntType(0, 1), 0)])
    from rgkit.exprs import compile_expr

    assert compile_expr(e, schema)(schema.initial_state(), []) is True
    # canonical render reparses to the same tree
    assert Parser(render_expr(e)).parse_expr() == e


@pytest.mark.parametrize("text, spaced", [
    ("x-1", "x - 1"),
    ("x-1-1", "x - 1 - 1"),
    ("2*x-1", "2 * x - 1"),
    ("x*-1", "x * -1"),
    ("[1, -1]", "[1, -1]"),
])
def test_minus_integer_token_after_an_operand_is_binary_minus(text, spaced):
    """The tokenizer reads "-1" as one integer; where an operator is
    expected, the parser reads it as a binary minus and then 1."""
    from rgkit.exprs import render_expr

    p = Parser(text)
    e = p.parse_expr()
    assert p.toks[p.i] == ""
    assert render_expr(e) == spaced
    assert e == Parser(spaced).parse_expr()


def test_minus_without_spaces_loads_and_formats():
    text = """MODEL m
ADAPTER imp
SCHEMA
  x : INT 0..3 INIT 0
END
SET s := x-1 = 0
"""
    m = parse_pcm(text)
    assert m.sets["s"].holds(m.schema.state(x=1)) and not m.sets["s"].holds(m.schema.state(x=0))
    assert "SET s := x - 1 = 0\n" in serialize(m)
    assert "-1" in tokenize(text)  # the tokenizer is unchanged


def test_program_roundtrip():
    text = """MODEL progs
ADAPTER imp
SCHEMA
  x : INT 0..5 INIT 0
  y : INT 0..5 INIT 0
END
PROGRAM p := x := 1 ;; IF x = 1 THEN (x, y) := (2, 3) ELSE SKIP FI ;; WHILE x < 5 DO x := x + 1 OD ;; AWAIT y = 3 THEN y := 4 END ;; ATOM x := 0 END
"""
    mf = parse_pcm(text)
    s1 = serialize(mf)
    assert serialize(parse_pcm(s1)) == s1


def test_for_loop_desugars():
    text = """MODEL fors
ADAPTER imp
SCHEMA
  i : INT 0..5 INIT 0
  acc : INT 0..5 INIT 0
END
PROGRAM p := FOR i := 0; i < 3; i := i + 1 DO acc := acc + 1 ROF
"""
    mf = parse_pcm(text)
    from rgkit.adapters import PSeq, While

    p = mf.programs["p"]
    assert isinstance(p, PSeq) and isinstance(p.b, While)


def test_buddy_section_exposes_model():
    mf = load(corpus_path("buddy_desk.pcm"))
    assert mf.buddy is not None
    assert "kernel" in mf.pes
    assert {"inv", "quiescent", "no_partner_fragmentation", "free_list_valid"} <= set(mf.sets)
    assert "clock" in mf.rels and "guarantee_t1" in mf.rels


def test_event_missing_domain_value_type():
    text = """MODEL bad
ADAPTER imp
SCHEMA
  x : INT 0..1 INIT 0
END
EVENT e(v : INT 0..1 VALUES 7) WHEN true THEN x := v END
ESYS s := EVT e
"""
    with pytest.raises(LoadError):
        parse_pcm(text)


@pytest.mark.parametrize("section, pos", [
    ("SET s := BUILTIN inv", "5:10"),
    ("SET s := x + 1", "5:10"),
    ("REL r := ID RULE WHEN y = 1 DO x := 1 END END", "5:23"),
    ("REL r := RULE WHEN true DO y := 1 END END", "5:28"),
    ("REL r := ID END\nRGSPEC g := PRE [y = 1] RELY r GUAR r POST [true]", "6:18"),
    ("PROGRAM p := IF y THEN x := 1 ELSE x := 2 FI", "5:14"),
    ("EVENT e WHEN y = 1 THEN x := 1 END\nESYS s := EVT e", "5:7"),
])
def test_checks_after_parsing_give_positions(section, pos):
    text = "MODEL m\nSCHEMA\n  x : INT 0..2 INIT 0\nEND\n" + section + "\n"
    with pytest.raises(LoadError) as ei:
        parse_pcm(text)
    assert str(ei.value).startswith(f"{pos}: ")


def test_bpel_activity_checks_give_positions():
    text = ("BPEL b\nSCHEMA\n  x : INT 0..3 INIT 0\nEND\nLINKS l1\nTICKMAX 3\n"
            "ACTIVITY a := WHILE z < 2 { EMPTY }\n")
    with pytest.raises(LoadError) as ei:
        parse_bpc(text)
    assert str(ei.value) == "7:15: undeclared variable 'z'"


@functools.cache
def _golden() -> dict:
    with open(record_load_errors.GOLDEN, encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("name", record_load_errors.corpus_files())
def test_corrupted_corpus_loads_match_golden(name):
    """Truncated, token-deleted, stray-character and odd-whitespace copies
    of each corpus file fail with the recorded message and line:col, or
    load to the recorded model (see tests/record_load_errors.py)."""
    cases, _ = record_load_errors.outcomes(name, record_load_errors.corpus_text(name))
    assert cases == _golden()["cases"][name]


def _tokens(text: str):
    """(kind, text, line, col) of every token, or the LoadError's text."""
    try:
        toks = tokenize(text)
    except LoadError as e:
        return str(e)
    return [(token_kind(t), t, *token_position(text, k)) for k, t in enumerate(toks)]


def _oracle_tokens(text: str):
    try:
        toks = token_oracle.tokenize(text)
    except LoadError as e:
        return str(e)
    return [(t.kind, t.text, t.line, t.col) for t in toks]


@pytest.mark.parametrize("name", record_load_errors.corpus_files())
def test_tokenizer_matches_oracle_on_corpus(name):
    text = record_load_errors.corpus_text(name)
    assert _tokens(text) == _oracle_tokens(text)


_PIECES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
    st.from_regex(r"-?[0-9]{1,3}", fullmatch=True),
    st.sampled_from([":=", ";;", "..", "!=", "<=", ">=", "->", *"()[]{}:,;.=<>+-*^@|!"]),
    st.from_regex(r"#[^\n]{0,6}", fullmatch=True),
    st.sampled_from([" ", "\n", "\t", "\r", "\r\n", "\x0b", "\x0c", "\u00a0", "\u2028"]),
    # Stray characters; the Arabic-Indic digit three is a \d.
    st.sampled_from(["$", '"', "'", "?", "~", "\\", "`", "\u00e9", "\u0663"]),
)


@given(text=st.lists(_PIECES, max_size=24).map("".join))
@example(text="x-1->y..z")
@example(text="a # $ comment\r\n\u00a0$")
def test_tokenizer_matches_oracle(text):
    """The same kinds, texts and positions as the reference tokenizer, or
    the same error."""
    assert _tokens(text) == _oracle_tokens(text)
