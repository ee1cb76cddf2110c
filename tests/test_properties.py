"""Property tests over generated inputs: tokenizer offsets, the sketch
grammar's round trip, and canonical-form idempotence."""

from hypothesis import given, settings
from hypothesis import strategies as st

from annosql.sqlgen import (
    AGGREGATES,
    OPS,
    AnnotatedSqlAst,
    ConcreteSql,
    SqlSymbol,
    canonicalize,
    parse_annotated_sql,
    serialize_sketch,
    sketch_tokens,
)
from annosql.text import tokenize, tokenize_with_offsets

FAST = settings(max_examples=200, deadline=None)


def symbols(families):
    return st.builds(SqlSymbol, st.sampled_from(families), st.integers(1, 40))


ASTS = st.builds(
    AnnotatedSqlAst,
    st.sampled_from(AGGREGATES),
    symbols("cg"),
    st.lists(st.tuples(symbols("cg"), st.sampled_from(OPS), symbols("v")), max_size=4).map(tuple),
)

WORDS = st.text(max_size=12)
QUERIES = st.builds(
    ConcreteSql,
    st.sampled_from(AGGREGATES),
    WORDS,
    st.lists(st.tuples(WORDS, st.sampled_from(OPS), WORDS), max_size=4).map(tuple),
    st.one_of(st.none(), WORDS),
)


@FAST
@given(st.text(max_size=60))
def test_token_offsets_reproduce_tokens(text):
    tokens, offsets = tokenize_with_offsets(text)
    assert tokens == tokenize(text)
    assert len(offsets) == len(tokens)
    for tok, (start, end) in zip(tokens, offsets):
        assert text[start:end].casefold() == tok
    ends = [0] + [end for _start, end in offsets]
    assert all(prev <= start < end for prev, (start, end) in zip(ends, offsets))


@FAST
@given(ASTS)
def test_sketch_tokens_parse_back(ast):
    assert parse_annotated_sql(sketch_tokens(ast)) == ast
    assert parse_annotated_sql(serialize_sketch(ast).split()) == ast


@FAST
@given(QUERIES)
def test_canonicalize_is_idempotent(sql):
    once = canonicalize(sql)
    assert canonicalize(once) == once
