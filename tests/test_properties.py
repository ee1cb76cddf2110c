"""Property tests over generated inputs: tokenizer offsets, the sketch
grammar's round trip, canonical-form idempotence, and the execution engine
against the naive row-scan oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from annosql.meta import REAL, TEXT, Table
from annosql.sqlgen import (
    AGGREGATES,
    OPS,
    AnnotatedSqlAst,
    ConcreteSql,
    SqlSymbol,
    canonicalize,
    execute,
    parse_annotated_sql,
    serialize_sketch,
    sketch_tokens,
)
from annosql.text import tokenize, tokenize_with_offsets

from support import make_schema
from test_sqlgen import naive_execute

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


# numbers with signs, commas, decimals and exponents, padding, and text; no
# letters that spell nan or inf, since nan never equals itself in a result
CELLS = st.text(alphabet="0123456789-., ex", max_size=6)


@st.composite
def tables_and_queries(draw):
    types = draw(st.lists(st.sampled_from([TEXT, REAL]), min_size=1, max_size=4))
    schema = make_schema("t", [(f"col{i}", t) for i, t in enumerate(types)])
    rows = draw(st.lists(st.tuples(*[CELLS] * len(types)), max_size=8))
    names = st.sampled_from([c.name for c in schema.columns] + ["COL0", "nope"])
    conds = draw(st.lists(st.tuples(names, st.sampled_from(OPS), CELLS), max_size=3))
    sql = ConcreteSql(draw(st.sampled_from(AGGREGATES)), draw(names), tuple(conds))
    return Table(schema, tuple(rows)), sql


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


@FAST
@given(tables_and_queries())
def test_execute_matches_naive_oracle(table_and_query):
    table, sql = table_and_query
    assert execute(sql, table) == naive_execute(sql, table)
