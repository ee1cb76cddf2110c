import random
import re

import pytest

from annosql.harness import Config
from annosql.meta import EMPTY_EMBEDDINGS, REAL, Table
from annosql.resolve import annotate
from annosql.sqlgen import (
    AGGREGATES,
    OPS,
    AlignmentError,
    AnnotatedSqlAst,
    ConcreteSql,
    ResultSet,
    SketchParseError,
    SqlSymbol,
    SymbolResolutionError,
    align_gold_sql,
    canonicalize,
    execute,
    parse_annotated_sql,
    resolve_symbols,
    result_equal,
    serialize_sketch,
    serialize_sql,
    sketch_tokens,
    sql_tokens,
)
from annosql.text import parse_number

from support import make_schema


def sym(s):
    return SqlSymbol(s[0], int(s[1:]))


def test_parse_two_conditions():
    ast = parse_annotated_sql("select c1 where c2 = v2 and c3 = v3".split())
    assert ast.agg == ""
    assert ast.select == sym("c1")
    assert ast.conds == ((sym("c2"), "=", sym("v2")), (sym("c3"), "=", sym("v3")))


def test_parse_header_target():
    ast = parse_annotated_sql("select g5 where c1 = v1".split())
    assert ast.select == sym("g5")
    assert ast.conds == ((sym("c1"), "=", sym("v1")),)


def test_parse_no_conditions_and_agg():
    assert parse_annotated_sql(["select", "c1"]).conds == ()
    ast = parse_annotated_sql("count select c1 where c2 = v2".split())
    assert ast.agg == "COUNT"


@pytest.mark.parametrize(
    "bad",
    [
        [],
        ["select"],
        ["select", "v1"],
        ["c1", "select"],
        ["select", "c1", "where"],
        ["select", "c1", "where", "c2", "=", "c3"],
        ["select", "c1", "where", "c2", "!", "v2"],
        ["select", "c1", "where", "c2", "=", "v2", "and"],
        ["select", "c1", "extra"],
        ["select", "c1", "where", "v2", "=", "v2"],
        ["<unk>", "select", "c1"],
    ],
)
def test_parse_failures_are_structured(bad):
    with pytest.raises(SketchParseError):
        parse_annotated_sql(bad)


# the sketch grammar over case-folded tokens joined by spaces, written
# apart from the parser
_COLUMN, _VALUE, _OP = r"[cg][1-9][0-9]*", r"v[1-9][0-9]*", "[=<>]"
_CONDITION = f"{_COLUMN} {_OP} {_VALUE}"
SKETCH_RE = re.compile(
    rf"(?:(?:max|min|count|sum|avg) )?select {_COLUMN}(?: where {_CONDITION}(?: and {_CONDITION})*)?"
)
SKETCH_POOL = [
    "select", "SELECT", "Select", "where", "WHERE", "and", "AND", "max", "MIN", "Count", "sum", "avg",
    "c0", "c1", "C2", "c12", "g1", "G3", "v1", "V2", "v10", "=", ">", "<", "!", "<unk>",
]


def _drawn_sketch_tokens(rng):
    """Mostly the layout of a sketch, each token drawn from the pool one
    time in five, else a free draw from the pool."""
    if rng.random() < 0.3:
        return [rng.choice(SKETCH_POOL) for _ in range(rng.randint(0, 10))]

    def pick(*choices):
        return rng.choice(SKETCH_POOL if rng.random() < 0.2 else choices)

    toks = [pick("max", "MIN", "Count", "sum", "avg")] if rng.random() < 0.4 else []
    toks += [pick("select", "SELECT"), pick("c1", "C2", "c12", "g1", "G3")]
    for k in range(rng.randint(0, 3)):
        toks += [pick("where", "WHERE") if k == 0 else pick("and", "AND")]
        toks += [pick("c1", "C2", "g1"), pick("=", ">", "<"), pick("v1", "V2", "v10")]
    return toks[: rng.randint(0, len(toks))] if rng.random() < 0.1 else toks


def test_parse_matches_the_grammar_regex():
    """A drawn token list parses exactly when its case-folded tokens match
    the grammar; a parsed sketch gives back those tokens, and a rejected one
    names them in the error."""
    rng = random.Random(23)
    accepted = 0
    for _ in range(20000):
        toks = _drawn_sketch_tokens(rng)
        folded = [t.casefold() for t in toks]
        try:
            ast = parse_annotated_sql(toks)
        except SketchParseError as exc:
            assert not SKETCH_RE.fullmatch(" ".join(folded)), toks
            assert str(folded) in str(exc)
        else:
            assert SKETCH_RE.fullmatch(" ".join(folded)), toks
            assert sketch_tokens(ast) == folded
            accepted += 1
    assert accepted > 1000


def random_ast(rng, max_idx=5):
    families = ["c", "g"]
    agg = rng.choice(AGGREGATES)
    select = SqlSymbol(rng.choice(families), rng.randint(1, max_idx))
    conds = tuple(
        (
            SqlSymbol(rng.choice(families), rng.randint(1, max_idx)),
            rng.choice(OPS),
            SqlSymbol("v", rng.randint(1, max_idx)),
        )
        for _ in range(rng.randint(0, 3))
    )
    return AnnotatedSqlAst(agg, select, conds)


def test_parse_serialize_identity_random():
    rng = random.Random(17)
    for _ in range(500):
        ast = random_ast(rng)
        assert parse_annotated_sql(sketch_tokens(ast)) == ast
        assert parse_annotated_sql(serialize_sketch(ast).split()) == ast


def test_resolve_symbols_townlands(townlands):
    schema, table, stats, lexicon, question = townlands
    ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, Config())
    ast = parse_annotated_sql("select c1 where c2 = v2 and c3 = v3".split())
    sql = resolve_symbols(ast, ann.symbols, schema)
    assert sql.select == "Population"
    assert sql.conds == (("County", "=", "Mayo"), ("English_Name", "=", "Carrowteige"))
    assert serialize_sql(sql) == (
        "SELECT Population FROM townlands WHERE County = 'Mayo' AND English_Name = 'Carrowteige'"
    )


def test_resolve_header_symbol(film_awards):
    schema, _table, stats, lexicon, question = film_awards
    ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, Config())
    ast = parse_annotated_sql(["select", "g5"])
    assert resolve_symbols(ast, ann.symbols, schema).select == "Nomination Date"


def test_resolve_unbound_symbol(film_awards):
    schema, _table, stats, lexicon, question = film_awards
    ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, Config())
    with pytest.raises(SymbolResolutionError):
        resolve_symbols(
            parse_annotated_sql("select c1 where c2 = v9".split()), ann.symbols, schema
        )
    with pytest.raises(SymbolResolutionError):
        resolve_symbols(parse_annotated_sql(["select", "g9"]), ann.symbols, schema)


def test_canonicalize_condition_order():
    a = ConcreteSql("", "x", (("b", "=", "1"), ("c", "=", "2")))
    b = ConcreteSql("", "x", (("c", "=", "2"), ("b", "=", "1")))
    assert canonicalize(a) == canonicalize(b)


def test_canonicalize_idempotent_and_case():
    q = ConcreteSql("MAX", "Population", (("County", "=", "MAYO"),), "t1")
    c = canonicalize(q)
    assert canonicalize(c) == c
    assert canonicalize(ConcreteSql("MAX", "population", (("county", "=", "mayo"),))) == c


def test_execute_townlands(townlands):
    _schema, table, _stats, _lex, _q = townlands
    sql = ConcreteSql(
        "", "Population", (("County", "=", "Mayo"), ("English_Name", "=", "Carrowteige"))
    )
    assert execute(sql, table).values == ("356",)


def test_execute_empty_and_count(townlands):
    _schema, table, _stats, _lex, _q = townlands
    nothing = ConcreteSql("", "Population", (("County", "=", "nonexistent"),))
    assert execute(nothing, table).values == ()
    counted = ConcreteSql("COUNT", "Population", (("County", "=", "nonexistent"),))
    assert execute(counted, table).values == (0,)


def test_execute_no_where(townlands):
    _schema, table, _stats, _lex, _q = townlands
    sql = ConcreteSql("", "County", ())
    assert execute(sql, table).values == ("Mayo", "Galway")


def test_execute_type_error_flagged(townlands):
    _schema, table, _stats, _lex, _q = townlands
    bad = ConcreteSql("", "Population", (("County", ">", "Mayo"),))
    res = execute(bad, table)
    assert res.values == () and res.flagged
    agg_on_text = ConcreteSql("SUM", "County", ())
    res2 = execute(agg_on_text, table)
    assert res2.values == () and res2.flagged


def test_execute_empty_set_aggregates(townlands):
    _schema, table, _stats, _lex, _q = townlands
    sql = ConcreteSql("MIN", "Population", (("County", "=", "nowhere"),))
    assert execute(sql, table).values == ()


def test_execute_numeric_comparisons(townlands):
    _schema, table, _stats, _lex, _q = townlands
    gt = ConcreteSql("", "County", (("Population", ">", "400"),))
    assert execute(gt, table).values == ("Galway",)
    lt = ConcreteSql("", "County", (("Population", "<", "400"),))
    assert execute(lt, table).values == ("Mayo",)
    avg = ConcreteSql("AVG", "Population", ())
    assert execute(avg, table).values == ((356.0 + 1225.0) / 2,)


def test_execute_aggregates_skip_non_finite_cells():
    """A "nan" cell of a real column is not a number, so SUM, MAX and AVG
    are over 3 and 5 alone."""
    schema = make_schema("t", [("Name", "text"), ("N", "real")])
    table = Table(schema, (("a", "nan"), ("b", "3"), ("c", "5")))
    for agg, want in (("SUM", 8.0), ("MAX", 5.0), ("AVG", 4.0)):
        assert execute(ConcreteSql(agg, "N", ()), table).values == (want,)


# ---------------------------------------------------------------------------
# randomized engine-vs-oracle check


def naive_execute(sql, table):
    """Full row-scan oracle written independently of the engine."""
    schema = table.schema
    cols = {c.folded: c for c in schema.columns}
    target = cols.get(sql.select.casefold())
    if target is None or any(cols.get(c.casefold()) is None for c, _o, _v in sql.conds):
        return ResultSet((), flagged=True)
    # type errors are a property of the query, not of any particular row
    for cname, op, val in sql.conds:
        col = cols[cname.casefold()]
        if op != "=":
            if col.col_type != REAL or parse_number(str(val)) is None:
                return ResultSet((), flagged=True)

    def row_ok(row):
        for cname, op, val in sql.conds:
            col = cols[cname.casefold()]
            cell = row[col.position]
            if col.col_type == REAL:
                lit = parse_number(str(val))
                if lit is None:
                    if cell.strip().casefold() != str(val).strip().casefold():
                        return False
                    continue
                num = parse_number(cell)
                if num is None:
                    return False
                ok = {"=": num == lit, ">": num > lit, "<": num < lit}[op]
                if not ok:
                    return False
            else:
                if cell.strip().casefold() != str(val).strip().casefold():
                    return False
        return True

    kept = [row[target.position] for row in table.rows if row_ok(row)]
    if sql.agg == "":
        return ResultSet(tuple(kept))
    if sql.agg == "COUNT":
        return ResultSet((len(kept),))
    if target.col_type != REAL:
        return ResultSet((), flagged=True)
    nums = [parse_number(c) for c in kept]
    nums = [n for n in nums if n is not None]
    if not nums:
        return ResultSet(())
    agg = {
        "MAX": max,
        "MIN": min,
        "SUM": sum,
        "AVG": lambda xs: sum(xs) / len(xs),
    }[sql.agg]
    return ResultSet((agg(nums),))


def random_table(rng, table_id="t"):
    n_cols = rng.randint(1, 6)
    cols = []
    for i in range(n_cols):
        cols.append((f"col{i}", rng.choice(["text", "real"])))
    schema = make_schema(table_id, cols)
    words = ["ash", "bay", "elm", "fir", "oak", "yew"]
    rows = []
    for _ in range(rng.randint(0, 50)):
        row = []
        for _name, typ in cols:
            if typ == "real":
                row.append(str(rng.randint(-20, 20)))
            else:
                row.append(rng.choice(words))
        rows.append(tuple(row))
    return schema, Table(schema, tuple(rows))


def random_query(rng, schema, table):
    agg = rng.choice(AGGREGATES)
    select = rng.choice(schema.columns).name
    conds = []
    for _ in range(rng.randint(0, 3)):
        col = rng.choice(schema.columns)
        op = rng.choice(OPS)
        if table.rows and rng.random() < 0.7:
            val = rng.choice(table.rows)[col.position]
        elif col.col_type == "real":
            val = str(rng.randint(-25, 25))
        else:
            val = rng.choice(["ash", "oak", "missing", "Bay"])
        conds.append((col.name, op, val))
    return ConcreteSql(agg, select, tuple(conds))


def test_execute_matches_naive_oracle_randomized():
    rng = random.Random(42)
    for _ in range(1000):
        schema, table = random_table(rng)
        sql = random_query(rng, schema, table)
        got = execute(sql, table)
        want = naive_execute(sql, table)
        assert got == want, f"{serialize_sql(sql)} on {table.rows}"


def test_result_equal_semantics():
    assert result_equal(ResultSet(("356",)), ResultSet((356,)))
    assert result_equal(ResultSet((1.0, "x")), ResultSet(("x", 1)))
    assert not result_equal(ResultSet((1.0,)), ResultSet((1.0, 1.0)))
    assert result_equal(ResultSet((1.0000000000001,)), ResultSet((1.0,)), tol=1e-9)
    assert not result_equal(ResultSet((1.001,)), ResultSet((1.0,)), tol=1e-9)


def test_result_equal_nan_equals_nothing():
    """NaN, as a number or as the text "nan", matches no number."""
    nan = float("nan")
    assert not result_equal(ResultSet((nan,)), ResultSet((7.0,)))
    assert not result_equal(ResultSet((7.0,)), ResultSet((nan,)))
    assert not result_equal(ResultSet((nan,)), ResultSet((nan,)))
    assert not result_equal(ResultSet(("nan",)), ResultSet((7.0,)))


# ---------------------------------------------------------------------------
# gold alignment


def test_align_gold_film_awards(film_awards):
    schema, _table, stats, lexicon, question = film_awards
    ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, Config())
    gold = ConcreteSql(
        "", "Film_Name", (("Director", "=", "Jerzy Antczak"), ("Actor", "=", "Piotr Adamczyk"))
    )
    ast = align_gold_sql(gold, ann, schema, max_index=25)
    assert serialize_sketch(ast) == "SELECT c1 WHERE c2 = v2 AND c3 = v3"


def test_align_gold_unmentioned_select_uses_header(film_awards):
    schema, _table, stats, lexicon, question = film_awards
    ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, Config())
    gold = ConcreteSql("", "Nomination Date", (("Actor", "=", "Piotr Adamczyk"),))
    ast = align_gold_sql(gold, ann, schema, max_index=25)
    assert ast.select == SqlSymbol("g", 5)


def test_align_gold_missing_value_fails(film_awards):
    schema, _table, stats, lexicon, question = film_awards
    ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, Config())
    gold = ConcreteSql("", "Film_Name", (("Actor", "=", "Levan Uchaneishvili"),))
    with pytest.raises(AlignmentError):
        align_gold_sql(gold, ann, schema, max_index=25)


def test_align_respects_index_cap(film_awards):
    schema, _table, stats, lexicon, question = film_awards
    ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, Config())
    gold = ConcreteSql("", "Nomination Date", (("Actor", "=", "Piotr Adamczyk"),))
    with pytest.raises(AlignmentError):
        align_gold_sql(gold, ann, schema, max_index=4)


def test_align_round_trip(film_awards, townlands):
    for schema, table, stats, lexicon, question, gold in [
        (*film_awards, ConcreteSql("", "Film_Name", (("Director", "=", "Jerzy Antczak"), ("Actor", "=", "Piotr Adamczyk")), "film_awards")),
        (*townlands, ConcreteSql("", "Population", (("County", "=", "Mayo"), ("English_Name", "=", "Carrowteige")), "townlands")),
    ]:
        ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, Config())
        ast = align_gold_sql(gold, ann, schema, max_index=25)
        back = resolve_symbols(ast, ann.symbols, schema)
        assert canonicalize(back) == canonicalize(gold)


def test_sql_tokens_structure():
    sql = ConcreteSql("COUNT", "Name", (("a", "=", "x"),), "t")
    assert sql_tokens(sql) == ["select", "count", "Name", "where", "a", "=", "x"]


def test_serialize_sql_quoting():
    sql = ConcreteSql("", "col", (("name", "=", "O'Brien"),))
    assert serialize_sql(sql) == "SELECT col FROM t WHERE name = 'O''Brien'"
