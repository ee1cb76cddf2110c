import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annosql.meta import (
    EMPTY_EMBEDDINGS,
    ColumnMeta,
    MetaError,
    Table,
    build_value_stats,
    load_embeddings,
    load_phrase_lexicon,
    load_tables,
    value_affinity,
)
from annosql.harness import Config
from annosql.synth import generate_corpus, make_table
from annosql.text import normalize, parse_number, tokenize
from annosql.trees import load_trees

from support import embedding_store, make_schema, reference_value_affinity


def test_tokenize_splits_underscores_and_keeps_numbers():
    assert tokenize("Film_Name") == ["film", "name"]
    assert tokenize("1,225 people?") == ["1,225", "people", "?"]
    assert parse_number("1,225") == 1225.0
    assert parse_number("mayo") is None
    assert normalize("  Piotr   ADAMCZYK ") == "piotr adamczyk"


def write_tables(tmp_path, lines):
    path = tmp_path / "tables.jsonl"
    path.write_text("\n".join(json.dumps(l) for l in lines) + ("\n" if lines else ""))
    return str(path)


def test_load_tables_townlands_header(tmp_path):
    path = write_tables(
        tmp_path,
        [
            {
                "id": "t1",
                "header": ["County", "English_Name", "Irish_Name", "Population", "Irish_Speakers"],
                "types": ["text", "text", "text", "real", "text"],
                "rows": [["Mayo", "Carrowteige", "Ceathru Thaidhg", 356, "64%"]],
            }
        ],
    )
    [(schema, table)] = load_tables(path)
    assert len(schema.columns) == 5
    assert schema.columns[3].name == "Population"
    assert schema.columns[3].position == 3
    assert table.rows[0][3] == "356"


def test_load_tables_empty_file(tmp_path):
    path = tmp_path / "tables.jsonl"
    path.write_text("")
    assert load_tables(str(path)) == []


def test_load_tables_no_rows_gives_empty_stats(tmp_path):
    path = write_tables(
        tmp_path, [{"id": "t", "header": ["A"], "types": ["text"], "rows": []}]
    )
    [(schema, table)] = load_tables(path)
    stats = build_value_stats(table)
    assert stats.column(0).values == frozenset()
    assert stats.column(0).numeric_range is None


def test_load_tables_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "tables.jsonl"
    path.write_text('{"id": "a", "header": ["A"], "types": ["text"], "rows": []}\n{bad json\n')
    with pytest.raises(MetaError, match=":2: "):
        load_tables(str(path))


def test_load_tables_duplicate_headers_name_table(tmp_path):
    path = write_tables(
        tmp_path,
        [{"id": "dup-table", "header": ["A", "a"], "types": ["text", "text"], "rows": []}],
    )
    with pytest.raises(MetaError, match="dup-table"):
        load_tables(path)


def _table_line(**fields):
    return json.dumps({"id": "t", "header": ["A", "B"], "types": ["text", "real"],
                       "rows": [["x", 1]], **fields})


@pytest.mark.parametrize(
    "load, good, bad",
    [
        (load_trees, "(S (A x) (B y))", "(S (A x) (B y)"),
        (load_embeddings, "a 1.0 0.0", "b 1.0 zero"),
        (load_embeddings, "a 1.0 0.0", "b 1.0"),
        (load_embeddings, "a 1.0 0.0", "b 1.0 inf"),
        (load_embeddings, "a 1.0 0.0", "b nan 1.0"),
        (load_tables, _table_line(), _table_line(rows=[["x", 1, "extra"]])),
        (load_tables, _table_line(), _table_line(types=5)),
        (load_tables, _table_line(), _table_line(rows=5)),
        (load_tables, _table_line(), _table_line(rows="xy")),
        (load_tables, _table_line(), _table_line(header=["A", "a"])),
        (load_phrase_lexicon, "Population\tpopulation of <slot>", "Rank\tfrom <slot> to <slot>"),
    ],
    ids=[
        "tree", "vector-component", "vector-width", "vector-non-finite", "vector-nan", "row-width", "types-not-list",
        "rows-not-list", "rows-string", "duplicate-column", "two-slots",
    ],
)
def test_malformed_input_names_file_and_line(tmp_path, load, good, bad):
    path = tmp_path / "input.txt"
    path.write_text(f"{good}\n{bad}\n")
    with pytest.raises(MetaError) as info:
        load(str(path))
    assert str(info.value).startswith(f"{path}:2: ")


def test_build_value_stats_townlands(townlands):
    _schema, _table, stats, _lex, _q = townlands
    assert {"mayo", "galway"} <= stats.column(0).values
    assert stats.column(3).numeric_range == (356.0, 1225.0)


def test_build_value_stats_single_row_range():
    schema = make_schema("t", [("N", "real")])
    stats = build_value_stats(Table(schema, (("356",),)))
    assert stats.column(0).numeric_range == (356.0, 356.0)


def test_non_finite_cells_are_not_numbers():
    """A "nan" or "inf" cell is text: it neither widens nor poisons a real
    column's range."""
    schema = make_schema("t", [("N", "real")])
    stats = build_value_stats(Table(schema, (("nan",), ("3",), ("inf",), ("5",))))
    assert stats.column(0).numeric_range == (3.0, 5.0)
    for text in ("nan", "NaN", "inf", "-inf", "Infinity", "-infinity"):
        assert parse_number(text) is None


def test_parse_number_pins_its_results():
    """Text without a digit is no number; other text gets what float()
    gives, with a non-finite value as None."""
    cases = {
        "what": None, "": None, "-": None, "1,225": 1225.0, "-3": -3.0, ".5": 0.5,
        "1e5": 100000.0, "nan": None, "-Infinity": None, "\u0663": 3.0,
    }
    assert {text: parse_number(text) for text in cases} == cases


def _phrases_by_position(stats):
    by_position = {}
    for phrase, positions in stats.phrases.items():
        assert len(set(positions)) == len(positions)
        for pos in positions:
            by_position.setdefault(pos, set()).add(phrase)
    return by_position


def test_phrase_map_matches_the_cells():
    """The phrases the table-wide map gives each column are exactly the
    column's normalized non-empty cells, on synth tables and on a table
    where one phrase is a cell of a text and of a real column."""
    _examples, tables, _records = generate_corpus(20, 8, 29, Config())
    schema = make_schema("t", [("Name", "text"), ("Score", "real"), ("Code", "text")])
    mixed = Table(schema, (("12", "12", "Ann  LEE"), ("Bo", "7", ""), (" ", "3.5", "?")))
    for table in [b.table for b in tables.values()] + [mixed]:
        stats = build_value_stats(table)
        by_position = _phrases_by_position(stats)
        for col in table.schema.columns:
            want = {normalize(c) for c in table.column_values(col.position)} - {""}
            assert by_position.get(col.position, set()) == want
    stats = build_value_stats(mixed)
    assert sorted(stats.phrases["12"]) == [0, 1]
    assert value_affinity(["12"], schema.columns, stats, EMPTY_EMBEDDINGS) == [1.0, 1.0, 0.0]


def test_build_value_stats_distinct_and_idempotent():
    schema = make_schema("t", [("A", "text")])
    table = Table(schema, (("x",), ("x",)))
    stats = build_value_stats(table)
    assert len(stats.column(0).values) == 1
    assert build_value_stats(table) == stats


def test_load_phrase_lexicon(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text(
        "Population\tpopulation of <slot>|how many people live in <slot>\n"
        "Population\tpopulation of <slot>\n"
    )
    lex = load_phrase_lexicon(str(path))
    col = ColumnMeta("population", "real", 0)
    templates = lex.templates_for(col)
    assert len(templates) == 2  # duplicate collapsed
    spellings = {t.tokens for t in templates}
    assert ("population", "of", None) in spellings
    assert ("how", "many", "people", "live", "in", None) in spellings


def test_load_phrase_lexicon_empty(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("")
    assert load_phrase_lexicon(str(path)).by_column == {}


def test_load_phrase_lexicon_keeps_unknown_column(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("NoSuchColumn\tsome phrase\n")
    lex = load_phrase_lexicon(str(path))
    assert "nosuchcolumn" in lex.by_column


def test_load_embeddings(tmp_path):
    path = tmp_path / "vecs.txt"
    dim = 300
    lines = [f"w{i} " + " ".join(["0.5"] * dim) for i in range(3)]
    path.write_text("\n".join(lines) + "\n")
    store = load_embeddings(str(path))
    assert all(store.get(f"W{i}") is not None for i in range(3))
    assert store.dim == 300
    assert store.get("missing-word") is None


def test_load_embeddings_tiny():
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "v.txt")
        with open(path, "w") as fh:
            fh.write("a 1.0 0.0\n")
        store = load_embeddings(path)
        assert store.dim == 2
        assert list(store.get("a")) == [1.0, 0.0]


def test_load_embeddings_inconsistent_dim_names_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("a 1.0 0.0\nb 1.0\n")
    with pytest.raises(MetaError, match=":2: "):
        load_embeddings(str(path))


def test_value_affinity_exact_match(film_awards):
    schema, _table, stats, _lex, _q = film_awards
    actor = schema.columns[1]
    assert value_affinity(["piotr", "adamczyk"], [actor], stats, EMPTY_EMBEDDINGS) == [1.0]


def test_value_affinity_no_evidence():
    schema = make_schema("t", [("A", "text")])
    stats = build_value_stats(Table(schema, ()))
    assert value_affinity(["anything"], [schema.columns[0]], stats, EMPTY_EMBEDDINGS) == [0.0]


def test_value_affinity_numeric_range():
    schema = make_schema("t", [("N", "real")])
    stats_wide = build_value_stats(Table(schema, (("356",), ("1225",))))
    stats_narrow = build_value_stats(Table(schema, (("1",), ("10",))))
    col = schema.columns[0]
    assert value_affinity(["400"], [col], stats_wide, EMPTY_EMBEDDINGS) == [1.0]
    assert value_affinity(["400"], [col], stats_narrow, EMPTY_EMBEDDINGS) == [0.0]


def test_value_affinity_adjacent_numbers_do_not_merge():
    """The span "1 2" is two numbers, not 12; "- 5" is still -5."""
    schema = make_schema("t", [("Points", "real")])
    col = schema.columns[0]
    stats = build_value_stats(Table(schema, (("10",), ("20",))))
    assert value_affinity(["1", "2"], [col], stats, EMPTY_EMBEDDINGS) == [0.0]
    assert value_affinity(["12"], [col], stats, EMPTY_EMBEDDINGS) == [1.0]
    signed = build_value_stats(Table(schema, (("-10",), ("0",))))
    assert tokenize("-5") == ["-", "5"]
    assert value_affinity(["-", "5"], [col], signed, EMPTY_EMBEDDINGS) == [1.0]
    assert value_affinity(["-", "5", "1"], [col], signed, EMPTY_EMBEDDINGS) == [0.0]


def test_value_affinity_casefold_symmetric(film_awards):
    schema, _table, stats, _lex, _q = film_awards
    for col in schema.columns:
        for term in (["Piotr", "Adamczyk"], ["JERZY"], ["2003", "AUGUST"]):
            folded = [t.casefold() for t in term]
            assert value_affinity(term, [col], stats, EMPTY_EMBEDDINGS) == value_affinity(
                folded, [col], stats, EMPTY_EMBEDDINGS
            )


def test_value_affinity_embedding_path_below_exact():
    emb = embedding_store({"cat": [1.0, 0.0], "dog": [0.8, 0.6], "cow": [0.0, 1.0]})
    schema = make_schema("t", [("Animal", "text")])
    stats = build_value_stats(Table(schema, (("cat",), ("cow",))))
    col = schema.columns[0]
    [exact] = value_affinity(["cat"], [col], stats, emb)
    [fuzzy] = value_affinity(["dog"], [col], stats, emb)
    assert exact == 1.0
    assert 0.0 < fuzzy < 1.0


def _oracle_table():
    """A synth table, its stats, the words of its cells, and seeded random
    8-d embeddings for about half of those words (one of them the zero
    vector), none of them in column 2."""
    schema, table = make_table(random.Random(17), "t")
    words = sorted({t for row in table.rows for cell in row for t in tokenize(cell)})
    bare = {t for cell in table.column_values(2) for t in tokenize(cell)}
    rng = np.random.default_rng(17)
    vectors = {w: rng.standard_normal(8) for w in words[::2] + ["unseen"] if w not in bare}
    vectors[words[1]] = np.zeros(8)
    return schema, table, build_value_stats(table), words, embedding_store(vectors)


ORACLE_TABLE = _oracle_table()
_CELLS = sorted({cell for row in ORACLE_TABLE[1].rows for cell in row})
_TERMS = st.one_of(
    st.sampled_from(_CELLS).map(tokenize),  # whole cell phrases
    st.lists(st.sampled_from(ORACLE_TABLE[3] + ["unseen", "zzz", "-"]), min_size=1, max_size=4),
    st.integers(-200, 2500).map(lambda n: ["-", str(-n)] if n < 0 else [str(n)]),
    st.just(["1", "2"]),
).flatmap(
    lambda term: st.lists(st.booleans(), min_size=len(term), max_size=len(term)).map(
        lambda upper: [t.upper() if u else t for t, u in zip(term, upper)]
    )
)


@settings(max_examples=300, deadline=None)
@given(_TERMS, st.booleans())
def test_value_affinity_matches_the_per_column_oracle(term, with_embeddings):
    """One call over every column scores each exactly as the per-column
    function did, on exact cells, numbers, case variants and unknown words."""
    schema, _table, stats, _words, emb = ORACLE_TABLE
    emb = emb if with_embeddings else EMPTY_EMBEDDINGS
    expected = [reference_value_affinity(term, col, stats, emb) for col in schema.columns]
    assert value_affinity(term, schema.columns, stats, emb) == expected


def test_empty_term_rejected(film_awards):
    schema, _table, stats, _lex, _q = film_awards
    with pytest.raises(ValueError):
        value_affinity([], schema.columns, stats, EMPTY_EMBEDDINGS)


def test_embedding_lookups_do_not_mutate():
    store = embedding_store({"a": [1.0, 0.0]})
    before = dict(store._vectors)
    assert store.get("absent") is None
    assert store.mean(["absent", "also-absent"]) is None
    first = store.get("a").copy()
    assert store._vectors.keys() == before.keys()
    assert (store.get("a") == first).all()
