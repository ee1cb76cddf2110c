import json

import pytest

from annosql.meta import (
    ColumnMeta,
    EmbeddingStore,
    MetaError,
    Table,
    build_value_stats,
    load_embeddings,
    load_phrase_lexicon,
    load_tables,
    value_affinity,
)
from annosql.text import normalize, parse_number, tokenize

from support import make_schema


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
    with pytest.raises(MetaError, match="line 2"):
        load_tables(str(path))


def test_load_tables_duplicate_headers_name_table(tmp_path):
    path = write_tables(
        tmp_path,
        [{"id": "dup-table", "header": ["A", "a"], "types": ["text", "text"], "rows": []}],
    )
    with pytest.raises(MetaError, match="dup-table"):
        load_tables(path)


def test_build_value_stats_townlands(townlands):
    _schema, _table, stats, _lex, _q = townlands
    assert {"mayo", "galway"} <= stats.column(0).values
    assert stats.column(3).numeric_range == (356.0, 1225.0)


def test_build_value_stats_single_row_range():
    schema = make_schema("t", [("N", "real")])
    stats = build_value_stats(Table(schema, (("356",),)))
    assert stats.column(0).numeric_range == (356.0, 356.0)


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
    assert len(load_phrase_lexicon(str(path))) == 0


def test_load_phrase_lexicon_unknown_column_warns_but_keeps(tmp_path, caplog):
    path = tmp_path / "lex.txt"
    path.write_text("NoSuchColumn\tsome phrase\n")
    with caplog.at_level("WARNING"):
        lex = load_phrase_lexicon(str(path), known_columns={"population"})
    assert "nosuchcolumn" in lex.by_column
    assert any("NoSuchColumn" in rec.message for rec in caplog.records)


def test_load_embeddings(tmp_path):
    path = tmp_path / "vecs.txt"
    dim = 300
    lines = [f"w{i} " + " ".join(["0.5"] * dim) for i in range(3)]
    path.write_text("\n".join(lines) + "\n")
    store = load_embeddings(str(path))
    assert len(store) == 3
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
    with pytest.raises(MetaError, match="line 2"):
        load_embeddings(str(path))


def test_value_affinity_exact_match(film_awards):
    schema, _table, stats, _lex, _q = film_awards
    actor = schema.columns[1]
    assert value_affinity(["piotr", "adamczyk"], actor, stats, None) == 1.0


def test_value_affinity_no_evidence():
    schema = make_schema("t", [("A", "text")])
    stats = build_value_stats(Table(schema, ()))
    assert value_affinity(["anything"], schema.columns[0], stats, None) == 0.0


def test_value_affinity_numeric_range():
    schema = make_schema("t", [("N", "real")])
    stats_wide = build_value_stats(Table(schema, (("356",), ("1225",))))
    stats_narrow = build_value_stats(Table(schema, (("1",), ("10",))))
    col = schema.columns[0]
    assert value_affinity(["400"], col, stats_wide, None) == 1.0
    assert value_affinity(["400"], col, stats_narrow, None) == 0.0


def test_value_affinity_casefold_symmetric(film_awards):
    schema, _table, stats, _lex, _q = film_awards
    for col in schema.columns:
        for term in (["Piotr", "Adamczyk"], ["JERZY"], ["2003", "AUGUST"]):
            folded = [t.casefold() for t in term]
            assert value_affinity(term, col, stats, None) == value_affinity(
                folded, col, stats, None
            )


def test_value_affinity_embedding_path_below_exact():
    emb = EmbeddingStore.from_dict({"cat": [1.0, 0.0], "dog": [0.8, 0.6], "cow": [0.0, 1.0]})
    schema = make_schema("t", [("Animal", "text")])
    stats = build_value_stats(Table(schema, (("cat",), ("cow",))))
    col = schema.columns[0]
    exact = value_affinity(["cat"], col, stats, emb)
    fuzzy = value_affinity(["dog"], col, stats, emb)
    assert exact == 1.0
    assert 0.0 < fuzzy < 1.0


def test_empty_term_rejected(film_awards):
    schema, _table, stats, _lex, _q = film_awards
    with pytest.raises(ValueError):
        value_affinity([], schema.columns[0], stats, None)


def test_embedding_lookups_do_not_mutate():
    store = EmbeddingStore.from_dict({"a": [1.0, 0.0]})
    before = len(store)
    assert store.get("absent") is None
    assert store.mean(["absent", "also-absent"]) is None
    first = store.get("a").copy()
    assert len(store) == before
    assert (store.get("a") == first).all()
