"""Metamorphic tests of the data/schema split. Annotation reads a question
against a table's schema and cells, so the order of the rows, the order of
the columns and the table's id may change nothing it finds, beyond what
names a column by its place or names the table. A query names its
columns, so their order may not change its result either.

The questions come from synth.make_question without generate_corpus's
filter (support.drawn_questions): a fault that made some questions
unalignable would show as a difference, not as questions dropped.
"""

import random
from dataclasses import replace

import pytest

from annosql.encoding import SEP
from annosql.harness import Config, Example, gold_from_wikisql, prepare_examples, table_bundles
from annosql.meta import TEXT, table_from_record
from annosql.sqlgen import execute, parse_symbol, result_equal

from support import drawn_questions

CONFIG = Config()


@pytest.fixture(scope="module")
def drawn():
    return drawn_questions(400, 20, 61)


def _rebuilt(bundle, table_id=None, rows=None, order=None, twin=False):
    """The bundle's table read back from its tables record, with another id,
    its rows in another order, or its columns in `order`. With `twin`, a
    copy of its first text column, named "... twin", is appended before
    `order` applies."""
    columns = [(c.name, c.col_type, c.position) for c in bundle.schema.columns]
    if twin:
        name, col_type, position = next(c for c in columns if c[1] == TEXT)
        columns.append((f"{name} twin", col_type, position))
    order = range(len(columns)) if order is None else order
    rows = bundle.table.rows if rows is None else rows
    record = {
        "id": bundle.schema.table_id if table_id is None else table_id,
        "header": [columns[i][0] for i in order],
        "types": [columns[i][1] for i in order],
        "rows": [[row[columns[i][2]] for i in order] for row in rows],
    }
    [(new_id, new_bundle)] = table_bundles([table_from_record(record)]).items()
    return new_id, new_bundle


def _prepared(drawn, bundles, rename=lambda table_id: table_id):
    """The drawn questions prepared against `bundles`, their tables' ids
    passed through `rename`; each gold query names its columns as drawn."""
    source, questions = drawn
    examples = []
    for question, table_id, sql in questions:
        gold = gold_from_wikisql(sql, source[table_id].schema, rename(table_id))
        examples.append(Example(question, rename(table_id), gold))
    return prepare_examples(examples, bundles, CONFIG)


def _split(encoded):
    cut = encoded.index(SEP)
    return encoded[:cut], encoded[cut:]


def _named(symbol, schema):
    """A header symbol g_i as the name of the column at position i - 1;
    a mention symbol as itself."""
    return schema.columns[symbol.index - 1].name if symbol.family == "g" else str(symbol)


def _header_by_name(header, schema):
    """The header part of an encoded source as a set of (column name, the
    tokens after its g symbol)."""
    segments = []
    for tok in header[1:]:  # past the separator
        symbol = parse_symbol(tok)
        if symbol is not None and symbol.family == "g":
            segments.append([_named(symbol, schema)])
        else:
            segments[-1].append(tok)
    return {tuple(seg) for seg in segments}


def _sketch_by_name(ast, schema):
    if ast is None:
        return None
    conds = tuple((_named(c, schema), op, str(v)) for c, op, v in ast.conds)
    return ast.agg, _named(ast.select, schema), conds


def test_shuffling_rows_changes_no_annotation(drawn):
    """Rows in another order: the same annotations, encoded sources, aligned
    sketches and alignment errors, and the same gold results as multisets."""
    bundles = drawn[0]
    rng = random.Random(7)
    shuffled = {}
    for bundle in bundles.values():
        rows = list(bundle.table.rows)
        rng.shuffle(rows)
        table_id, shuffled[table_id] = _rebuilt(bundle, rows=rows)
    for a, b in zip(_prepared(drawn, bundles), _prepared(drawn, shuffled), strict=True):
        assert b.annotation == a.annotation
        assert b.encoded_src == a.encoded_src
        assert (b.aligned, b.alignment_error) == (a.aligned, a.alignment_error)
        before = execute(a.gold, bundles[a.table_id].table)
        after = execute(b.gold, shuffled[b.table_id].table)
        assert before.flagged == after.flagged and result_equal(before, after)


def test_permuting_columns_changes_no_symbol_or_question_part(drawn):
    """Columns in another order: the same symbol tables and question parts
    of the encoded sources. The header part and the aligned sketches name
    columns by place, so they agree once each g symbol becomes its column.
    Every table carries a twin of its first text column, so each of its
    cells sits in two columns and a tie broken by column order would show."""
    bundles = drawn[0]
    rng = random.Random(11)
    twinned, permuted = {}, {}
    for bundle in bundles.values():
        table_id, twinned[table_id] = _rebuilt(bundle, twin=True)
        order = list(range(len(bundle.schema.columns) + 1))
        while order == sorted(order):
            rng.shuffle(order)
        table_id, permuted[table_id] = _rebuilt(bundle, order=order, twin=True)
    for a, b in zip(_prepared(drawn, twinned), _prepared(drawn, permuted), strict=True):
        before, after = twinned[a.table_id].schema, permuted[b.table_id].schema
        assert b.annotation.symbols.to_dict() == a.annotation.symbols.to_dict()
        (question_a, header_a), (question_b, header_b) = _split(a.encoded_src), _split(b.encoded_src)
        assert question_b == question_a
        assert _header_by_name(header_b, after) == _header_by_name(header_a, before)
        assert _sketch_by_name(b.aligned, after) == _sketch_by_name(a.aligned, before)


def test_renaming_the_table_changes_nothing_but_the_id(drawn):
    bundles = drawn[0]
    new_id = {old: f"renamed-{i}" for i, old in enumerate(bundles)}
    renamed = dict(_rebuilt(bundles[old], table_id=new) for old, new in new_id.items())
    for old, new in new_id.items():
        assert renamed[new].stats == bundles[old].stats
    for a, b in zip(_prepared(drawn, bundles), _prepared(drawn, renamed, new_id.get), strict=True):
        assert b.gold == replace(a.gold, table_id=b.table_id)
        assert b.annotation == a.annotation
        assert b.encoded_src == a.encoded_src
        assert (b.aligned, b.alignment_error) == (a.aligned, a.alignment_error)


def test_permuting_columns_changes_no_gold_result(drawn):
    """Columns in another order: each drawn gold query, which names its
    columns, runs to an equal result with the same flag."""
    bundles, questions = drawn
    rng = random.Random(13)
    permuted = {}
    for bundle in bundles.values():
        order = list(range(len(bundle.schema.columns)))
        while order == sorted(order):
            rng.shuffle(order)
        table_id, permuted[table_id] = _rebuilt(bundle, order=order)
    for _question, table_id, sql in questions:
        gold = gold_from_wikisql(sql, bundles[table_id].schema, table_id)
        before = execute(gold, bundles[table_id].table)
        after = execute(gold, permuted[table_id].table)
        assert before.flagged == after.flagged and result_equal(before, after)
