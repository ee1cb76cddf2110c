"""Property tests over generated inputs: tokenizer offsets and question
surfaces, the sketch grammar's round trip, canonical-form idempotence, the
execution engine against the naive row-scan oracle, value detection without
word vectors against the brute-force span oracle, column detection against
the brute-force coverage and template oracle, and arbitrary question text
through the repl and evaluate."""

import io
import json
import random
import string
from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annosql.encoding import Vocabulary
from annosql.harness import (
    ANSWER_KEYS,
    Config,
    Example,
    evaluate,
    load_meta,
    load_model,
    load_split,
    load_wikisql,
    prepare_examples,
    repl_translate,
    run_train,
    table_bundles,
)
from annosql.mentions import CandidateMention, Span, detect_column_mentions, detect_value_mentions
from annosql.meta import (
    EMPTY_EMBEDDINGS,
    EMPTY_LEXICON,
    REAL,
    TEXT,
    PhraseLexicon,
    PhraseTemplate,
    Table,
    build_value_stats,
    load_embeddings,
    load_phrase_lexicon,
    load_tables,
    table_from_record,
)
from annosql.resolve import annotate
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
from annosql.text import (
    _TOKEN_RE,
    STOP_WORDS,
    is_content_token,
    tokenize,
    tokenize_with_offsets,
)
from annosql.trees import parse_bracketed

from annosql.synth import write_corpus

from support import (
    bracketed,
    drawn_questions,
    embedding_store,
    make_schema,
    reference_column_mentions,
    reference_value_mentions,
)
from test_harness import tiny_config
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
    tokens, flat = tokenize_with_offsets(text)
    assert tokens == tokenize(text)
    assert len(flat) == 2 * len(tokens)
    offsets = list(zip(flat[0::2], flat[1::2]))
    for tok, (start, end) in zip(tokens, offsets):
        assert text[start:end].casefold() == tok
    ends = [0] + [end for _start, end in offsets]
    assert all(prev <= start < end for prev, (start, end) in zip(ends, offsets))


# any unicode, and dense runs of letters, digits and the separators that
# split or join them ("1,225", "Film_Name")
SURFACE_TEXT = st.text(max_size=40) | st.text(alphabet="aZé1٣,._ -?'", max_size=40)


@FAST
@given(SURFACE_TEXT)
def test_question_surface_is_the_text_between_token_matches(text):
    tokens, offsets = tokenize_with_offsets(text)
    assert tokens == tokenize(text)
    assert offsets == [bound for m in _TOKEN_RE.finditer(text) for bound in m.span()]


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


# text cells: phrases that share leading tokens ("john" / "john smith"),
# punctuation inside a cell, a number inside text, and phrases built from
# words and marks, joined with or without a space
PHRASES = ["john", "john smith", "john smith jr.", "o'neil", "st. louis", "st. louis park",
           "ann-marie lee", "lee", "route -5", "1,225 club"]
PIECES = ["john", "smith", "lee", "o", "st", "-", "'", ".", "&", "5"]
TEXT_CELLS = st.one_of(
    st.sampled_from(PHRASES),
    st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from(["", " "])), min_size=1, max_size=5)
    .map(lambda parts: "".join(piece + gap for piece, gap in parts)),
)
# real cells: integers, decimals, signs and thousands commas
REAL_CELLS = st.one_of(
    st.sampled_from(["5", "-5", "1,225", "3.5", "0", "1,000,000", "-12"]),
    st.integers(-2000, 2000000).map(lambda n: f"{n:,}"),
)


@st.composite
def value_detection_cases(draw):
    """A table of two text columns and a real one; a question made of its
    cells' tokens, whole or cut short, single tokens and "-" before a
    number; random column mentions; and a span limit."""
    schema = make_schema("t", [("name", TEXT), ("place", TEXT), ("score", REAL)])
    rows = draw(st.lists(st.tuples(TEXT_CELLS, TEXT_CELLS, REAL_CELLS), min_size=1, max_size=6))
    phrases = [tokenize(cell) for row in rows for cell in row]
    pool = sorted({tok for toks in phrases for tok in toks} | {"-", "is", "0", "1,225", "7"})
    parts = st.one_of(
        st.sampled_from([toks for toks in phrases if toks]).flatmap(
            lambda toks: st.integers(1, len(toks)).map(lambda k: toks[:k])
        ),
        st.sampled_from(pool).map(lambda tok: [tok]),
        st.sampled_from(pool).map(lambda tok: ["-", tok]),
    )
    tokens = [tok for part in draw(st.lists(parts, min_size=1, max_size=8)) for tok in part][:20]
    n = len(tokens)
    spans = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n)), max_size=3))
    columns = st.sampled_from(schema.columns)
    column_mentions = [
        CandidateMention(Span(min(a, b - 1), max(a + 1, b)), draw(columns), 1.0) for a, b in spans
    ]
    width = draw(st.integers(1, 7))
    return tokens, schema, build_value_stats(Table(schema, tuple(rows))), column_mentions, width


VALUE_SCHEMA = make_schema("t", [("name", TEXT), ("place", TEXT), ("score", REAL)])


def _value_case(tokens, rows, mention_spans, width):
    """A value detection case on VALUE_SCHEMA: column mentions of "score"
    over `mention_spans`."""
    stats = build_value_stats(Table(VALUE_SCHEMA, tuple(rows)))
    score = VALUE_SCHEMA.columns[2]
    return tokens, VALUE_SCHEMA, stats, [CandidateMention(s, score, 1.0) for s in mention_spans], width


@FAST
@given(value_detection_cases())
@example(_value_case(  # "12", in range but in no cell: skipped inside the mention, found after it
    ["score", "12", "paris", "12"],
    [("ann", "paris", "5"), ("bob", "rome", "1,225")], [Span(0, 2)], 3,
))
@example(_value_case(  # "-" starts no cell phrase, yet "- 5" reads as -5, inside the range
    ["-", "5", "rome"], [("ann", "paris", ",-5"), ("bob", "rome", "7")], [], 2,
))
@example(_value_case(  # "new" and "york" are prefixes, no phrases; the span limit cuts the walk
    ["in", "new", "york", "city"], [("new york city", "york city", "7")], [], 2,  # from "new"
))
def test_value_detection_without_vectors_matches_the_oracle(case):
    """Without word vectors detection scores only spans that are exact cell
    phrases or numbers; at each threshold it finds what scoring every span
    finds, the ends of the range a Config takes included."""
    tokens, schema, stats, column_mentions, width = case
    for theta in (0.0, 0.6, 1.0):
        config = Config(theta_val=theta, max_value_span=width)
        args = (tokens, schema, stats, EMPTY_EMBEDDINGS, config, column_mentions)
        assert detect_value_mentions(*args) == reference_value_mentions(*args)


@FAST
@given(st.text(max_size=6) | st.sampled_from(sorted(STOP_WORDS)))
def test_is_content_token_is_a_non_stop_word_with_a_letter_or_digit(tok):
    assert is_content_token(tok) == (tok not in STOP_WORDS and any(c.isalnum() for c in tok))


# column names with repeated words, stop words, punctuation, or no content
# word at all; question words add near-misses of the column words, and
# compounds close to two of them at tau_ed 0.7
COLUMN_NAMES = ["alpha", "beta", "gamma", "alpha beta", "beta beta", "gamma of alpha",
                "alpha - gamma", "alpha beta gamma", "no.", "of the"]
COLUMN_QUESTION_WORDS = ["alpha", "beta", "gamma", "no", "alp", "gama", "bet", "alphas",
                         "alphabeta", "betagamma", "of", "the", "-"]


@st.composite
def column_detection_cases(draw):
    """1-4 columns; per column up to 3 templates of 1-3 words, each with its
    slot at any position or none; a question of column words, near-misses,
    stop words and "-"; both thresholds; and random 8-d vectors for every
    word on some draws."""
    names = draw(st.lists(st.sampled_from(COLUMN_NAMES), min_size=1, max_size=4, unique=True))
    words = st.sampled_from(COLUMN_QUESTION_WORDS)
    by_column = {}
    for name in names:
        templates = []
        for literal in draw(st.lists(st.lists(words, min_size=1, max_size=3), max_size=3)):
            slot = draw(st.none() | st.integers(0, len(literal)))
            if slot is not None:
                literal = literal[:slot] + [None] + literal[slot:]
            templates.append(PhraseTemplate(tuple(literal)))
        by_column[name.casefold()] = tuple(templates)
    tokens = draw(st.lists(words, max_size=12))
    emb = EMPTY_EMBEDDINGS
    seed = draw(st.none() | st.integers(0, 999))
    if seed is not None:
        rng = random.Random(seed)
        vocab = set(COLUMN_QUESTION_WORDS) | {t for name in COLUMN_NAMES for t in tokenize(name)}
        emb = embedding_store({w: [rng.uniform(-1.0, 1.0) for _ in range(8)] for w in sorted(vocab)})
    config = Config(
        tau_ed=draw(st.sampled_from([0.3, 0.5, 0.7])), tau_sim=draw(st.sampled_from([0.15, 0.4]))
    )
    schema = make_schema("t", [(name, TEXT) for name in names])
    return tokens, schema, PhraseLexicon(by_column), emb, config


@FAST
@given(column_detection_cases())
@example((  # two shortest covering spans; the second has 4 close pairs, the first 3
    ["alphabeta", "gamma", "-", "alphabeta", "betagamma"],
    make_schema("t", [("alpha beta gamma", TEXT)]), EMPTY_LEXICON, EMPTY_EMBEDDINGS,
    Config(tau_ed=0.7),
))
@example((  # a slot takes at most 4 tokens: 5 between "alpha" and "beta" make no hit
    ["alpha", "no", "no", "no", "no", "no", "beta"], make_schema("t", [("gamma", TEXT)]),
    PhraseLexicon({"gamma": (PhraseTemplate(("alpha", None, "beta")),)}), EMPTY_EMBEDDINGS,
    Config(),
))
def test_column_detection_matches_the_oracle(case):
    """Column detection finds what the brute-force rules find: per column,
    the shortest span covering every column word the question covers (more
    pairs, then the earlier start, breaking ties), and each template's hits
    with a slot of 1-4 tokens, shortest first; a coverage span that overlaps
    a hit is dropped."""
    assert detect_column_mentions(*case) == reference_column_mentions(*case)


@pytest.fixture(scope="module")
def drawn_for_annotation():
    """Drawn questions on synth tables, and random 8-d vectors for every
    word of their questions and cells."""
    bundles, drawn = drawn_questions(200, 20, 5)
    words = {tok for question, _, _ in drawn for tok in tokenize(question)}
    for bundle in bundles.values():
        words.update(tok for row in bundle.table.rows for cell in row for tok in tokenize(str(cell)))
    rng = random.Random(5)
    vectors = embedding_store({w: [rng.uniform(-1.0, 1.0) for _ in range(8)] for w in sorted(words)})
    return bundles, drawn, vectors


@FAST
@given(st.data())
def test_annotation_invariants(drawn_for_annotation, data):
    """A drawn question, as drawn or shuffled with up to 3 of its table's
    words, with or without a random tree and word vectors: accepted spans
    are disjoint; the indices are 1..n and each has an accepted span, the
    first of which moves right as the index grows; a cN's position is its
    span's start, and a cN with none shares its index with a vN; a vN's
    surface is its span's text, and it names a schema column."""
    bundles, drawn, vectors = drawn_for_annotation
    question, table_id, _sql = data.draw(st.sampled_from(drawn))
    bundle = bundles[table_id]
    if data.draw(st.booleans()):
        table_words = sorted({tok for row in bundle.table.rows for cell in row for tok in tokenize(str(cell))})
        extra = data.draw(st.lists(st.sampled_from(table_words), max_size=3))
        question = " ".join(data.draw(st.permutations(tokenize(question) + extra)))
    tree = None
    if data.draw(st.booleans()):
        tree = parse_bracketed(bracketed(tokenize(question), random.Random(data.draw(st.integers(0, 999)))))
    emb = data.draw(st.sampled_from([EMPTY_EMBEDDINGS, vectors]))
    ann = annotate(question, bundle.schema, bundle.stats, EMPTY_LEXICON, emb, tree, Config())

    spans = sorted(m.span for m in ann.accepted)
    assert all(a.end <= b.start for a, b in zip(spans, spans[1:]))
    matches = list(_TOKEN_RE.finditer(question))
    syms = ann.symbols
    indices = sorted(set(syms.columns) | set(syms.values))
    assert indices == list(range(1, len(indices) + 1))
    first = [min(m.span.start for m in ann.accepted if m.index == i) for i in indices]
    assert first == sorted(first)
    names = {c.name for c in bundle.schema.columns}
    assert {m.index for m in ann.accepted if m.family == "v"} == set(syms.values)
    assert {m.index for m in ann.accepted if m.family == "c"} == {
        i for i, c in syms.columns.items() if c.position is not None
    }
    for m in ann.accepted:
        if m.family == "c":
            assert syms.columns[m.index].position == m.span.start
        else:
            value = syms.values[m.index]
            surface = question[matches[m.span.start].start() : matches[m.span.end - 1].end()]
            assert (value.surface, value.position) == (surface, m.span.start)
            assert value.column in names
    assert all(i in syms.values for i, c in syms.columns.items() if c.position is None)


# question text of every kind a user may type: any unicode on one line
# (empty included), digits only, punctuation only, and 500 tokens
QUESTIONS = st.one_of(
    st.text(st.characters(blacklist_characters="\n\r"), max_size=40),
    st.text("0123456789 ", max_size=20),
    st.text(string.punctuation + " ", max_size=20),
    st.lists(st.sampled_from(["what", "is", "the", "rank", "points", "8", "when", "of"]),
             min_size=500, max_size=500).map(" ".join),
)
TABLE_IDS = ["synth-0", "synth-1"]
# a repl line: a known or an unknown table id and a question, a line
# without the TAB, or a blank line
REPL_LINES = st.one_of(
    st.tuples(st.sampled_from(TABLE_IDS + ["no-such-table"]), QUESTIONS).map("\t".join),
    QUESTIONS,
    st.sampled_from(["", "   "]),
)
SLOW = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny model trained for one epoch on an 8-question synth corpus: its
    config, tables, parameters, vocabulary and prepared gold examples."""
    root = tmp_path_factory.mktemp("trained")
    tables_path, split_path = write_corpus(str(root / "data"), 8, n_tables=2, seed=31)
    config = tiny_config(
        epochs=1, tables_path=tables_path, train_path=split_path,
        checkpoint_path=str(root / "model.npz"), vocab_path=str(root / "vocab.txt"),
    )
    run_train(config)
    tables, _lexicon, _emb = load_meta(config)
    params, vocab = load_model(config)
    assert sorted(tables) == TABLE_IDS
    gold = prepare_examples(load_split(config, tables, "train", gold=True), tables, config)
    return SimpleNamespace(config=config, tables=tables, params=params, vocab=vocab, gold=gold)


@SLOW
@given(st.lists(REPL_LINES, min_size=1, max_size=4))
def test_repl_answers_every_line_in_one_shape(trained, lines):
    """Each non-blank line gives exactly one JSON line with the ANSWER_KEYS,
    and the loop goes on to the next."""
    stdout = io.StringIO()
    repl_translate(trained.config, stdin=io.StringIO("\n".join(lines) + "\n"), stdout=stdout)
    answers = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert len(answers) == sum(bool(line.strip()) for line in lines)
    assert all(list(answer) == list(ANSWER_KEYS) for answer in answers)


@SLOW
@given(st.lists(st.tuples(QUESTIONS, st.integers(0, 7)), min_size=1, max_size=4))
def test_evaluate_classes_count_every_miss(trained, drawn):
    """Drawn questions, each asked with one gold query of the corpus, beside
    the corpus's own questions: the failure classes count every question
    that misses acc_ex."""
    asked = [Example(q, trained.gold[i].table_id, trained.gold[i].gold) for q, i in drawn]
    prepare_examples(asked, trained.tables, trained.config)
    examples = asked + trained.gold
    report = evaluate(examples, trained.tables, trained.params, trained.vocab, trained.config)
    counts = [f["count"] for f in report.translation_failures.values()]
    assert report.total == len(examples)
    assert sum(counts) == report.total - report.ex


# any JSON value, non-finite floats included
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
# raw bytes or drawn text
LINE_BYTES = st.binary(max_size=40) | st.text(max_size=40).map(str.encode)
TABLE_RECORD = json.dumps({"id": "t", "header": ["A", "B"], "types": ["text", "real"], "rows": [["x", 1]]})
SPLIT_TABLES = table_bundles([table_from_record(json.loads(TABLE_RECORD))])
# per input file: its loader, its good lines, and drawn lines shaped like its own
GARBAGE_FILES = {
    "tables": (
        load_tables,
        [TABLE_RECORD],
        st.fixed_dictionaries({
            "id": JSON,
            "header": JSON | st.lists(st.text(max_size=6), max_size=3),
            "types": JSON | st.lists(st.sampled_from([TEXT, REAL, "int"]), max_size=3),
            "rows": JSON | st.lists(st.lists(JSON, max_size=3), max_size=3),
        }).map(json.dumps),
    ),
    "split": (
        lambda path: load_wikisql(path, SPLIT_TABLES),
        [json.dumps({"question": "what", "table_id": "t", "sql": {"sel": 0, "agg": 0, "conds": []}})],
        st.fixed_dictionaries({
            "question": JSON,
            "table_id": st.just("t") | JSON,
            "sql": JSON | st.fixed_dictionaries({
                "sel": st.integers(-1, 2) | JSON,
                "agg": st.integers(-1, 6) | JSON,
                "conds": JSON | st.lists(st.lists(st.integers(-1, 3) | JSON, max_size=4), max_size=2),
            }),
        }).map(json.dumps),
    ),
    "lexicon": (
        load_phrase_lexicon,
        ["Population\tpopulation of <slot>"],
        st.text(alphabet="ab <slot>⟨⟩|\t?", max_size=30),
    ),
    "embeddings": (
        load_embeddings,
        ["a 1.0 0.0"],
        st.lists(st.text(max_size=4) | st.floats().map(repr), max_size=4).map(" ".join),
    ),
    "trees": (
        lambda path: load_wikisql(path, SPLIT_TABLES),
        [json.dumps({"question": "x y", "table_id": "t", "tree": "(S (A x) (B y))"})],
        (st.text(alphabet="() ab\t", max_size=30) | JSON).map(
            lambda tree: json.dumps({"question": "x y", "table_id": "t", "tree": tree})
        ),
    ),
    "vocabulary": (
        Vocabulary.load,
        [*Vocabulary.SPECIALS, "c1", "v1", "g1", "word"],
        st.sampled_from([*Vocabulary.SPECIALS, "c1", "c2", "word", " "]),
    ),
}


@pytest.fixture(scope="module")
def garbage_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("garbage")


@pytest.mark.parametrize("kind", sorted(GARBAGE_FILES))
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_garbage_line_fails_at_its_line(garbage_dir, kind, data):
    """Good lines, then one drawn line of raw bytes, of text or shaped like
    the file's own lines: the file loads, or a ValueError names the file and
    the drawn line."""
    load, good, shaped = GARBAGE_FILES[kind]
    line = data.draw(LINE_BYTES | shaped.map(str.encode))
    line = line.replace(b"\n", b"").replace(b"\r", b"")  # one line: no line break
    path = garbage_dir / kind
    path.write_bytes("".join(f"{good_line}\n" for good_line in good).encode() + line + b"\n")
    try:
        load(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:{len(good) + 1}: "), exc


CONFIG_KEYS = st.sampled_from([f.name for f in fields(Config)]) | st.text(max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=60),
    st.dictionaries(CONFIG_KEYS, JSON, max_size=4).map(lambda obj: json.dumps(obj).encode()),
    JSON.map(lambda value: json.dumps(value).encode()),
))
def test_a_garbage_config_fails_naming_its_file(garbage_dir, raw):
    """Drawn config bytes load, or a ValueError names the file."""
    path = garbage_dir / "config.json"
    path.write_bytes(raw)
    try:
        Config.from_file(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc
