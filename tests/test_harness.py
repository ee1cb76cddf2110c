import hashlib
import io
import itertools
import json
import random
import re
import weakref
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import get_args

import numpy as np
import pytest

from annosql.harness import (
    ANNOTATE_KEYS,
    ANSWER_KEYS,
    Config,
    Example,
    acc_ex,
    acc_lf,
    acc_qm,
    build_training_pairs,
    evaluate,
    gold_from_wikisql,
    load_wikisql,
    prepare_examples,
    table_bundles,
    train_model,
    translate_example,
    translate_question,
)
from annosql.mentions import CandidateMention, Span
from annosql.meta import EMPTY_EMBEDDINGS, EMPTY_LEXICON, Table, load_tables
from annosql.sqlgen import ConcreteSql, serialize_sketch, sketch_tokens, sql_tokens
from annosql.synth import KINDS, generate_corpus, write_corpus

from support import bracketed, make_schema, tree_tokens

FILM_AWARDS_TABLE = {
    "id": "film_awards",
    "header": ["Nomination", "Actor", "Film_Name", "Director", "Nomination Date"],
    "types": ["text", "text", "text", "text", "text"],
    "rows": [
        ["Best Actor in a Leading Role", "Piotr Adamczyk", "Chopin: Desire for Love", "Jerzy Antczak", "2003 August"],
        ["Best Actor in a Supporting Role", "Levan Uchaneishvili", "27 Stolen Kisses", "Nana Djordjadze", "2003 August"],
    ],
}
TOWNLANDS_TABLE = {
    "id": "townlands",
    "header": ["County", "English_Name", "Irish_Name", "Population", "Irish_Speakers"],
    "types": ["text", "text", "text", "real", "text"],
    "rows": [
        ["Mayo", "Carrowteige", "Ceathru Thaidhg", 356, "64%"],
        ["Galway", "Aran Islands", "Oileain Arann", 1225, "79%"],
    ],
}
FILM_AWARDS_RECORD = {
    "question": "Which film directed by Jerzy Antczak did Piotr Adamczyk star in ?",
    "table_id": "film_awards",
    "sql": {"sel": 2, "agg": 0, "conds": [[3, 0, "Jerzy Antczak"], [1, 0, "Piotr Adamczyk"]]},
}
TOWNLANDS_RECORD = {
    "question": "How many people live in Mayo which has the English name Carrowteige ?",
    "table_id": "townlands",
    "sql": {"sel": 3, "agg": 0, "conds": [[0, 0, "Mayo"], [1, 0, "Carrowteige"]]},
}
LEXICON_TEXT = "Population\thow many people live in <slot>|population of <slot>\nActor\tstar in\n"


def write_film_and_townland_fixtures(tmp_path):
    tables = tmp_path / "tables.jsonl"
    tables.write_text(json.dumps(FILM_AWARDS_TABLE) + "\n" + json.dumps(TOWNLANDS_TABLE) + "\n")
    split = tmp_path / "train.jsonl"
    split.write_text(json.dumps(FILM_AWARDS_RECORD) + "\n" + json.dumps(TOWNLANDS_RECORD) + "\n")
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(LEXICON_TEXT)
    return str(tables), str(split), str(lexicon)


def test_load_wikisql_two_examples(tmp_path):
    tables_path, split_path, _lex = write_film_and_townland_fixtures(tmp_path)
    tables = table_bundles(load_tables(tables_path))
    examples = load_wikisql(split_path, tables)
    assert len(examples) == 2
    assert set(tables) == {"film_awards", "townlands"}
    gold = examples[0].gold
    assert gold.select == "Film_Name"
    assert gold.conds == (("Director", "=", "Jerzy Antczak"), ("Actor", "=", "Piotr Adamczyk"))
    assert gold.agg == ""


def test_load_wikisql_empty_split(tmp_path):
    tables_path, _split, _lex = write_film_and_townland_fixtures(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    examples = load_wikisql(str(empty), table_bundles(load_tables(tables_path)))
    assert examples == []


def test_load_wikisql_dangling_table_id(tmp_path):
    tables_path, _split, _lex = write_film_and_townland_fixtures(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({**FILM_AWARDS_RECORD, "table_id": "ghost"}) + "\n")
    with pytest.raises(ValueError, match="ghost"):
        load_wikisql(str(bad), table_bundles(load_tables(tables_path)))


def test_gold_less_questions_annotate_but_do_not_evaluate(tmp_path):
    from annosql.cli import main

    tables_path, _split, _lex = write_film_and_townland_fixtures(tmp_path)
    split = tmp_path / "asked.jsonl"
    asked = {k: v for k, v in TOWNLANDS_RECORD.items() if k != "sql"}
    split.write_text(json.dumps(FILM_AWARDS_RECORD) + "\n" + json.dumps(asked) + "\n")
    tables = table_bundles(load_tables(tables_path))
    examples = load_wikisql(str(split), tables)
    assert [ex.gold is None for ex in examples] == [False, True]
    prepare_examples(examples, tables, Config())
    with pytest.raises(ValueError, match="no gold query .*How many people live in Mayo"):
        evaluate(examples, tables, None, None, Config())
    out = tmp_path / "ann.jsonl"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"tables_path": tables_path, "train_path": str(split)}))
    assert main(["annotate", "--config", str(config_path), "--split", "train", "--out", str(out)]) == 0
    annotated = [json.loads(line) for line in out.read_text().splitlines()]
    assert [a["aligned_sketch"] is None for a in annotated] == [False, True]
    assert "Mayo" in {v["surface"] for v in annotated[1]["symbols"]["values"].values()}


def test_gold_from_wikisql_codes():
    schema = make_schema("t", [("A", "text"), ("B", "real")])
    gold = gold_from_wikisql({"sel": 1, "agg": 3, "conds": [[0, 1, 5]]}, schema, "t")
    assert gold.agg == "COUNT"
    assert gold.conds == (("A", ">", "5"),)


def test_gold_from_wikisql_writes_an_integral_float_value_as_an_int():
    schema = make_schema("t", [("A", "text"), ("B", "real")])
    gold = gold_from_wikisql({"sel": 0, "agg": 0, "conds": [[1, 0, 3.0], [1, 1, 2.5]]}, schema, "t")
    assert gold.conds == (("B", "=", "3"), ("B", ">", "2.5"))


def film_fixtures_prepared(tmp_path, config=None):
    from annosql.meta import load_phrase_lexicon

    tables_path, split_path, lex_path = write_film_and_townland_fixtures(tmp_path)
    config = config or Config()
    tables = table_bundles(load_tables(tables_path))
    examples = load_wikisql(split_path, tables)
    lexicon = load_phrase_lexicon(lex_path)
    prepare_examples(examples, tables, config, lexicon, EMPTY_EMBEDDINGS)
    return examples, tables, config


def test_training_pairs_identical_sketches(tmp_path):
    examples, _tables, config = film_fixtures_prepared(tmp_path)
    pairs, vocab, report = build_training_pairs(examples, config)
    assert report == {"total": 2, "aligned": 2, "coverage": 1.0, "failures": {}}
    assert serialize_sketch(examples[0].aligned) == "SELECT c1 WHERE c2 = v2 AND c3 = v3"
    assert sketch_tokens(examples[0].aligned) == sketch_tokens(examples[1].aligned)
    assert pairs[0][1] == pairs[1][1]


def test_training_pairs_exclude_unalignable(tmp_path):
    examples, tables, config = film_fixtures_prepared(tmp_path)
    ghost = Example(
        "what is the population of nowhere ?",
        "townlands",
        ConcreteSql("", "Population", (("County", "=", "Unseen County"),), "townlands"),
    )
    prepare_examples([ghost], tables, config, emb=EMPTY_EMBEDDINGS)
    pairs, _vocab, report = build_training_pairs(examples + [ghost], config)
    assert len(pairs) == 2
    assert report["aligned"] == 2
    assert report["total"] == 3
    assert sum(report["failures"].values()) == 1


def test_training_pairs_deterministic(tmp_path):
    examples, _tables, config = film_fixtures_prepared(tmp_path)
    a = build_training_pairs(examples, config)
    b = build_training_pairs(examples, config)
    assert a[0] == b[0]
    assert a[1].itos == b[1].itos


def test_metric_examples():
    schema = make_schema("t", [("a", "text"), ("b", "text")])
    table = Table(schema, (("x", "x"), ("y", "y")))
    gold = ConcreteSql("", "b", (("a", "=", "x"),))
    same = ConcreteSql("", "b", (("a", "=", "x"),))
    assert acc_lf(sql_tokens(same), sql_tokens(gold))
    assert acc_qm(same, gold)
    assert acc_ex(same, gold, table)

    gold2 = ConcreteSql("", "b", (("a", "=", "x"), ("b", "=", "x")))
    swapped = ConcreteSql("", "b", (("b", "=", "x"), ("a", "=", "x")))
    assert not acc_lf(sql_tokens(swapped), sql_tokens(gold2))
    assert acc_qm(swapped, gold2)
    assert acc_ex(swapped, gold2, table)

    # different column whose values coincide on this table
    twin = ConcreteSql("", "a", (("a", "=", "x"),))
    assert not acc_lf(sql_tokens(twin), sql_tokens(gold))
    assert not acc_qm(twin, gold)
    assert acc_ex(twin, gold, table)

    assert not acc_lf(None, sql_tokens(gold))
    assert not acc_qm(None, gold)
    assert not acc_ex(None, gold, table)


def _random_concrete(rng, schema, table):
    from annosql.sqlgen import AGGREGATES, OPS

    agg = rng.choice(AGGREGATES)
    sel = rng.choice(schema.columns).name
    conds = []
    for _ in range(rng.randint(0, 3)):
        col = rng.choice(schema.columns)
        if table.rows and rng.random() < 0.8:
            val = rng.choice(table.rows)[col.position]
        else:
            val = rng.choice(["ash", "7", "-3", "Oak"])
        conds.append((col.name, rng.choice(OPS), val))
    return ConcreteSql(agg, sel, tuple(conds))


def _jitter_case(sql, rng):
    def flip(s):
        return s.upper() if rng.random() < 0.5 else s.casefold()

    conds = tuple((flip(c), o, flip(str(v))) for c, o, v in sql.conds)
    return ConcreteSql(sql.agg, flip(sql.select), conds, sql.table_id)


def test_metric_implications_randomized():
    """acc_lf implies acc_qm and acc_qm implies acc_ex on randomized pairs;
    condition permutations are exactly the (lf=False, qm=True) case."""
    from test_sqlgen import random_table

    rng = random.Random(2024)
    checked_perm = 0
    for i in range(10_000):
        schema, table = random_table(rng, f"t{i % 7}")
        gold = _random_concrete(rng, schema, table)
        mode = rng.random()
        if mode < 0.25:
            pred = gold
        elif mode < 0.45:
            conds = list(gold.conds)
            rng.shuffle(conds)
            pred = ConcreteSql(gold.agg, gold.select, tuple(conds), gold.table_id)
        elif mode < 0.55:
            pred = _jitter_case(gold, rng)
        elif mode < 0.65:
            pred = None
        else:
            pred = _random_concrete(rng, schema, table)
        lf = acc_lf(sql_tokens(pred) if pred else None, sql_tokens(gold))
        qm = acc_qm(pred, gold)
        ex = acc_ex(pred, gold, table)
        assert not (lf and not qm), (pred, gold)
        assert not (qm and not ex), (pred, gold)
        if (
            0.25 <= mode < 0.45
            and pred is not None
            and sql_tokens(pred) != sql_tokens(gold)
        ):
            checked_perm += 1
            assert not lf and qm
    assert checked_perm > 100


def test_synth_corpus_aligns_and_round_trips():
    """Every synth question aligns and resolves back to its gold query, and
    every row of synth.KINDS is drawn: each aggregate, each operator and 0,
    1 and 2 conditions occur, and each kind's template occurs with its
    aggregate and operators."""
    config = Config()
    examples, bundles, records = generate_corpus(100, n_tables=10, seed=3, config=config)
    assert len(examples) == 100
    from annosql.sqlgen import AGGREGATES, OPS, canonicalize, resolve_symbols

    for ex in examples:
        assert ex.aligned is not None
        back = resolve_symbols(ex.aligned, ex.annotation.symbols, bundles[ex.table_id].schema)
        assert canonicalize(back) == canonicalize(ex.gold)
    sqls = [rec["sql"] for rec in records]
    assert {sql["agg"] for sql in sqls} == set(range(len(AGGREGATES)))
    assert {op for sql in sqls for _col, op, _val in sql["conds"]} == set(range(len(OPS)))
    assert {len(sql["conds"]) for sql in sqls} == {0, 1, 2}
    drawn = set()
    for rec in records:
        shape = (AGGREGATES[rec["sql"]["agg"]], [OPS[op] for _c, op, _v in rec["sql"]["conds"]])
        for kind, (_pool, agg, conds, template) in KINDS.items():
            pattern = ".+".join(map(re.escape, re.split(r"\{\w+\}", template)))
            if shape == (agg, [op for _type, op in conds]) and re.fullmatch(pattern, rec["question"]):
                drawn.add(kind)
    assert drawn == set(KINDS)


def _sketch_symbols(ast):
    return [ast.select] + [sym for col, _op, val in ast.conds for sym in (col, val)]


def test_prepared_questions_share_tokens_and_symbols():
    """Prepared questions hold one object for a word they share, for a symbol
    token and for an equal SqlSymbol, and no per-question record carries a
    __dict__."""
    config = Config()
    _examples, bundles, records = generate_corpus(20, n_tables=2, seed=3, config=config)
    examples = []
    for rec in records:
        table_id = rec["table_id"]
        gold = gold_from_wikisql(rec["sql"], bundles[table_id].schema, table_id)
        examples.append(Example(rec["question"], table_id, gold))
    prepare_examples(examples, bundles, config)

    def words(ex):  # one-letter strings are shared by the interpreter anyway
        return {t for t in ex.annotation.tokens if len(t) > 1 and t in ex.encoded_src}

    a, b = next(
        (a, b)
        for a, b in itertools.combinations(examples, 2)
        if words(a) & words(b)
        and "c1" in a.encoded_src
        and "c1" in b.encoded_src
        and set(_sketch_symbols(a.aligned)) & set(_sketch_symbols(b.aligned))
    )
    for token in (min(words(a) & words(b)), "c1"):
        held = [t for ex in (a, b) for t in (*ex.annotation.tokens, *ex.encoded_src) if t == token]
        assert len(held) >= 2 and len({id(t) for t in held}) == 1, token
    for sym in set(_sketch_symbols(a.aligned)) & set(_sketch_symbols(b.aligned)):
        held = [s for ex in (a, b) for s in _sketch_symbols(ex.aligned) if s == sym]
        assert len({id(s) for s in held}) == 1, sym

    instances = {}
    for ex in examples:
        ann = ex.annotation
        column = bundles[ex.table_id].schema.columns[0]
        for record in (
            ex, ex.gold, ex.aligned, *_sketch_symbols(ex.aligned), ann, ann.question, ann.symbols,
            *ann.accepted, *(m.span for m in ann.accepted), *ann.symbols.columns.values(),
            *ann.symbols.values.values(), CandidateMention(Span(0, 1), column, 1.0),
        ):
            instances.setdefault(type(record).__name__, record)
    assert set(instances) == {
        "Example", "ConcreteSql", "AnnotatedSqlAst", "SqlSymbol", "Annotation", "Question",
        "SymbolTable", "AcceptedMention", "Span", "ColumnBinding", "ValueBinding",
        "CandidateMention",
    }
    for name, record in instances.items():
        assert not hasattr(record, "__dict__"), name


def test_synth_write_corpus_round_trip(tmp_path):
    """The written fixtures are pinned byte for byte, load back to the
    tables generate_corpus made, and every question aligns again."""
    tables_path, split_path = write_corpus(str(tmp_path), 200, n_tables=20, seed=7)
    digest = hashlib.sha256(Path(tables_path).read_bytes() + Path(split_path).read_bytes())
    assert digest.hexdigest() == "a7b53139ff84aaf66c36bbe5c757709f7e76897f07637c8de898115069f009f1"
    tables = table_bundles(load_tables(tables_path))
    _examples, bundles, _records = generate_corpus(200, n_tables=20, seed=7, config=Config())
    assert tables == bundles
    examples = load_wikisql(split_path, tables)
    assert len(examples) == 200
    config = Config()
    prepare_examples(examples, tables, config)
    pairs, _vocab, report = build_training_pairs(examples, config)
    assert report["aligned"] == 200


def tiny_config(**kw):
    base = dict(
        dim=32,
        type_dim=16,
        enc_hidden=16,
        enc_layers=2,
        dec_hidden=32,
        attn_dim=16,
        batch_size=8,
        lr=5e-3,
        epochs=3,
        seed=1,
        dtype="float32",
        beam_width=3,
        max_decode_len=12,
    )
    base.update(kw)
    return Config(**base)


def tiny_run_config(tmp_path, corpus=None, **kw):
    """tiny_config(**kw) whose checkpoint and vocabulary files go in
    `tmp_path`; with `corpus`, the (questions, tables, seed) of a synth
    corpus written to tmp_path/data, which is its tables and train split."""
    paths = {"checkpoint_path": str(tmp_path / "model.npz"), "vocab_path": str(tmp_path / "vocab.txt")}
    if corpus is not None:
        paths["tables_path"], paths["train_path"] = write_corpus(str(tmp_path / "data"), *corpus)
    return tiny_config(**{**paths, **kw})


def test_train_and_evaluate_deterministic():
    config = tiny_config()
    examples, bundles, _records = generate_corpus(16, n_tables=4, seed=9, config=config)
    pairs, vocab, _report = build_training_pairs(examples, config)
    params_a, hist_a = train_model(pairs, vocab, config)
    params_b, hist_b = train_model(pairs, vocab, config)

    def strip_time(history):
        timings = ("seconds", "examples_per_s")
        return [{k: v for k, v in e.items() if k not in timings} for e in history]

    assert strip_time(hist_a) == strip_time(hist_b)
    for name in params_a.names():
        assert np.array_equal(params_a.tensors[name], params_b.tensors[name])
    report_a = evaluate(examples, bundles, params_a, vocab, config)
    report_b = evaluate(examples, bundles, params_b, vocab, config)
    assert report_a.to_dict() == report_b.to_dict()
    assert report_a.total == 16
    assert report_a.aligned == 16


def test_train_model_holds_one_gradient_set(monkeypatch):
    """On entry to each loss_and_grad call, no gradient array an earlier
    call returned, or Adam applied, is alive unless it is one of the arrays
    handed in to be overwritten; after the first call every batch reuses
    them."""
    from annosql import model as nn

    config = tiny_config(epochs=2)
    examples, _bundles, _records = generate_corpus(16, n_tables=4, seed=9, config=config)
    pairs, vocab, _report = build_training_pairs(examples, config)
    real_loss_and_grad, real_step = nn.loss_and_grad, nn.Adam.step
    seen = []  # weakrefs to every gradient array so far
    handed, returned = [], []  # gradient arrays per call, handed in and returned

    def loss_and_grad(*args, **kwargs):
        given = kwargs.get("grads") or {}
        alive = [ref() for ref in seen if ref() is not None]
        assert all(any(a is g for g in given.values()) for a in alive), len(handed)
        loss, grads, stats = real_loss_and_grad(*args, **kwargs)
        assert all(grads[k] is g for k, g in given.items())
        seen.extend(weakref.ref(g) for g in grads.values())
        handed.append(len(given))
        returned.append(len(grads))
        return loss, grads, stats

    def step(self, params, grads):
        seen.extend(weakref.ref(g) for g in grads.values())
        return real_step(self, params, grads)

    monkeypatch.setattr(nn, "loss_and_grad", loss_and_grad)
    monkeypatch.setattr(nn.Adam, "step", step)
    train_model(pairs, vocab, config)
    # 16 pairs at batch size 8, two epochs: each call after the first is
    # handed the whole set the one before it returned
    assert handed == [0] + returned[:3] and len(returned) == 4


def test_translate_example_handles_garbage_model():
    config = tiny_config(epochs=1)
    examples, bundles, _records = generate_corpus(4, n_tables=2, seed=13, config=config)
    pairs, vocab, _report = build_training_pairs(examples, config)
    from annosql import model as nn

    params = nn.init_params(config.model_config(len(vocab)), seed=0)
    for ex in examples:
        translate_example(ex, bundles, params, vocab, config)
        assert (ex.sql is None) == (ex.error is not None)


def test_translate_example_leaves_no_field_of_an_earlier_call(monkeypatch):
    """evaluate translates the same Examples at every check: a second call
    whose sketch does not parse keeps no SQL, result or flag of a first
    call that answered."""
    from annosql import model as nn

    config = tiny_config()
    examples, bundles, _records = generate_corpus(1, 2, 23, config)
    _pairs, vocab, _report = build_training_pairs(examples, config)
    [ex] = examples

    def translate_to(sketch):
        hyp = nn.Hypothesis(tuple(vocab.encode(sketch)), -1.0)
        monkeypatch.setattr(nn, "beam_search", lambda *_args: hyp)
        translate_example(ex, bundles, None, vocab, config)

    translate_to(sketch_tokens(ex.aligned))
    assert ex.failure is None and ex.sql is not None and ex.result is not None
    translate_to(["where", "select"])
    assert (ex.sketch, ex.sql, ex.result, ex.failure) == (None, None, None, "parse")
    out = ex.to_dict(ANSWER_KEYS)
    assert (out["sql"], out["result"], out["flagged"]) == (None, None, None)
    assert out["error"].startswith("parse: ")


def test_run_train_eval_translate_cli(tmp_path):
    from annosql.cli import main

    config = tiny_run_config(tmp_path, (12, 3, 21), epochs=4, log_path=str(tmp_path / "train.log"))
    config.test_path = config.train_path
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))

    out_train = tmp_path / "train.json"
    assert main(["train", "--config", str(config_path), "--out", str(out_train)]) == 0
    trained = json.loads(out_train.read_text())
    assert len(trained["epochs"]) == 4
    log_lines = [json.loads(l) for l in Path(config.log_path).read_text().splitlines() if l.strip()]
    assert {
        "epoch", "loss", "token_accuracy", "grad_norm_max", "grad_norm_mean",
        "clipped_fraction", "seconds", "examples_per_s",
    } <= set(log_lines[0])
    assert all(0.0 <= e["clipped_fraction"] <= 1.0 for e in trained["epochs"])
    assert all(e["grad_norm_max"] >= e["grad_norm_mean"] > 0.0 for e in trained["epochs"])

    out_eval = tmp_path / "eval.json"
    for _ in range(2):  # each run writes a fresh file
        assert main(["eval", "--config", str(config_path), "--split", "test", "--out", str(out_eval)]) == 0
    assert len(out_eval.read_text().splitlines()) == 1
    report = json.loads(out_eval.read_text())
    assert report["total"] == 12
    assert 0.0 <= report["acc_ex"] <= 1.0
    assert report["config"]["seed"] == config.seed

    with open(config.train_path) as fh:
        record = json.loads(fh.readline())
    out_tr = tmp_path / "translate.json"
    assert main([
        "translate",
        "--config", str(config_path),
        "--question", record["question"],
        "--table", record["table_id"],
        "--out", str(out_tr),
    ]) == 0
    translated = json.loads(out_tr.read_text())
    assert translated["question"] == record["question"]
    assert list(translated) == list(ANSWER_KEYS)
    assert "annotation" in translated
    assert translated["logp"] <= 0.0

    out_ann = tmp_path / "ann.jsonl"
    assert main([
        "annotate",
        "--config", str(config_path),
        "--split", "train",
        "--out", str(out_ann),
    ]) == 0
    annotated = [json.loads(l) for l in out_ann.read_text().splitlines()]
    assert len(annotated) == 12
    assert all(a["aligned_sketch"] for a in annotated)


def test_annotate_out_has_the_annotate_keys_in_order(tmp_path):
    """Every `annotate --out` record has the ANNOTATE_KEYS in order, as every
    `translate` and `repl` line has the ANSWER_KEYS."""
    from annosql.cli import main

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 6, n_tables=2, seed=21)
    config = tiny_config(tables_path=tables_path, train_path=split_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "ann.jsonl"
    assert main(["annotate", "--config", str(config_path), "--split", "train", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 6
    assert all(list(record) == list(ANNOTATE_KEYS) for record in records)


def test_repl_translate(tmp_path):
    from annosql.harness import repl_translate, run_train

    config = tiny_run_config(tmp_path, (8, 2, 31), epochs=2)
    run_train(config)
    with open(config.train_path) as fh:
        record = json.loads(fh.readline())
    stdin = io.StringIO(f"{record['table_id']}\t{record['question']}\nnot-a-valid-line\n")
    stdout = io.StringIO()
    repl_translate(config, stdin=stdin, stdout=stdout)
    lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
    assert len(lines) == 2
    assert lines[0]["question"] == record["question"]
    assert "error" in lines[1]


def test_repl_line_without_tab_has_the_answer_keys(tmp_path):
    """A line without a TAB gets the one output shape, with the line as its
    question, and the loop answers the next line."""
    from annosql.harness import repl_translate, run_train

    config = tiny_run_config(tmp_path, (8, 2, 31), epochs=1)
    run_train(config)
    with open(config.train_path) as fh:
        record = json.loads(fh.readline())
    stdin = io.StringIO(f"no tab here\n\n{record['table_id']}\t{record['question']}\n")
    stdout = io.StringIO()
    repl_translate(config, stdin=stdin, stdout=stdout)
    bad, good = [json.loads(l) for l in stdout.getvalue().splitlines()]
    assert list(bad) == list(good) == list(ANSWER_KEYS)
    assert bad["question"] == "no tab here" and bad["table_id"] is None
    assert bad["error"] == "expected: table_id<TAB>question"
    assert (good["question"], good["table_id"]) == (record["question"], record["table_id"])
    assert good["encoded"]


def test_repl_survives_question_with_no_tokens(tmp_path):
    """Without header slots a question of only punctuation encodes to an
    empty source; the repl reports it in the one output shape, with no
    logp, and goes on to the next line."""
    from annosql.harness import repl_translate, run_train

    config = tiny_run_config(tmp_path, (8, 2, 31), epochs=1, headers=False)
    run_train(config)
    with open(config.train_path) as fh:
        record = json.loads(fh.readline())
    stdin = io.StringIO(f"synth-0\t___\n{record['table_id']}\t{record['question']}\n")
    stdout = io.StringIO()
    repl_translate(config, stdin=stdin, stdout=stdout)
    lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
    assert list(lines[0]) == list(ANSWER_KEYS)
    assert lines[0]["encoded"] == [] and lines[0]["logp"] is None
    assert lines[0]["error"] == "encode: empty source sequence"
    assert lines[1]["question"] == record["question"]


def test_repl_townlands_returns_356(tmp_path):
    """End to end: a model overfit to the two fixture questions answers the
    townland question with 356 through the repl."""
    from annosql.harness import repl_translate, run_train

    tables_path, split_path, lex_path = write_film_and_townland_fixtures(tmp_path)
    config = tiny_run_config(
        tmp_path, epochs=300, batch_size=2, beam_width=3,
        tables_path=tables_path, train_path=split_path, lexicon_path=lex_path,
    )
    run_train(config)
    stdin = io.StringIO(TOWNLANDS_RECORD["question"].join(["townlands\t", "\n"]))
    stdout = io.StringIO()
    repl_translate(config, stdin=stdin, stdout=stdout)
    out = json.loads(stdout.getvalue())
    assert out["sketch"] == "SELECT c1 WHERE c2 = v2 AND c3 = v3"
    assert out["sql"] == (
        "SELECT Population FROM townlands WHERE County = 'Mayo' AND English_Name = 'Carrowteige'"
    )
    assert out["result"] == ["356"]


def test_load_wikisql_trees_by_line_number(tmp_path):
    """A line's `tree` belongs to that line's question, blank lines
    between; a line without one, or with null, has no tree."""
    tables_path, split_path, _lex = write_film_and_townland_fixtures(tmp_path)
    film = json.dumps({**FILM_AWARDS_RECORD, "tree": "(S (A x) (B y))"})
    townland = json.dumps({**TOWNLANDS_RECORD, "tree": "(S (A z) (B w))"})
    gap = tmp_path / "gap.jsonl"
    gap.write_text(f"{film}\n\n{townland}\n")
    examples = load_wikisql(str(gap), table_bundles(load_tables(tables_path)))
    assert [tree_tokens(ex.tree) for ex in examples] == [["x", "y"], ["z", "w"]]
    for untreed in (json.dumps(FILM_AWARDS_RECORD), json.dumps({**FILM_AWARDS_RECORD, "tree": None})):
        gap.write_text(f"{untreed}\n\n{townland}\n")
        examples = load_wikisql(str(gap), table_bundles(load_tables(tables_path)))
        assert examples[0].tree is None
        assert tree_tokens(examples[1].tree) == ["z", "w"]


@pytest.mark.parametrize(
    "bad",
    [
        "{not json",
        json.dumps({"table_id": "townlands", "sql": TOWNLANDS_RECORD["sql"]}),
        json.dumps([1, 2]),
        json.dumps({**TOWNLANDS_RECORD, "sql": {"sel": 5, "agg": 0, "conds": []}}),
        json.dumps({**TOWNLANDS_RECORD, "sql": {"sel": -1, "agg": 0, "conds": []}}),
        json.dumps({**TOWNLANDS_RECORD, "sql": {"sel": 0, "agg": 6, "conds": []}}),
        json.dumps({**TOWNLANDS_RECORD, "sql": {"sel": 0, "agg": 0, "conds": [[9, 0, "x"]]}}),
        json.dumps({**TOWNLANDS_RECORD, "sql": {"sel": 0, "agg": 0, "conds": [[0, 3, "x"]]}}),
        json.dumps({**TOWNLANDS_RECORD, "sql": {"sel": 0, "agg": 0, "conds": [[0, 0]]}}),
        json.dumps({**TOWNLANDS_RECORD, "sql": {"sel": 0, "agg": 0, "conds": []}}).replace(
            '"agg": 0', '"agg": 1e999'
        ),
        json.dumps({**TOWNLANDS_RECORD, "sql": {"sel": 0, "agg": 2.7, "conds": []}}),
        json.dumps({**TOWNLANDS_RECORD, "sql": {"sel": True, "agg": 0, "conds": []}}),
        json.dumps({**TOWNLANDS_RECORD, "sql": {"sel": 0, "agg": "1", "conds": []}}),
    ],
    ids=[
        "json", "missing-key", "not-object", "sel-range", "sel-negative",
        "agg-code", "cond-column", "op-code", "cond-shape", "agg-infinity", "agg-fraction",
        "sel-bool", "agg-string",
    ],
)
def test_load_wikisql_errors_name_file_and_line(tmp_path, bad):
    tables_path, _split, _lex = write_film_and_townland_fixtures(tmp_path)
    split = tmp_path / "bad.jsonl"
    split.write_text(json.dumps(TOWNLANDS_RECORD) + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: "):
        load_wikisql(str(split), table_bundles(load_tables(tables_path)))


def test_translate_cli_reports_unanswerable_questions(tmp_path, capsys):
    """An unknown table id and a question with nothing to encode end the
    translate command with the one output shape, no logp, and status 1."""
    from annosql.cli import main
    from annosql.harness import run_train

    config = tiny_run_config(tmp_path, (8, 2, 31), epochs=1, headers=False)
    run_train(config)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    for table_id, question, error in (
        ("synth-0", "___", "empty source sequence"),
        ("ghost", "what is it ?", "unknown table id 'ghost'"),
    ):
        capsys.readouterr()
        argv = ["translate", "--config", str(config_path), "--question", question]
        assert main(argv + ["--table", table_id]) == 1
        out = json.loads(capsys.readouterr().out)
        assert list(out) == list(ANSWER_KEYS) and error in out["error"]
        assert out["table_id"] == table_id and out["logp"] is None and out["sql"] is None


def test_translate_and_repl_need_tables_path(tmp_path):
    from annosql.cli import main

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"checkpoint_path": str(tmp_path / "m.npz")}))
    with pytest.raises(ValueError, match="config needs tables_path"):
        main(["translate", "--config", str(config_path), "--question", "q ?", "--table", "t"])
    with pytest.raises(ValueError, match="config needs tables_path"):
        main(["repl", "--config", str(config_path)])


def test_annotate_uses_the_split_tree_file(tmp_path):
    """`annosql annotate --split train` reads the trees on the train split's
    lines: its output is prepare_examples run with those trees, which
    differs from the output without them."""
    from annosql.cli import main
    from annosql.text import tokenize

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 30, n_tables=4, seed=29)
    rng = random.Random(29)
    treed_path = str(tmp_path / "treed.jsonl")
    with open(split_path) as fh:
        records = [json.loads(line) for line in fh]
    with open(treed_path, "w") as fh:
        for record in records:
            fh.write(json.dumps({**record, "tree": bracketed(tokenize(record["question"]), rng)}) + "\n")
    config = Config(tables_path=tables_path, train_path=treed_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "ann.jsonl"
    assert main(["annotate", "--config", str(config_path), "--split", "train", "--out", str(out)]) == 0
    annotated = [json.loads(line) for line in out.read_text().splitlines()]

    def expected(path):
        tables = table_bundles(load_tables(tables_path))
        examples = prepare_examples(load_wikisql(path, tables), tables, config)
        return [(ex.annotation.symbols.to_dict(), ex.encoded_src) for ex in examples]

    got = [(a["symbols"], a["encoded"]) for a in annotated]
    assert got == expected(treed_path)
    assert got != expected(split_path)


def test_eval_loads_the_model_before_annotating(tmp_path, monkeypatch):
    """`annosql eval` with a missing checkpoint fails before any question of
    the split is annotated."""
    from annosql import harness
    from annosql.cli import main

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 8, n_tables=2, seed=31)
    config = tiny_run_config(
        tmp_path, tables_path=tables_path, test_path=split_path,
        checkpoint_path=str(tmp_path / "missing.npz"),
    )
    examples, _bundles, _records = generate_corpus(8, 2, 31, config)
    build_training_pairs(examples, config)[1].save(config.vocab_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))

    def no_annotation(*_args, **_kwargs):
        raise AssertionError("annotation started")

    monkeypatch.setattr(harness, "prepare_examples", no_annotation)
    with pytest.raises(FileNotFoundError, match="missing.npz"):
        main(["eval", "--config", str(config_path)])


@pytest.mark.parametrize("key, value", [("mode", "substitute"), ("headers", False), ("max_index", 24)])
def test_a_model_is_refused_under_another_encoding(tmp_path, monkeypatch, key, value):
    """load_model refuses a config that encodes questions otherwise than the
    model's training config, so eval, translate and repl refuse it before
    any question is annotated; the message names the key, both values and
    the checkpoint."""
    from annosql import harness
    from annosql.cli import main
    from annosql.model import ModelError

    config = tiny_run_config(tmp_path, (8, 2, 31), epochs=1)
    config.test_path = config.train_path
    harness.run_train(config)
    trained_value = getattr(config, key)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**config.to_dict(), key: value}))

    def no_annotation(*_args, **_kwargs):
        raise AssertionError("annotation started")

    monkeypatch.setattr(harness, "prepare_examples", no_annotation)
    message = re.escape(
        f"config key {key!r} is {value!r}, but {config.checkpoint_path} "
        f"was trained with {trained_value!r}"
    )
    with pytest.raises(ModelError, match=message):
        harness.load_model(replace(config, **{key: value}))
    for command in (["eval"], ["translate", "--question", "q ?", "--table", "synth-0"], ["repl"]):
        with pytest.raises(ModelError, match=message):
            main(command + ["--config", str(config_path)])


def test_load_model_reads_a_training_config_with_a_retired_setting(tmp_path):
    """A checkpoint whose stored training config holds a setting this
    version no longer has (as `train_trees_path` before it was retired)
    still loads; one without a training config fails naming the checkpoint."""
    from annosql import harness
    from annosql import model as nn

    config = tiny_run_config(tmp_path, (8, 2, 31), epochs=1, headers=False)
    harness.run_train(config)
    params, vocab = harness.load_model(config)
    stored = {**config.to_dict(), "train_trees_path": None}
    nn.save_checkpoint(config.checkpoint_path, params, vocab.content_hash(), extra={"config": stored})
    harness.load_model(config)
    nn.save_checkpoint(config.checkpoint_path, params, vocab.content_hash())
    with pytest.raises(nn.ModelError, match=re.escape(f"{config.checkpoint_path}: no usable training config")):
        harness.load_model(config)


def test_failed_retrain_keeps_the_previous_model_loadable(tmp_path, monkeypatch):
    """A retrain on another corpus whose checkpoint write fails leaves the
    previous vocabulary and checkpoint, a pair load_model accepts, and no
    other file beside them."""
    from annosql import harness

    config = tiny_run_config(tmp_path, epochs=1)
    config.tables_path, config.train_path = write_corpus(str(tmp_path / "a"), 12, 3, 21)
    harness.run_train(config)
    params, vocab = harness.load_model(config)
    config.tables_path, config.train_path = write_corpus(str(tmp_path / "b"), 12, 3, 22)

    def savez(*_args, **_kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez)
    with pytest.raises(OSError, match="disk full"):
        harness.run_train(config)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "model.npz", "vocab.txt"]
    loaded, loaded_vocab = harness.load_model(config)
    assert loaded_vocab.itos == vocab.itos
    for name in params.names():
        assert np.array_equal(loaded.tensors[name], params.tensors[name]), name


@pytest.mark.parametrize("key", ["checkpoint_path", "vocab_path", "log_path"])
def test_train_refuses_a_missing_output_directory(tmp_path, monkeypatch, key):
    """run_train names an output file whose directory does not exist before
    it loads or trains anything, so a long run is not lost at its save."""
    from annosql import harness

    def never(*_args, **_kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "load_meta", never)
    monkeypatch.setattr(harness, "train_model", never)
    config = tiny_run_config(tmp_path, log_path=str(tmp_path / "train.log"))
    missing = str(tmp_path / "missing" / "out")
    setattr(config, key, missing)
    with pytest.raises(ValueError, match=re.escape(repr(missing))):
        harness.run_train(config)


@pytest.mark.parametrize("key", ["checkpoint_path", "vocab_path", "log_path"])
def test_train_refuses_an_output_path_that_is_a_directory(tmp_path, monkeypatch, key):
    """run_train names an output file that is an existing directory before
    it loads or trains anything, not at the save after the last epoch."""
    from annosql import harness

    def never(*_args, **_kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "load_meta", never)
    monkeypatch.setattr(harness, "train_model", never)
    config = tiny_run_config(tmp_path, log_path=str(tmp_path / "train.log"))
    setattr(config, key, str(tmp_path))
    with pytest.raises(ValueError, match=re.escape(f"{str(tmp_path)!r} is a directory")):
        harness.run_train(config)


@pytest.mark.parametrize("out", ["missing", "directory"])
@pytest.mark.parametrize(
    "command",
    [["annotate", "--split", "train"], ["train"], ["eval"], ["translate", "--question", "q", "--table", "t"]],
    ids=lambda command: command[0],
)
def test_cli_refuses_an_unwritable_out_before_any_work(tmp_path, monkeypatch, capsys, command, out):
    """An --out in a missing directory, or naming a directory, stops the
    command with exit 2 and the path in the message before it loads
    anything, so a long eval or training run is not lost at the write."""
    from annosql import cli

    def never(*_args, **_kwargs):
        raise AssertionError("work started")

    for name in ("load_meta", "load_model", "run_train", "run_eval"):
        monkeypatch.setattr(cli, name, never)
    config_path = tmp_path / "config.json"
    config_path.write_text("{}")
    path = str(tmp_path / "missing" / "report.json") if out == "missing" else str(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(command + ["--config", str(config_path), "--out", path])
    assert info.value.code == 2
    assert repr(path) in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--tables", "0"), ("--tables", "-1"), ("--questions", "-3")])
def test_synth_refuses_a_count_below_one(tmp_path, capsys, flag, value):
    """`annosql synth` takes table and question counts of at least 1 and
    writes nothing for another."""
    from annosql.cli import main

    with pytest.raises(SystemExit) as info:
        main(["synth", "--out-dir", str(tmp_path / "out"), flag, value])
    assert info.value.code == 2
    assert f"{flag}: must be at least 1, not {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_writes_both_files_and_prints_their_paths(tmp_path, capsys):
    """`annosql synth` writes the corpus write_corpus writes for its counts
    and seed, and prints one JSON line naming both files."""
    from annosql.cli import main

    argv = ["synth", "--out-dir", str(tmp_path / "cli"), "--questions", "6", "--tables", "2", "--seed", "5"]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    expected = write_corpus(str(tmp_path / "direct"), 6, 2, 5)
    assert list(printed) == ["tables", "split"]
    for got, want in zip((printed["tables"], printed["split"]), expected):
        assert Path(got).parent == tmp_path / "cli" and Path(got).name == Path(want).name
        assert Path(got).read_bytes() == Path(want).read_bytes()


def test_repl_command_answers_lines_from_stdin(tmp_path, monkeypatch, capsys):
    """`annosql repl` reads `table_id<TAB>question` lines from stdin and
    prints one answer line for each, in order."""
    from annosql.cli import main
    from annosql.harness import run_train

    config = tiny_run_config(tmp_path, (8, 2, 31), epochs=1)
    run_train(config)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    with open(config.train_path) as fh:
        records = [json.loads(line) for line in fh][:2]
    lines = "".join(f"{r['table_id']}\t{r['question']}\n" for r in records)
    monkeypatch.setattr("sys.stdin", io.StringIO(lines + "no tab\n"))
    capsys.readouterr()
    assert main(["repl", "--config", str(config_path)]) == 0
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [a["question"] for a in out] == [r["question"] for r in records] + ["no tab"]
    assert all(list(a) == list(ANSWER_KEYS) for a in out)
    assert all(a["logp"] is not None for a in out[:2]) and out[2]["error"] == "expected: table_id<TAB>question"


def test_eval_needs_a_path_for_its_split(tmp_path):
    from annosql.cli import main

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 8, n_tables=2, seed=31)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"tables_path": tables_path, "train_path": split_path}))
    for command in (["annotate", "--split", "dev"], ["eval", "--split", "test"]):
        with pytest.raises(ValueError, match="config needs a path for split"):
            main(command + ["--config", str(config_path)])


def test_substitute_mode_pairs(tmp_path):
    """Encoding mode and header flag flow from the config into the pairs."""
    config = Config(mode="substitute", headers=False)
    examples, _tables, _cfg = film_fixtures_prepared(tmp_path, config)
    ex = examples[0]
    assert "c1" in ex.encoded_src and "c2" in ex.encoded_src
    assert "jerzy" not in ex.encoded_src  # value surface substituted away
    assert "|" not in ex.encoded_src
    pairs, vocab, report = build_training_pairs(examples, config)
    assert report["aligned"] == 2
    assert vocab.encode(ex.encoded_src) == pairs[0][0]


def test_embeddings_seed_word_embeddings(tmp_path, caplog, monkeypatch):
    """With Adam's step a no-op the checkpoint keeps its initial rows: a
    word's row is its vector when the dimensions agree, and a random row,
    with a warning naming both sizes, when they do not."""
    from annosql import model as nn
    from annosql.encoding import Vocabulary
    from annosql.harness import run_train

    monkeypatch.setattr(nn.Adam, "step", lambda *_args: None)
    config = tiny_run_config(tmp_path, (8, 2, 31), epochs=1, embeddings_path=str(tmp_path / "vectors.txt"))
    vectors = {w: np.linspace(-1.0, 1.0, config.dim) * (i + 1) for i, w in enumerate(["select", "where"])}
    for dim in (config.dim, 3):
        with open(config.embeddings_path, "w") as fh:
            for word, vec in vectors.items():
                fh.write(" ".join([word] + [str(x) for x in vec[:dim].tolist()]) + "\n")
        caplog.clear()
        run_train(config)
        vocab = Vocabulary.load(config.vocab_path)
        params, _meta = nn.load_checkpoint(config.checkpoint_path, vocab.content_hash())
        for word, vec in vectors.items():
            row = params["emb"][vocab.stoi[word]]
            assert np.allclose(row, vec, atol=1e-6) == (dim == config.dim)
        warned = any("dimension 3" in r.getMessage() and "32" in r.getMessage() for r in caplog.records)
        assert warned == (dim != config.dim)


def test_dev_early_stopping_with_patience(tmp_path, monkeypatch):
    """With Adam's step a no-op the dev score never improves after the first
    check, so a patience of 1 halts training on the second evaluation."""
    from annosql import model as nn
    from annosql.harness import run_train

    monkeypatch.setattr(nn.Adam, "step", lambda *_args: None)
    config = tiny_run_config(tmp_path, (6, 2, 41), epochs=30, eval_every=1, patience=1)
    config.dev_path = config.train_path
    history, _coverage = run_train(config)
    assert history[-1]["epoch"] == 2


def test_dev_best_parameters_are_the_ones_saved(tmp_path, monkeypatch):
    """Dev acc_qm scripted to peak at the first check: a patience of 1 stops
    training at epoch 2, and the checkpoint holds the parameters of epoch 1."""
    from annosql import harness
    from annosql import model as nn
    from annosql.encoding import Vocabulary

    config = tiny_run_config(tmp_path, (6, 2, 41), epochs=30, eval_every=1, patience=1)
    config.dev_path = config.train_path
    scripted_qm = iter([0.5, 0.25])
    monkeypatch.setattr(harness, "evaluate", lambda *_args: SimpleNamespace(acc_qm=next(scripted_qm)))
    history, _coverage = harness.run_train(config)
    assert [entry["dev_acc_qm"] for entry in history] == [0.5, 0.25]
    vocab = Vocabulary.load(config.vocab_path)
    saved, _meta = nn.load_checkpoint(config.checkpoint_path, vocab.content_hash())
    tables = table_bundles(load_tables(config.tables_path))
    examples = prepare_examples(load_wikisql(config.train_path, tables), tables, config)
    pairs, _vocab, _report = build_training_pairs(examples, config)
    first, _hist = train_model(pairs, vocab, replace(config, epochs=1))
    last, _hist = train_model(pairs, vocab, replace(config, epochs=2))
    for name in saved.names():
        assert np.array_equal(saved[name], first[name]), name
    assert not all(np.array_equal(saved[name], last[name]) for name in saved.names())


@pytest.mark.parametrize("checked", [(), ("train",), ("dev",), ("train", "dev")])
def test_check_fields_only_at_check_epochs(tmp_path, monkeypatch, checked):
    """An entry carries train_acc_lf, dev_acc_qm and check_seconds only at an
    epoch that is a multiple of eval_every, and only for the checks asked
    for; the log_path lines are the history entries."""
    from annosql import model as nn
    from annosql.harness import run_train

    # with Adam's step a no-op the model stays at its random start: train
    # acc_lf never reaches 1, and dev acc_qm stalls for fewer checks than
    # the patience
    monkeypatch.setattr(nn.Adam, "step", lambda *_args: None)
    config = tiny_run_config(
        tmp_path, (6, 2, 41), epochs=5, eval_every=2, patience=5, log_path=str(tmp_path / "train.log")
    )
    config.stop_train_acc = 1.0 if "train" in checked else None
    config.dev_path = config.train_path if "dev" in checked else None
    history, _coverage = run_train(config)
    assert [entry["epoch"] for entry in history] == [1, 2, 3, 4, 5]
    for entry in history:
        at_check = entry["epoch"] % config.eval_every == 0
        assert ("train_acc_lf" in entry) == (at_check and "train" in checked)
        assert ("dev_acc_qm" in entry) == (at_check and "dev" in checked)
        assert ("check_seconds" in entry) == (at_check and bool(checked))
    logged = [json.loads(line) for line in Path(config.log_path).read_text().splitlines()]
    assert logged == history


def test_eval_report_alignment_rates_sum_to_one():
    config = tiny_config(epochs=1)
    examples, bundles, _records = generate_corpus(5, n_tables=2, seed=23, config=config)
    pairs, vocab, _report = build_training_pairs(examples, config)
    params, _hist = train_model(pairs, vocab, config)
    ghost = Example(
        "what is the rank of something never seen ?",
        examples[0].table_id,
        ConcreteSql("", "Rank", (("Team", "=", "Nowhere FC"),), examples[0].table_id),
    )
    prepare_examples([ghost], bundles, config)
    report = evaluate(examples + [ghost], bundles, params, vocab, config)
    d = report.to_dict()
    assert d["alignment"]["coverage"] + d["alignment"]["failure_rate"] == 1.0
    assert d["acc_lf"] == report.lf / report.total


def test_config_round_trip(tmp_path):
    config = Config(seed=99, mode="substitute", headers=False)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config.to_dict()))
    loaded = Config.from_file(str(path))
    assert loaded == config
    path.write_text(json.dumps({"nonsense_key": 1}))
    with pytest.raises(ValueError, match="nonsense_key"):
        Config.from_file(str(path))
    path.write_text(json.dumps({"lr": 1, "stop_train_acc": None}))
    assert Config.from_file(str(path)) == Config(lr=1, stop_train_acc=None)
    path.write_text(json.dumps({"stop_train_acc": 0.0, "theta_val": 1, "tau_ed": 0}))
    assert Config.from_file(str(path)) == Config(stop_train_acc=0.0, theta_val=1, tau_ed=0)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"epochs": "2"}', "config key 'epochs' must be int, not '2'"),
        ('{"epochs": 2.0}', "config key 'epochs' must be int, not 2.0"),
        ('{"lr": true}', "config key 'lr' must be float, not True"),
        ('{"mode": null}', "config key 'mode' must be str, not None"),
        ('{"stop_train_acc": "0.5"}', "config key 'stop_train_acc' must be float | None"),
        ("[1, 2]", "config must be a JSON object, not list"),
        ('{"batch_size": 0}', "config key 'batch_size' must be at least 1, not 0"),
        ('{"eval_every": 0}', "config key 'eval_every' must be at least 1, not 0"),
        ('{"mode": "stak"}', "config key 'mode' must be one of ('stack', 'substitute'), not 'stak'"),
        ('{"dtype": "Float64"}', "config key 'dtype' must be one of ('float32', 'float64'), not 'Float64'"),
        ('{"dim": 64}', "config key 'type_dim' must be below dim 64, not 150"),
        ('{"clip": -5}', "config key 'clip' must be above 0, not -5"),
        ('{"clip": -5, "lr": NaN}', "config key 'lr' must be finite, not nan"),
        ('{"lr": NaN}', "config key 'lr' must be finite, not nan"),
        ('{"lr": 0}', "config key 'lr' must be above 0, not 0"),
        ('{"tau_sim": -Infinity}', "config key 'tau_sim' must be finite, not -inf"),
        ('{"theta_val": 5}', "config key 'theta_val' must be in [0, 1], not 5"),
        ('{"tau_sim": -2}', "config key 'tau_sim' must be in [0, 1], not -2"),
        ('{"tau_ed": 9}', "config key 'tau_ed' must be in [0, 1], not 9"),
        ('{"stop_train_acc": 3.0}', "config key 'stop_train_acc' must be in [0, 1], not 3.0"),
        ("{bad", "JSONDecodeError: Expecting property name enclosed in double quotes: line 1"),
        ("[" * 100_000, "RecursionError: maximum recursion depth exceeded"),
    ],
    ids=[
        "str-for-int", "float-for-int", "bool-for-float", "null-for-str", "str-for-optional", "list",
        "batch-size-zero", "eval-every-zero", "mode-choice", "dtype-choice", "type-dim-range",
        "clip-negative", "clip-negative-and-lr-nan", "lr-nan", "lr-zero", "float-infinite",
        "theta-val-range", "tau-sim-range", "tau-ed-range", "stop-train-acc-range", "not-json",
        "json-too-deep",
    ],
)
def test_malformed_config_fails_at_load(tmp_path, monkeypatch, text, message):
    """`annosql train` rejects text that is not JSON, a config value of the
    wrong type, a choice not offered, an int out of range or a float out of
    range, naming the file and the key, before it loads any data."""
    from annosql import harness
    from annosql.cli import main

    def no_loading(*_args, **_kwargs):
        raise AssertionError("data loading started")

    monkeypatch.setattr(harness, "load_tables", no_loading)
    config_path = tmp_path / "config.json"
    try:
        data = json.loads(text)
    except (ValueError, RecursionError):  # not JSON: the file holds the text as it is
        config_path.write_text(text)
    else:
        if isinstance(data, dict):
            data.update(tables_path="tables.jsonl", train_path="train.jsonl")
        config_path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"{config_path}: {message}")):
        main(["train", "--config", str(config_path)])


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: Config(theta_val=-0.5), "theta_val"),
        (lambda: Config(lr=0), "lr"),
        (lambda: Config(beam_width=0), "beam_width"),
        (lambda: Config(epochs="2"), "epochs"),
        (lambda: Config(dim=64), "type_dim"),
        (lambda: replace(Config(), tau_ed=9), "tau_ed"),
    ],
    ids=["theta-val", "lr", "beam-width", "epochs", "dim", "replace-tau-ed"],
)
def test_config_built_in_code_is_checked(build, key):
    """A Config built in code or by dataclasses.replace meets the rules a
    config file meets, and the error names the key."""
    with pytest.raises(ValueError, match=f"^config key '{key}' must be "):
        build()


# one value of each JSON type
JSON_SAMPLES = ("x", 2, 0.5, True, None, [1], {"k": 1})


def test_every_config_field_refuses_a_value_of_the_wrong_json_type():
    """Each non-path field refuses, when the Config is built, every JSON value
    whose type its annotation does not name (an int serves for a float), so
    a field added later is checked too."""
    for f in fields(Config):
        if f.name.endswith("_path"):
            continue
        allowed = get_args(f.type) or (f.type,)
        for value in JSON_SAMPLES:
            if type(value) in allowed or (type(value) is int and float in allowed):
                continue
            with pytest.raises(ValueError, match=re.escape(f"config key {f.name!r} must be ")):
                Config(**{f.name: value})


def test_train_log_keeps_epochs_before_a_failure(tmp_path, monkeypatch):
    """A run that fails in epoch 2 leaves epoch 1's line in the log, and the
    error names the epoch and the batch."""
    from annosql import harness
    from annosql import model as nn

    config = tiny_run_config(tmp_path, (8, 2, 31), epochs=3, log_path=str(tmp_path / "train.log"))
    real_loss_and_grad = nn.loss_and_grad
    calls = []

    def poisoned_in_epoch_2(params, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # 8 pairs at batch size 8: one batch an epoch
            params["out.U"][...] = np.nan
        return real_loss_and_grad(params, *args, **kwargs)

    monkeypatch.setattr(nn, "loss_and_grad", poisoned_in_epoch_2)
    with pytest.raises(nn.ModelError, match=r"non-finite loss \(batch 0 of epoch 2\)"):
        harness.run_train(config)
    logged = [json.loads(line) for line in Path(config.log_path).read_text().splitlines()]
    assert [entry["epoch"] for entry in logged] == [1]


def test_non_finite_gradient_norm_names_its_batch_and_leaves_params(monkeypatch):
    """A NaN gradient stops training at its own batch, before Adam applies
    it: the error names batch 0 of epoch 1 and the parameters are those
    training started from."""
    from annosql import model as nn

    config = tiny_config(epochs=2)
    examples, _bundles, _records = generate_corpus(8, n_tables=2, seed=31, config=config)
    pairs, vocab, _report = build_training_pairs(examples, config)
    real_loss_and_grad = nn.loss_and_grad
    seen = []

    def nan_gradient(params, *args, **kwargs):
        seen.append((params, params.clone()))
        loss, grads, stats = real_loss_and_grad(params, *args, **kwargs)
        grads["dec.U"][0, 0] = np.nan
        return loss, grads, stats

    monkeypatch.setattr(nn, "loss_and_grad", nan_gradient)
    with pytest.raises(nn.ModelError, match=r"non-finite gradient norm \(batch 0 of epoch 1\)"):
        train_model(pairs, vocab, config)
    [(params, before)] = seen
    for name in params.names():
        assert np.array_equal(params[name], before[name]), name


def test_run_train_stops_at_stop_train_acc(tmp_path):
    """run_train checks train acc_lf every `eval_every` epochs and stops once
    it reaches `stop_train_acc`; a target of 0 is met at the first check."""
    from annosql.harness import run_train

    config = tiny_run_config(tmp_path, (6, 2, 41), epochs=10, eval_every=2, stop_train_acc=0.0)
    history, _coverage = run_train(config)
    assert [entry["epoch"] for entry in history] == [1, 2]


def write_corpus_with_gold_less_line(data_dir):
    """The 8-question seed-31 synth split plus one line without `sql`."""
    tables_path, split_path = write_corpus(str(data_dir), 8, n_tables=2, seed=31)
    with open(split_path, encoding="utf-8") as fh:
        asked = json.loads(fh.readline())
    del asked["sql"]
    asked["question"] = "What is asked without a gold query ?"
    with open(split_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(asked) + "\n")
    return tables_path, split_path


@pytest.mark.parametrize("evaluated", ["train", "dev"])
def test_gold_less_line_in_evaluated_split_fails_at_load(tmp_path, monkeypatch, evaluated):
    """A split that run_train evaluates (train under stop_train_acc, dev
    always) is checked for gold queries before the first epoch."""
    from annosql import harness

    tables_path, asked_path = write_corpus_with_gold_less_line(tmp_path / "asked")
    _tables, clean_path = write_corpus(str(tmp_path / "clean"), 8, n_tables=2, seed=31)
    config = tiny_run_config(tmp_path, epochs=3, eval_every=2, tables_path=tables_path)
    if evaluated == "train":
        config.train_path, config.stop_train_acc = asked_path, 0.99
    else:
        config.train_path, config.dev_path = clean_path, asked_path

    def no_training(*_args, **_kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(harness, "train_model", no_training)
    message = f"{re.escape(asked_path)}: no gold query .*asked without a gold query"
    with pytest.raises(ValueError, match=message):
        harness.run_train(config)


def test_coverage_report_counts_gold_less_examples_apart(tmp_path):
    tables_path, split_path = write_corpus_with_gold_less_line(tmp_path)
    config = tiny_config()
    tables = table_bundles(load_tables(tables_path))
    examples = load_wikisql(split_path, tables)
    prepare_examples(examples, tables, config)
    _pairs, _vocab, report = build_training_pairs(examples, config)
    assert report["total"] == 9
    assert report["aligned"] == 8
    assert report["failures"] == {"no_gold": 1}


def test_eval_report_failure_classes(monkeypatch):
    """Each question that misses acc_ex lands in one class: the sketch does
    not parse, a symbol does not resolve, execution flags the query, or the
    query runs to the wrong result; each class keeps at most three example
    questions."""
    from annosql import model as nn

    config = tiny_config()
    examples, bundles, _records = generate_corpus(10, n_tables=2, seed=23, config=config)
    _pairs, vocab, _report = build_training_pairs(examples, config)
    gold = [sketch_tokens(ex.aligned) for ex in examples]
    assert gold[3] == ["select", "c1"] and gold[4][:2] == ["select", "c1"] and "where" in gold[4]
    predicted = {
        0: gold[0],  # correct
        2: ["select", "c24"],  # c24 is not in the question
        3: ["select", "c1", "where", "c1", "=", "v24"],  # c1 = v24 resolves to nothing
        4: ["select", "c1"],  # the condition dropped
        9: ["max", "select", "g4"],  # MAX of the text column Team
    }
    by_source = {
        tuple(vocab.encode(ex.encoded_src)): vocab.encode(predicted.get(i, ["where", "select"]))
        for i, ex in enumerate(examples)
    }

    def fake_beam(src_ids, *_args):
        return nn.Hypothesis(tuple(by_source[tuple(src_ids)]), -1.0)

    monkeypatch.setattr(nn, "beam_search", fake_beam)
    report = evaluate(examples, bundles, None, vocab, config)
    questions = [ex.question for ex in examples]
    assert report.ex == 1
    failures = report.to_dict()["translation_failures"]
    assert failures == {
        "encode": {"count": 0, "examples": []},
        "parse": {"count": 5, "examples": [questions[1], questions[5], questions[6]]},
        "resolve": {"count": 2, "examples": [questions[2], questions[3]]},
        "flagged": {"count": 1, "examples": [questions[9]]},
        "wrong_result": {"count": 1, "examples": [questions[4]]},
    }
    assert sum(f["count"] for f in failures.values()) == report.total - report.ex


def test_evaluate_counts_unencodable_question_and_goes_on():
    """Without header slots a question of only punctuation encodes to an
    empty source; evaluate counts and names it under `encode` and still
    scores every other question."""
    config = tiny_config(epochs=1, headers=False)
    examples, bundles, _records = generate_corpus(6, 2, 23, config)
    pairs, vocab, _report = build_training_pairs(examples, config)
    params, _hist = train_model(pairs, vocab, config)
    blank = Example("___", examples[0].table_id, examples[0].gold)
    prepare_examples([blank], bundles, config)
    assert blank.encoded_src == []
    report = evaluate(examples + [blank], bundles, params, vocab, config)
    assert report.total == 7
    failures = report.to_dict()["translation_failures"]
    assert failures["encode"] == {"count": 1, "examples": ["___"]}
    assert sum(f["count"] for f in failures.values()) == report.total - report.ex


def test_evaluate_refuses_unprepared_examples():
    """Examples never passed to prepare_examples are refused, not scored as
    unaligned questions that fail to encode."""
    config = tiny_config()
    examples, bundles, _records = generate_corpus(6, 2, 23, config)
    _pairs, vocab, _report = build_training_pairs(examples, config)
    fresh = [Example(ex.question, ex.table_id, ex.gold) for ex in examples]
    with pytest.raises(ValueError, match="evaluate: examples must be prepared"):
        evaluate(fresh, bundles, None, vocab, config)


def test_evaluate_raises_on_beam_width_zero():
    """A beam width of 0 is refused when the Config is built. One set on a
    built Config ends the evaluation with the beam's own message; it is not
    counted as a failed question."""
    from annosql import model as nn

    with pytest.raises(ValueError, match="config key 'beam_width' must be at least 1, not 0"):
        tiny_config(beam_width=0)
    config = tiny_config()
    examples, bundles, _records = generate_corpus(6, 2, 23, config)
    _pairs, vocab, _report = build_training_pairs(examples, config)
    params = nn.init_params(config.model_config(len(vocab)), 0)
    config.beam_width = 0
    with pytest.raises(nn.ModelError, match="beam width must be >= 1"):
        evaluate(examples, bundles, params, vocab, config)


def test_translate_question_output_has_one_shape(monkeypatch):
    """An answered question, an unanswered one and one asked of an unknown
    table give the same keys, with `flagged` None when there is no SQL."""
    from annosql import model as nn

    config = tiny_config()
    examples, bundles, _records = generate_corpus(2, 2, 23, config)
    _pairs, vocab, _report = build_training_pairs(examples, config)
    answered, unanswered = examples
    by_source = {
        tuple(vocab.encode(answered.encoded_src)): vocab.encode(sketch_tokens(answered.aligned)),
        tuple(vocab.encode(unanswered.encoded_src)): vocab.encode(["where", "select"]),
    }

    def fake_beam(src_ids, *_args):
        return nn.Hypothesis(tuple(by_source[tuple(src_ids)]), -1.0)

    monkeypatch.setattr(nn, "beam_search", fake_beam)
    outs = [
        translate_question(
            ex.question, ex.table_id, bundles, None, vocab, config, EMPTY_LEXICON, EMPTY_EMBEDDINGS
        )
        for ex in examples
    ]
    ghost = translate_question(
        "what is it ?", "ghost", bundles, None, vocab, config, EMPTY_LEXICON, EMPTY_EMBEDDINGS
    )
    assert outs[0]["sql"] is not None and isinstance(outs[0]["flagged"], bool)
    assert outs[1]["sql"] is None and outs[1]["flagged"] is None
    assert ghost["error"] == "unknown table id 'ghost'" and ghost["annotation"] is None
    assert list(outs[0]) == list(outs[1]) == list(ghost) == list(ANSWER_KEYS)
