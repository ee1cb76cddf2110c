import hashlib
import io
import json
import random
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from annosql.harness import (
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
    examples = load_wikisql(split_path, tables, None)
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
    examples = load_wikisql(str(empty), table_bundles(load_tables(tables_path)), None)
    assert examples == []


def test_load_wikisql_dangling_table_id(tmp_path):
    tables_path, _split, _lex = write_film_and_townland_fixtures(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({**FILM_AWARDS_RECORD, "table_id": "ghost"}) + "\n")
    with pytest.raises(ValueError, match="ghost"):
        load_wikisql(str(bad), table_bundles(load_tables(tables_path)), None)


def test_gold_less_questions_annotate_but_do_not_evaluate(tmp_path):
    from annosql.cli import main

    tables_path, _split, _lex = write_film_and_townland_fixtures(tmp_path)
    split = tmp_path / "asked.jsonl"
    asked = {k: v for k, v in TOWNLANDS_RECORD.items() if k != "sql"}
    split.write_text(json.dumps(FILM_AWARDS_RECORD) + "\n" + json.dumps(asked) + "\n")
    tables = table_bundles(load_tables(tables_path))
    examples = load_wikisql(str(split), tables, None)
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


def film_fixtures_prepared(tmp_path, config=None):
    from annosql.meta import load_phrase_lexicon

    tables_path, split_path, lex_path = write_film_and_townland_fixtures(tmp_path)
    config = config or Config()
    tables = table_bundles(load_tables(tables_path))
    examples = load_wikisql(split_path, tables, None)
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


def test_synth_write_corpus_round_trip(tmp_path):
    """The written fixtures are pinned byte for byte, load back to the
    tables generate_corpus made, and every question aligns again."""
    tables_path, split_path = write_corpus(str(tmp_path), 200, n_tables=20, seed=7)
    digest = hashlib.sha256(Path(tables_path).read_bytes() + Path(split_path).read_bytes())
    assert digest.hexdigest() == "a7b53139ff84aaf66c36bbe5c757709f7e76897f07637c8de898115069f009f1"
    tables = table_bundles(load_tables(tables_path))
    _examples, bundles, _records = generate_corpus(200, n_tables=20, seed=7, config=Config())
    assert tables == bundles
    examples = load_wikisql(split_path, tables, None)
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


def test_translate_example_handles_garbage_model():
    config = tiny_config(epochs=1)
    examples, bundles, _records = generate_corpus(4, n_tables=2, seed=13, config=config)
    pairs, vocab, _report = build_training_pairs(examples, config)
    from annosql import model as nn

    params = nn.init_params(config.model_config(len(vocab)), seed=0)
    for ex in examples:
        result = translate_example(ex, bundles, params, vocab, config)
        assert (result.sql is None) == (result.error is not None)


def test_run_train_eval_translate_cli(tmp_path):
    from annosql.cli import main

    data_dir = tmp_path / "data"
    tables_path, split_path = write_corpus(str(data_dir), 12, n_tables=3, seed=21)
    config = tiny_config(epochs=4)
    config.tables_path = tables_path
    config.train_path = split_path
    config.test_path = split_path
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
    config.log_path = str(tmp_path / "train.log")
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
    assert main(["eval", "--config", str(config_path), "--split", "test", "--out", str(out_eval)]) == 0
    report = json.loads(out_eval.read_text())
    assert report["total"] == 12
    assert 0.0 <= report["acc_ex"] <= 1.0
    assert report["config"]["seed"] == config.seed

    with open(split_path) as fh:
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


def test_repl_translate(tmp_path):
    from annosql.harness import repl_translate, run_train

    data_dir = tmp_path / "data"
    tables_path, split_path = write_corpus(str(data_dir), 8, n_tables=2, seed=31)
    config = tiny_config(epochs=2)
    config.tables_path = tables_path
    config.train_path = split_path
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
    run_train(config)
    with open(split_path) as fh:
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

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 8, n_tables=2, seed=31)
    config = tiny_config(epochs=1)
    config.tables_path = tables_path
    config.train_path = split_path
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
    run_train(config)
    with open(split_path) as fh:
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

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 8, n_tables=2, seed=31)
    config = tiny_config(epochs=1, headers=False)
    config.tables_path = tables_path
    config.train_path = split_path
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
    run_train(config)
    with open(split_path) as fh:
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
    config = tiny_config(epochs=300, batch_size=2, beam_width=3)
    config.tables_path = tables_path
    config.train_path = split_path
    config.lexicon_path = lex_path
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
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
    """Tree line i belongs to question-file line i, blank lines included."""
    tables_path, split_path, _lex = write_film_and_townland_fixtures(tmp_path)
    film, townland = json.dumps(FILM_AWARDS_RECORD), json.dumps(TOWNLANDS_RECORD)
    gap = tmp_path / "gap.jsonl"
    gap.write_text(f"{film}\n\n{townland}\n")
    trees_path = tmp_path / "trees.txt"
    trees_path.write_text("(S (A x) (B y))\n\n(S (A z) (B w))\n")
    examples = load_wikisql(str(gap), table_bundles(load_tables(tables_path)), str(trees_path))
    assert [tree_tokens(ex.tree) for ex in examples] == [["x", "y"], ["z", "w"]]
    trees_path.write_text("\n\n(S (A z) (B w))\n")
    examples = load_wikisql(str(gap), table_bundles(load_tables(tables_path)), str(trees_path))
    assert examples[0].tree is None
    assert tree_tokens(examples[1].tree) == ["z", "w"]


def test_load_wikisql_rejects_wrong_tree_line_count(tmp_path):
    tables_path, split_path, _lex = write_film_and_townland_fixtures(tmp_path)
    trees_path = tmp_path / "trees.txt"
    for text, n in (("(S (A x) (B y))\n", 1), ("\n\n\n", 3)):
        trees_path.write_text(text)
        with pytest.raises(ValueError, match=f"trees.txt: {n} tree lines for 2 lines of "):
            load_wikisql(split_path, table_bundles(load_tables(tables_path)), str(trees_path))


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
    ],
    ids=[
        "json", "missing-key", "not-object", "sel-range", "sel-negative",
        "agg-code", "cond-column", "op-code", "cond-shape",
    ],
)
def test_load_wikisql_errors_name_file_and_line(tmp_path, bad):
    tables_path, _split, _lex = write_film_and_townland_fixtures(tmp_path)
    split = tmp_path / "bad.jsonl"
    split.write_text(json.dumps(TOWNLANDS_RECORD) + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: "):
        load_wikisql(str(split), table_bundles(load_tables(tables_path)), None)


def test_translate_cli_reports_unanswerable_questions(tmp_path, capsys):
    """An unknown table id and a question with nothing to encode end the
    translate command with the one output shape, no logp, and status 1."""
    from annosql.cli import main
    from annosql.harness import run_train

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 8, n_tables=2, seed=31)
    config = tiny_config(epochs=1, headers=False)
    config.tables_path = tables_path
    config.train_path = split_path
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
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
    """`annosql annotate --split train` reads train_trees_path: its output is
    prepare_examples run with those trees, which differs from the output
    without them."""
    from annosql.cli import main
    from annosql.text import tokenize

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 30, n_tables=4, seed=29)
    rng = random.Random(29)
    trees_path = tmp_path / "trees.txt"
    with open(split_path) as fh:
        questions = [json.loads(line)["question"] for line in fh]
    trees_path.write_text("".join(bracketed(tokenize(q), rng) + "\n" for q in questions))
    config = Config(tables_path=tables_path, train_path=split_path, train_trees_path=str(trees_path))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "ann.jsonl"
    assert main(["annotate", "--config", str(config_path), "--split", "train", "--out", str(out)]) == 0
    annotated = [json.loads(line) for line in out.read_text().splitlines()]

    def expected(trees):
        tables = table_bundles(load_tables(tables_path))
        examples = prepare_examples(load_wikisql(split_path, tables, trees), tables, config)
        return [(ex.annotation.symbols.to_dict(), ex.encoded_src) for ex in examples]

    got = [(a["symbols"], a["encoded"]) for a in annotated]
    assert got == expected(str(trees_path))
    assert got != expected(None)


def test_eval_loads_the_model_before_annotating(tmp_path, monkeypatch):
    """`annosql eval` with a missing checkpoint fails before any question of
    the split is annotated."""
    from annosql import harness
    from annosql.cli import main

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 8, n_tables=2, seed=31)
    config = tiny_config(tables_path=tables_path, test_path=split_path)
    config.vocab_path = str(tmp_path / "vocab.txt")
    config.checkpoint_path = str(tmp_path / "missing.npz")
    examples, _bundles, _records = generate_corpus(8, 2, 31, config)
    build_training_pairs(examples, config)[1].save(config.vocab_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))

    def no_annotation(*_args, **_kwargs):
        raise AssertionError("annotation started")

    monkeypatch.setattr(harness, "prepare_examples", no_annotation)
    with pytest.raises(FileNotFoundError, match="missing.npz"):
        main(["eval", "--config", str(config_path)])


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


def test_embeddings_seed_word_embeddings(tmp_path, caplog):
    """With lr=0 the checkpoint keeps its initial rows: a word's row is its
    vector when the dimensions agree, and a random row, with a warning
    naming both sizes, when they do not."""
    from annosql import model as nn
    from annosql.encoding import Vocabulary
    from annosql.harness import run_train

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 8, n_tables=2, seed=31)
    config = tiny_config(epochs=1, lr=0.0)
    config.tables_path = tables_path
    config.train_path = split_path
    config.embeddings_path = str(tmp_path / "vectors.txt")
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
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


def test_dev_early_stopping_with_patience(tmp_path):
    """With lr=0 the dev score never improves after the first check, so a
    patience of 1 halts training on the second evaluation."""
    from annosql.harness import run_train

    data_dir = tmp_path / "data"
    tables_path, split_path = write_corpus(str(data_dir), 6, n_tables=2, seed=41)
    config = tiny_config(epochs=30, lr=0.0, eval_every=1, patience=1)
    config.tables_path = tables_path
    config.train_path = split_path
    config.dev_path = split_path
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
    _params, _vocab, history, _coverage = run_train(config)
    assert history[-1]["epoch"] == 2


def test_dev_best_parameters_are_the_ones_saved(tmp_path, monkeypatch):
    """Dev acc_qm scripted to peak at the first check: a patience of 1 stops
    training at epoch 2, and the checkpoint holds the parameters of epoch 1."""
    from annosql import harness
    from annosql import model as nn

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 6, n_tables=2, seed=41)
    config = tiny_config(epochs=30, eval_every=1, patience=1)
    config.tables_path = tables_path
    config.train_path = config.dev_path = split_path
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
    scripted_qm = iter([0.5, 0.25])
    monkeypatch.setattr(harness, "evaluate", lambda *_args: SimpleNamespace(acc_qm=next(scripted_qm)))
    _params, vocab, history, _coverage = harness.run_train(config)
    assert [entry["dev_acc_qm"] for entry in history] == [0.5, 0.25]
    saved, _meta = nn.load_checkpoint(config.checkpoint_path, vocab.content_hash())
    tables = table_bundles(load_tables(tables_path))
    examples = prepare_examples(load_wikisql(split_path, tables, None), tables, config)
    pairs, _vocab, _report = build_training_pairs(examples, config)
    first, _hist = train_model(pairs, vocab, replace(config, epochs=1))
    last, _hist = train_model(pairs, vocab, replace(config, epochs=2))
    for name in saved.names():
        assert np.array_equal(saved[name], first[name]), name
    assert not all(np.array_equal(saved[name], last[name]) for name in saved.names())


@pytest.mark.parametrize("checked", [(), ("train",), ("dev",), ("train", "dev")])
def test_check_fields_only_at_check_epochs(tmp_path, checked):
    """An entry carries train_acc_lf, dev_acc_qm and check_seconds only at an
    epoch that is a multiple of eval_every, and only for the checks asked
    for; the log_path lines are the history entries."""
    from annosql.harness import run_train

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 6, n_tables=2, seed=41)
    # with lr 0 the model stays at its random start: train acc_lf never
    # reaches 1, and dev acc_qm stalls for fewer checks than the patience
    config = tiny_config(epochs=5, lr=0.0, eval_every=2, patience=5)
    config.tables_path = tables_path
    config.train_path = split_path
    config.stop_train_acc = 1.0 if "train" in checked else None
    config.dev_path = split_path if "dev" in checked else None
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
    config.log_path = str(tmp_path / "train.log")
    _params, _vocab, history, _coverage = run_train(config)
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
        ('{"clip": -5, "lr": NaN}', "config key 'clip' must be above 0, not -5"),
        ('{"lr": NaN}', "config key 'lr' must be finite, not nan"),
        ('{"lr": 0}', "config key 'lr' must be above 0, not 0"),
        ('{"tau_sim": -Infinity}', "config key 'tau_sim' must be finite, not -inf"),
        ('{"theta_val": 5}', "config key 'theta_val' must be in [0, 1], not 5"),
        ('{"tau_sim": -2}', "config key 'tau_sim' must be in [0, 1], not -2"),
        ('{"tau_ed": 9}', "config key 'tau_ed' must be in [0, 1], not 9"),
        ('{"stop_train_acc": 3.0}', "config key 'stop_train_acc' must be in [0, 1], not 3.0"),
    ],
    ids=[
        "str-for-int", "float-for-int", "bool-for-float", "null-for-str", "str-for-optional", "list",
        "batch-size-zero", "eval-every-zero", "mode-choice", "dtype-choice", "type-dim-range",
        "clip-negative", "lr-nan", "lr-zero", "float-infinite",
        "theta-val-range", "tau-sim-range", "tau-ed-range", "stop-train-acc-range",
    ],
)
def test_malformed_config_fails_at_load(tmp_path, monkeypatch, text, message):
    """`annosql train` rejects a config value of the wrong type, a choice not
    offered, an int out of range or a float out of range, naming the file
    and the key, before it loads any data."""
    from annosql import harness
    from annosql.cli import main

    def no_loading(*_args, **_kwargs):
        raise AssertionError("data loading started")

    monkeypatch.setattr(harness, "load_tables", no_loading)
    config_path = tmp_path / "config.json"
    data = json.loads(text)
    if isinstance(data, dict):
        data.update(tables_path="tables.jsonl", train_path="train.jsonl")
    config_path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"{config_path}: {message}")):
        main(["train", "--config", str(config_path)])


def test_train_log_keeps_epochs_before_a_failure(tmp_path, monkeypatch):
    """A run that fails in epoch 2 leaves epoch 1's line in the log, and the
    error names the epoch and the batch."""
    from annosql import harness
    from annosql import model as nn

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 8, n_tables=2, seed=31)
    config = tiny_config(epochs=3)
    config.tables_path = tables_path
    config.train_path = split_path
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
    config.log_path = str(tmp_path / "train.log")
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

    tables_path, split_path = write_corpus(str(tmp_path / "data"), 6, n_tables=2, seed=41)
    config = tiny_config(epochs=10, eval_every=2, stop_train_acc=0.0)
    config.tables_path = tables_path
    config.train_path = split_path
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")
    _params, _vocab, history, _coverage = run_train(config)
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
    config = tiny_config(epochs=3, eval_every=2)
    config.tables_path = tables_path
    if evaluated == "train":
        config.train_path, config.stop_train_acc = asked_path, 0.99
    else:
        config.train_path, config.dev_path = clean_path, asked_path
    config.checkpoint_path = str(tmp_path / "model.npz")
    config.vocab_path = str(tmp_path / "vocab.txt")

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
    examples = load_wikisql(split_path, tables, None)
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
        return nn.Hypothesis(tuple(by_source[tuple(src_ids)]), -1.0, None)

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
    """A configuration error in decoding ends the evaluation with its own
    message; it is not counted as a failed question."""
    from annosql import model as nn

    config = tiny_config(beam_width=0)
    examples, bundles, _records = generate_corpus(6, 2, 23, config)
    _pairs, vocab, _report = build_training_pairs(examples, config)
    params = nn.init_params(config.model_config(len(vocab)), 0)
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
        return nn.Hypothesis(tuple(by_source[tuple(src_ids)]), -1.0, None)

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
