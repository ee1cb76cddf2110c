import io
import json
import random

import numpy as np
import pytest

from annosql.harness import (
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
    train_model,
    translate_example,
)
from annosql.meta import EMPTY_EMBEDDINGS, Table
from annosql.sqlgen import ConcreteSql, serialize_sketch, sketch_tokens, sql_tokens
from annosql.synth import generate_corpus, write_corpus

from support import make_schema

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
    examples, tables = load_wikisql(split_path, tables_path)
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
    examples, _tables = load_wikisql(str(empty), tables_path)
    assert examples == []


def test_load_wikisql_dangling_table_id(tmp_path):
    tables_path, _split, _lex = write_film_and_townland_fixtures(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({**FILM_AWARDS_RECORD, "table_id": "ghost"}) + "\n")
    with pytest.raises(ValueError, match="ghost"):
        load_wikisql(str(bad), tables_path)


def test_gold_from_wikisql_codes():
    schema = make_schema("t", [("A", "text"), ("B", "real")])
    gold = gold_from_wikisql({"sel": 1, "agg": 3, "conds": [[0, 1, 5]]}, schema, "t")
    assert gold.agg == "COUNT"
    assert gold.conds == (("A", ">", "5"),)


def film_fixtures_prepared(tmp_path, config=None):
    from annosql.meta import load_phrase_lexicon

    tables_path, split_path, lex_path = write_film_and_townland_fixtures(tmp_path)
    config = config or Config()
    examples, tables = load_wikisql(split_path, tables_path)
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
    config = Config()
    examples, bundles, records = generate_corpus(30, n_tables=6, seed=3, config=config)
    assert len(examples) == 30
    from annosql.sqlgen import canonicalize, resolve_symbols

    for ex in examples:
        assert ex.aligned is not None
        back = resolve_symbols(ex.aligned, ex.annotation.symbols, bundles[ex.table_id].schema)
        assert canonicalize(back) == canonicalize(ex.gold)


def test_synth_write_corpus_round_trip(tmp_path):
    tables_path, split_path = write_corpus(str(tmp_path), 10, n_tables=4, seed=5)
    examples, tables = load_wikisql(split_path, tables_path)
    assert len(examples) == 10
    config = Config()
    prepare_examples(examples, tables, config)
    pairs, _vocab, report = build_training_pairs(examples, config)
    assert report["aligned"] == 10


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
        return [{k: v for k, v in e.items() if k != "seconds"} for e in history]

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
    log_lines = [json.loads(l) for l in open(config.log_path) if l.strip()]
    assert {"epoch", "loss", "token_accuracy", "seconds"} <= set(log_lines[0])

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
    assert "symbols" not in translated or True
    assert "annotation" in translated

    out_ann = tmp_path / "ann.jsonl"
    assert main([
        "annotate",
        "--tables", tables_path,
        "--in", split_path,
        "--out", str(out_ann),
    ]) == 0
    annotated = [json.loads(l) for l in open(out_ann)]
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


def test_repl_survives_question_with_no_tokens(tmp_path):
    """Without header slots a question of only punctuation encodes to an
    empty source; the repl reports it and goes on to the next line."""
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
    assert lines[0] == {"error": "empty source sequence"}
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


def test_attach_trees_by_line_number(tmp_path):
    from annosql.harness import attach_trees

    tables_path, split_path, _lex = write_film_and_townland_fixtures(tmp_path)
    examples, _tables = load_wikisql(split_path, tables_path)
    trees_path = tmp_path / "trees.txt"
    trees_path.write_text("(S (A x) (B y))\n\n")
    attach_trees(examples, str(trees_path))
    assert examples[0].tree is not None and examples[0].tree.tokens == ["x", "y"]
    assert examples[1].tree is None


def test_attach_trees_rejects_wrong_line_count(tmp_path):
    from annosql.harness import attach_trees

    tables_path, split_path, _lex = write_film_and_townland_fixtures(tmp_path)
    examples, _tables = load_wikisql(split_path, tables_path)
    trees_path = tmp_path / "trees.txt"
    for text, n in (("(S (A x) (B y))\n", 1), ("\n\n\n", 3)):
        trees_path.write_text(text)
        with pytest.raises(ValueError, match=f"trees.txt: {n} tree lines for 2 questions"):
            attach_trees(examples, str(trees_path))
    assert all(ex.tree is None for ex in examples)


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
