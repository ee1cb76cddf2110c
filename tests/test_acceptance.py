"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured time so the gate is auditable at a glance.

Budgets are wall-clock upper bounds from the requirements; the checks
themselves are exact (or the stated tolerance).
"""

import random
import time

import numpy as np
import pytest

from annosql import model as nn
from annosql.harness import (
    Config,
    build_training_pairs,
    load_wikisql,
    prepare_examples,
    table_bundles,
    train_model,
)
from annosql.mentions import Span, detect_column_mentions
from annosql.meta import EMPTY_EMBEDDINGS, EMPTY_LEXICON, load_phrase_lexicon, load_tables
from annosql.resolve import kuhn_match
from annosql.sqlgen import (
    ConcreteSql,
    execute,
    resolve_symbols,
    serialize_sketch,
    sql_tokens,
)
from annosql.synth import generate_corpus

from support import finite_difference_gradients, greedy_decode, make_schema, matching_oracle
from test_harness import write_film_and_townland_fixtures
from test_sqlgen import naive_execute, random_query, random_table


def report(criterion, started, budget, detail=""):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s (budget {budget}s)"
    print(f"ACCEPTANCE {criterion}: PASS in {elapsed:.2f}s {detail}".rstrip())


def test_criterion_1_fixture_questions(tmp_path):
    """Both fixture questions annotate to the same sketch and execute to
    the right cells."""
    started = time.monotonic()
    tables_path, split_path, lex_path = write_film_and_townland_fixtures(tmp_path)
    config = Config()
    tables = table_bundles(load_tables(tables_path))
    examples = load_wikisql(split_path, tables, None)
    lexicon = load_phrase_lexicon(lex_path)
    prepare_examples(examples, tables, config, lexicon, EMPTY_EMBEDDINGS)

    expected = {"film_awards": ("Chopin: Desire for Love",), "townlands": ("356",)}
    for ex in examples:
        assert ex.aligned is not None, ex.alignment_error
        assert serialize_sketch(ex.aligned) == "SELECT c1 WHERE c2 = v2 AND c3 = v3"
        concrete = resolve_symbols(ex.aligned, ex.annotation.symbols, tables[ex.table_id].schema)
        result = execute(concrete, tables[ex.table_id].table)
        assert result.values == expected[ex.table_id]
    report(1, started, 1.0)


def test_criterion_2_mention_detection_fixture(actress_emb):
    """A question paraphrasing a "best actor 2011" column yields exactly
    one span and rejects the over- and under-extended alternatives."""
    started = time.monotonic()
    schema = make_schema("awards", [("best actor 2011", "text")])
    tokens = "who is the best actress of year 2011 ?".split()
    mentions = detect_column_mentions(tokens, schema, EMPTY_LEXICON, actress_emb, Config())
    assert [m.span for m in mentions] == [Span(3, 8)]
    assert tokens[3:8] == ["best", "actress", "of", "year", "2011"]
    spans = {m.span for m in mentions}
    assert Span(2, 9) not in spans and Span(3, 7) not in spans
    report(2, started, 1.0)


def test_criterion_3_mbm_oracle():
    """Matching cardinality equals brute force on 1000 random graphs."""
    started = time.monotonic()
    rng = random.Random(7)
    for _ in range(1000):
        n_left, n_right = rng.randint(0, 6), rng.randint(1, 6)
        adjacency = tuple(
            tuple(sorted(rng.sample(range(n_right), rng.randint(0, n_right))))
            for _ in range(n_left)
        )
        assert len(kuhn_match(adjacency, range(n_left))) == matching_oracle(adjacency, n_right)
    report(3, started, 10.0, "(1000 graphs)")


def test_criterion_4_execution_oracle():
    """The mini engine matches a naive row-scan oracle on 1000 pairs."""
    started = time.monotonic()
    rng = random.Random(4242)
    for _ in range(1000):
        schema, table = random_table(rng)
        sql = random_query(rng, schema, table)
        assert execute(sql, table) == naive_execute(sql, table)
    report(4, started, 10.0, "(1000 queries)")


def test_criterion_5_gradient_check():
    """Analytic gradients match central finite differences within 1e-4
    relative error on the 64-bit toy configuration."""
    started = time.monotonic()
    worst = ("", 0.0)
    for name, (g, fd) in finite_difference_gradients().items():
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4, f"{name}: {rel:.3e}"
        if rel > worst[1]:
            worst = (name, rel)
    report(5, started, 60.0, f"(worst {worst[0]} at {worst[1]:.1e})")


def test_criterion_6_overfit_smoke():
    """200 aligned WikiSQL-format examples reach >= 95% training-set
    sequence accuracy within 300 epochs."""
    started = time.monotonic()
    config = Config(
        dim=96, type_dim=48, enc_hidden=64, enc_layers=2, dec_hidden=128, attn_dim=64,
        batch_size=32, lr=2e-3, epochs=300, seed=11, dtype="float32",
        beam_width=5, eval_every=20, stop_train_acc=0.95,
    )
    examples, bundles, _records = generate_corpus(200, n_tables=20, seed=7, config=config)
    pairs, vocab, coverage = build_training_pairs(examples, config)
    assert coverage["aligned"] == 200

    _params, history = train_model(pairs, vocab, config, bundles, train=examples)
    checks = " ".join(f"{e['epoch']}:{e['train_acc_lf']:.3f}" for e in history if "train_acc_lf" in e)
    last = history[-1]
    assert last["epoch"] <= 300
    assert last["train_acc_lf"] >= 0.95, f"train acc_lf {last['train_acc_lf']:.3f} ({checks})"
    detail = f"(acc_lf {last['train_acc_lf']:.3f} at epoch {last['epoch']}; checks {checks})"
    report(6, started, 1800.0, detail)


def test_criterion_7_metric_implications():
    """lf implies qm and qm implies ex over 10000 randomized pairs, with
    permutation pairs giving (lf=False, qm=True)."""
    from annosql.harness import acc_ex, acc_lf, acc_qm
    from test_harness import _jitter_case, _random_concrete

    started = time.monotonic()
    rng = random.Random(777)
    permutations = 0
    for i in range(10_000):
        schema, table = random_table(rng, f"t{i % 5}")
        gold = _random_concrete(rng, schema, table)
        mode = rng.random()
        if mode < 0.25:
            pred = gold
        elif mode < 0.5:
            conds = list(gold.conds)
            rng.shuffle(conds)
            pred = ConcreteSql(gold.agg, gold.select, tuple(conds), gold.table_id)
        elif mode < 0.6:
            pred = _jitter_case(gold, rng)
        elif mode < 0.7:
            pred = None
        else:
            pred = _random_concrete(rng, schema, table)
        lf = acc_lf(sql_tokens(pred) if pred else None, sql_tokens(gold))
        qm = acc_qm(pred, gold)
        ex = acc_ex(pred, gold, table)
        assert not (lf and not qm)
        assert not (qm and not ex)
        if 0.25 <= mode < 0.5 and pred is not None and sql_tokens(pred) != sql_tokens(gold):
            permutations += 1
            assert (lf, qm) == (False, True)
    assert permutations > 100
    report(7, started, 30.0, f"(10000 pairs, {permutations} permutations)")


def test_criterion_8_beam_sanity():
    """Width-1 beam equals greedy; width-5 log-probability is never below
    width-1 over 100 random draws."""
    started = time.monotonic()
    cfg = nn.ModelConfig(
        vocab_size=20, dim=8, type_dim=4, enc_hidden=8, enc_layers=2,
        dec_hidden=8, attn_dim=6, max_index=3, dtype="float64",
    )
    for i in range(100):
        params = nn.init_params(cfg, seed=500 + i, weight_scale=0.4)
        src = np.random.default_rng(i).integers(5, 20, size=(6,))
        h1 = nn.beam_search(src, params, width=1, max_len=8, bos_id=2, eos_id=3)
        toks, logp = greedy_decode(src, params, max_len=8, bos_id=2, eos_id=3)
        assert h1.tokens == tuple(toks)
        assert h1.logp == pytest.approx(logp, abs=1e-12)
        h5 = nn.beam_search(src, params, width=5, max_len=8, bos_id=2, eos_id=3)
        assert h5.logp >= h1.logp - 1e-9
    report(8, started, 60.0, "(100 draws)")


def test_criterion_9_full_scale_run_documented():
    """Reproducing the published full-corpus numbers needs hours of
    training on the real corpus with pre-trained vectors; the repo must
    document that exact run and its expected accuracy band."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert "full-scale" in readme.casefold()
    assert "82.2" in readme and "2.0" in readme
    assert "annosql train" in readme
    print("ACCEPTANCE 9: documented stretch goal (not run at desk scale)")
