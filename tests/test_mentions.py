import random

import pytest

from annosql.mentions import (
    COVERAGE,
    LEXICON,
    CandidateMention,
    Span,
    Thresholds,
    coverage_count,
    covered_words,
    detect_column_mentions,
    detect_value_mentions,
    edit_closeness,
    embedding_closeness,
    words_close,
)
from annosql.meta import EMPTY_EMBEDDINGS, EMPTY_LEXICON, EmbeddingStore, Table, build_value_stats
from annosql.text import tokenize

from support import levenshtein_oracle, make_schema


def test_edit_closeness_examples():
    assert edit_closeness("film", "film") == 0.0
    assert edit_closeness("a", "b") == 1.0
    assert edit_closeness("actor", "actress") == levenshtein_oracle("actor", "actress") / 7
    assert edit_closeness("actor", "actress") == pytest.approx(4 / 7)
    assert edit_closeness("directed", "director") == levenshtein_oracle("directed", "director") / 8
    assert edit_closeness("directed", "director") == 0.25


def test_edit_closeness_properties_against_oracle():
    rng = random.Random(5)
    alphabet = "abcde"
    for _ in range(300):
        x = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        y = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        c = edit_closeness(x, y)
        assert c == levenshtein_oracle(x, y) / max(len(x), len(y))
        assert 0.0 <= c <= 1.0
        assert c == edit_closeness(y, x)
        if x == y:
            assert c == 0.0


def test_embedding_closeness():
    emb = EmbeddingStore.from_dict({"w": [1.0, 2.0], "neg": [-1.0, -2.0]})
    assert embedding_closeness("w", "w", emb) == pytest.approx(0.0)
    assert embedding_closeness("w", "neg", emb) == pytest.approx(1.0)
    assert embedding_closeness("w", "absent", emb) is None
    assert embedding_closeness("w", "w", None) is None


def test_words_close(actress_emb):
    assert words_close("film", "film", None, 0.5, 0.15)
    assert words_close("directed", "director", None, 0.5, 0.15)
    assert not words_close("xyz", "population", EMPTY_EMBEDDINGS, 0.5, 0.15)
    # actress~actor only via the embedding metric
    assert not words_close("actress", "actor", None, 0.5, 0.15)
    assert words_close("actress", "actor", actress_emb, 0.5, 0.15)


@pytest.fixture
def best_actor(actress_emb):
    schema = make_schema("awards", [("best actor 2011", "text")])
    tokens = tokenize("Who is the best actress of year 2011 ?")
    return schema, tokens, actress_emb


def test_coverage_count_paraphrased_column(best_actor):
    schema, tokens, emb = best_actor
    column = schema.columns[0]
    assert coverage_count(Span(3, 8), tokens, column, emb) == 3
    assert coverage_count(Span(0, 2), tokens, column, emb) == 0
    name = tokenize(column.name)
    assert coverage_count(Span(0, len(name)), name, column, emb) == len(name)


def test_detect_column_mentions_paraphrased_column(best_actor):
    """The span is exactly "best actress of year 2011"; the over- and
    under-extended alternatives must not appear."""
    schema, tokens, emb = best_actor
    mentions = detect_column_mentions(tokens, schema, EMPTY_LEXICON, emb)
    assert [m.span for m in mentions] == [Span(3, 8)]
    assert tokens[3:8] == ["best", "actress", "of", "year", "2011"]
    spans = {m.span for m in mentions}
    assert Span(2, 9) not in spans  # "the best actress of year 2011 ?"
    assert Span(3, 7) not in spans  # "best actress of year"


def test_detect_column_mentions_lexicon(townlands):
    schema, _table, _stats, lexicon, question = townlands
    tokens = tokenize(question)
    mentions = detect_column_mentions(tokens, schema, lexicon, EMPTY_EMBEDDINGS)
    population = [m for m in mentions if m.column.name == "Population"]
    assert len(population) == 1
    assert population[0].source == LEXICON
    assert population[0].span == Span(0, 5)
    assert tokens[0:5] == ["how", "many", "people", "live", "in"]


def test_detect_column_mentions_no_match():
    schema = make_schema("t", [("quarterly revenue", "real")])
    tokens = tokenize("does the moon orbit anything ?")
    assert detect_column_mentions(tokens, schema, EMPTY_LEXICON, EMPTY_EMBEDDINGS) == []


def test_coverage_maximality_by_enumeration(best_actor):
    """Emitted spans cover as many column words as any span does, and every
    proper sub-span covers fewer (checked by brute force)."""
    schema, tokens, emb = best_actor
    column = schema.columns[0]
    [mention] = detect_column_mentions(tokens, schema, EMPTY_LEXICON, emb)
    n = len(tokens)
    full = covered_words(Span(0, n), tokens, column, emb)
    got = covered_words(mention.span, tokens, column, emb)
    assert got == full
    for a in range(mention.span.start, mention.span.end):
        for b in range(a + 1, mention.span.end + 1):
            sub = Span(a, b)
            if sub != mention.span and mention.span.contains(sub):
                assert covered_words(sub, tokens, column, emb) < got


def test_coverage_maximality_random():
    rng = random.Random(11)
    words = ["alpha", "beta", "gamma", "delta", "kappa", "omega", "zeta"]
    for _ in range(50):
        name = " ".join(rng.sample(words, rng.randint(1, 3)))
        schema = make_schema("t", [(name, "text")])
        column = schema.columns[0]
        tokens = [rng.choice(words + ["the", "of", "xx"]) for _ in range(rng.randint(3, 10))]
        mentions = detect_column_mentions(tokens, schema, EMPTY_LEXICON, EMPTY_EMBEDDINGS)
        n = len(tokens)
        full = covered_words(Span(0, n), tokens, column, EMPTY_EMBEDDINGS)
        for m in mentions:
            got = covered_words(m.span, tokens, column, EMPTY_EMBEDDINGS)
            assert got == full >= 1
            # extending one token in either direction never covers more
            if m.span.start > 0:
                assert covered_words(Span(m.span.start - 1, m.span.end), tokens, column, EMPTY_EMBEDDINGS) == got
            if m.span.end < n:
                assert covered_words(Span(m.span.start, m.span.end + 1), tokens, column, EMPTY_EMBEDDINGS) == got
            for a in range(m.span.start, m.span.end):
                for b in range(a + 1, m.span.end + 1):
                    sub = Span(a, b)
                    if sub != m.span:
                        assert covered_words(sub, tokens, column, EMPTY_EMBEDDINGS) < got


def test_detect_value_mentions_exact(film_awards):
    schema, _table, stats, _lex, question = film_awards
    tokens = tokenize(question)
    mentions = detect_value_mentions(tokens, schema, stats, EMPTY_EMBEDDINGS)
    actor_hits = [m for m in mentions if m.column.name == "Actor"]
    assert len(actor_hits) == 1
    assert actor_hits[0].span == Span(7, 9)
    assert actor_hits[0].score == 1.0


def test_detect_value_mentions_unmentioned_column(townlands):
    schema, _table, stats, _lex, question = townlands
    tokens = tokenize(question)
    mentions = detect_value_mentions(tokens, schema, stats, EMPTY_EMBEDDINGS)
    county_hits = [m for m in mentions if m.column.name == "County"]
    assert [m.span for m in county_hits] == [Span(5, 6)]
    assert tokens[5] == "mayo"


def test_detect_value_mentions_preserves_ambiguity():
    schema = make_schema("stats", [("player", "text"), ("rebounds", "real"), ("points", "real")])
    table = Table(
        schema,
        (("LeBron James", "2", "9"), ("Kobe Bryant", "7", "3"), ("Tim Duncan", "11", "1")),
    )
    stats = build_value_stats(table)
    tokens = tokenize("for which player his rebounds is 2 and points is 3 ?")
    mentions = detect_value_mentions(tokens, schema, stats, EMPTY_EMBEDDINGS)
    two = {m.column.name for m in mentions if tokens[m.span.start] == "2" and len(m.span) == 1}
    three = {m.column.name for m in mentions if tokens[m.span.start] == "3" and len(m.span) == 1}
    assert two == {"rebounds", "points"}
    assert three == {"rebounds", "points"}


def test_detect_value_mentions_skips_inside_column_mentions(townlands):
    schema, _table, stats, lexicon, question = townlands
    tokens = tokenize(question)
    col_mentions = detect_column_mentions(tokens, schema, lexicon, EMPTY_EMBEDDINGS)
    inside = CandidateMention(Span(5, 6), "column", schema.columns[0], 1.0, COVERAGE)
    mentions = detect_value_mentions(
        tokens, schema, stats, EMPTY_EMBEDDINGS, column_mentions=list(col_mentions) + [inside]
    )
    assert not any(m.span == Span(5, 6) for m in mentions)


def test_detect_value_mentions_keeps_maximal_spans():
    schema = make_schema("t", [("name", "text")])
    table = Table(schema, (("john smith",), ("john",)))
    stats = build_value_stats(table)
    tokens = tokenize("is john smith here ?")
    mentions = detect_value_mentions(tokens, schema, stats, EMPTY_EMBEDDINGS)
    # "john smith" [1,3) and "john" [1,2) both exact-match; only the longer stays
    assert [m.span for m in mentions] == [Span(1, 3)]


def test_detection_determinism(townlands, actress_emb):
    schema, _table, stats, lexicon, question = townlands
    tokens = tokenize(question)
    a = detect_column_mentions(tokens, schema, lexicon, actress_emb)
    b = detect_column_mentions(tokens, schema, lexicon, actress_emb)
    assert a == b
    va = detect_value_mentions(tokens, schema, stats, actress_emb, column_mentions=a)
    vb = detect_value_mentions(tokens, schema, stats, actress_emb, column_mentions=b)
    assert va == vb


def test_span_validation():
    with pytest.raises(ValueError):
        Span(3, 3)
    with pytest.raises(ValueError):
        Span(-1, 2)
    assert Span(1, 4).overlaps(Span(3, 5))
    assert not Span(1, 4).overlaps(Span(4, 5))
    assert Span(1, 4).contains(Span(2, 3))


def test_mention_score_bounds():
    with pytest.raises(ValueError):
        CandidateMention(Span(0, 1), "column", None, 1.5, COVERAGE)
    with pytest.raises(ValueError):
        CandidateMention(Span(0, 1), "column", None, 0.5, "exact_value")


def test_thresholds_configurable():
    strict = Thresholds(tau_ed=0.1, tau_sim=0.01)
    assert not words_close("directed", "director", None, strict.tau_ed, strict.tau_sim)
