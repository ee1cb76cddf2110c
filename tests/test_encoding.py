import numpy as np
import pytest

from annosql.encoding import (
    SEP,
    STACK,
    SUBSTITUTE,
    Vocabulary,
    build_vocab,
    encode_question,
    token_strings,
)
from annosql.meta import EMPTY_EMBEDDINGS, EMPTY_LEXICON, Table, build_value_stats
from annosql.resolve import annotate

from support import make_schema


@pytest.fixture
def lebron():
    schema = make_schema("roster", [("Position", "text"), ("Player", "text")])
    table = Table(schema, (("Small Forward", "LeBron James"), ("Point Guard", "Stephen Curry")))
    question = "What position did the player LeBron James play ?"
    ann = annotate(question, schema, build_value_stats(table), EMPTY_LEXICON, EMPTY_EMBEDDINGS)
    return schema, ann


def test_encode_substitute(lebron):
    schema, ann = lebron
    toks = token_strings(encode_question(ann, schema, mode=SUBSTITUTE, headers=False))
    assert " ".join(toks) == "what c1 did the c2 v2 play ?"


def test_encode_stack(lebron):
    schema, ann = lebron
    toks = token_strings(encode_question(ann, schema, mode=STACK, headers=False))
    assert " ".join(toks) == "what c1 position did the c2 player v2 lebron james play ?"


def test_encode_header_suffix(lebron):
    _schema, ann = lebron
    schema5 = make_schema(
        "nominations",
        [
            ("Nomination", "text"),
            ("Actor", "text"),
            ("Film Name", "text"),
            ("Director", "text"),
            ("Nomination Date", "text"),
        ],
    )
    stacked = token_strings(encode_question(ann, schema5, mode=STACK, headers=True))
    suffix = " ".join(stacked[stacked.index(SEP) :])
    assert suffix == "| g1 nomination g2 actor g3 film name g4 director g5 nomination date"
    plain = token_strings(encode_question(ann, schema5, mode=SUBSTITUTE, headers=True))
    assert plain[plain.index(SEP) :] == ["|", "g1", "g2", "g3", "g4", "g5"]


def test_stack_is_lossless(lebron):
    schema, ann = lebron
    stacked = token_strings(encode_question(ann, schema, mode=STACK, headers=False))
    it = iter(stacked)
    assert all(tok in it for tok in ann.tokens)  # subsequence check


def test_substitute_length(lebron):
    schema, ann = lebron
    subbed = encode_question(ann, schema, mode=SUBSTITUTE, headers=False)
    span_total = sum(len(m.span) for m in ann.accepted)
    assert len(subbed) == len(ann.tokens) - span_total + len(ann.accepted)


def test_symbol_surfaces_round_trip(lebron):
    _schema, ann = lebron
    for m in ann.accepted:
        surface = ann.question.surface(m.span)
        if m.family == "v":
            assert ann.symbols.value_surface(m.index) == surface


def test_separator_appears_at_most_once(lebron):
    schema, ann = lebron
    toks = token_strings(encode_question(ann, schema, mode=STACK, headers=True))
    assert toks.count(SEP) == 1
    toks = token_strings(encode_question(ann, schema, mode=STACK, headers=False))
    assert toks.count(SEP) == 0


def test_bad_mode_rejected(lebron):
    schema, ann = lebron
    with pytest.raises(ValueError):
        encode_question(ann, schema, mode="inline")


def test_build_vocab_min_count():
    vocab = build_vocab([["a", "a", "b"]], [], min_count=2)
    assert "a" in vocab.stoi
    assert "b" not in vocab.stoi
    assert vocab.encode(["b"]) == [vocab.unk]


def test_build_vocab_symbols_always_present():
    vocab = build_vocab([["hello"]], [["select", "c1"]], min_count=1, max_index=3)
    for tok in ("c1", "c3", "v2", "g3"):
        assert tok in vocab.stoi
    assert vocab.symbol_parts(vocab.stoi["c2"]) == ("c", 2)
    assert vocab.symbol_parts(vocab.stoi["v1"]) == ("v", 1)
    assert vocab.symbol_parts(vocab.stoi["hello"]) is None


def test_build_vocab_excludes_symbol_lookalike_words():
    vocab = build_vocab([["c1", "word"]], [], min_count=1, max_index=2)
    # the literal word "c1" may not alias the annotation symbol id
    assert vocab.itos.count("c1") == 1
    assert vocab.symbol_parts(vocab.stoi["c1"]) == ("c", 1)


def test_build_vocab_deterministic():
    seqs = [["b", "a"], ["a", "c"]]
    va = build_vocab(seqs, [["select"]], min_count=1)
    vb = build_vocab(seqs, [["select"]], min_count=1)
    assert va.itos == vb.itos
    assert va.content_hash() == vb.content_hash()


def test_build_vocab_empty_corpus():
    with pytest.raises(ValueError):
        build_vocab([], [], min_count=1)


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocab([["alpha", "beta"]], [["select", "c1"]], max_index=4)
    path = tmp_path / "vocab.txt"
    vocab.save(str(path))
    loaded = Vocabulary.load(str(path))
    assert loaded.itos == vocab.itos
    assert loaded.max_index == 4
    assert loaded.content_hash() == vocab.content_hash()


def test_model_symbol_rows_share_halves():
    from annosql import model as nn

    cfg = nn.ModelConfig(vocab_size=90, dim=300, type_dim=150, enc_hidden=4,
                         enc_layers=1, dec_hidden=4, attn_dim=4, max_index=25,
                         dtype="float64")
    params = nn.init_params(cfg, seed=0)
    vocab = build_vocab([["word"]], [], max_index=25)
    ids = np.array([[vocab.stoi["c1"], vocab.stoi["c2"], vocab.stoi["v1"]]])
    emb, _ = nn._embed(params, ids)
    c1, c2, v1 = emb[0]
    assert np.array_equal(c1[:150], c2[:150])  # same annotation type
    assert np.array_equal(c1[150:], v1[150:])  # same index
    assert not np.array_equal(c1[150:], c2[150:])
    # a symbol row is [type part ; index part]
    assert np.array_equal(v1, np.concatenate([params["type_emb"][1], params["index_emb"][0]]))
    assert emb.shape[-1] == 300
