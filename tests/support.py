"""Helpers and brute-force oracles shared by the test modules.

They live outside conftest.py so that test modules import them by a module
name that no other conftest.py on the test path shadows.
"""

import numpy as np

from annosql import model as nn
from annosql.mentions import DEFAULT_THRESHOLDS, _close_rows
from annosql.meta import ColumnMeta, EmbeddingStore, MetaError, TableSchema


def make_schema(table_id, cols):
    return TableSchema(table_id, tuple(ColumnMeta(n, t, i) for i, (n, t) in enumerate(cols)))


def embedding_store(mapping):
    """An EmbeddingStore over a word -> vector dict; all vectors one size."""
    vecs = {w: np.asarray(v, dtype=float) for w, v in mapping.items()}
    dims = {v.shape for v in vecs.values()}
    if len(dims) > 1:
        raise MetaError(f"inconsistent embedding dimensions: {sorted(dims)}")
    dim = next(iter(dims))[0] if dims else 0
    return EmbeddingStore(vecs, dim)


def levenshtein_oracle(a, b):
    """Independent recursive-with-memo edit distance for cross-checking."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return d(len(a), len(b))


def matching_oracle(adjacency, n_right):
    """Exhaustive maximum-matching cardinality via bitmask recursion."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(i, used):
        if i == len(adjacency):
            return 0
        out = best(i + 1, used)
        for r in adjacency[i]:
            bit = 1 << r
            if not used & bit:
                out = max(out, 1 + best(i + 1, used | bit))
        return out

    return best(0, 0)


def coverage_count(span, qtokens, column, emb, thresholds=DEFAULT_THRESHOLDS):
    """Number of close pairs between the span's tokens and the column name's."""
    rows = _close_rows(qtokens, column, emb, thresholds)
    return sum(len(r) for r in rows[span.start : span.end])


def covered_words(span, qtokens, column, emb, thresholds=DEFAULT_THRESHOLDS):
    """Number of distinct column-name words the span covers."""
    rows = _close_rows(qtokens, column, emb, thresholds)
    return len(frozenset().union(*rows[span.start : span.end]))


def greedy_decode(src_ids, params, max_len, bos_id, eos_id, src_mask=None):
    """Plain argmax decoding; the beam-width-1 reference."""
    enc = nn.encoder_forward(src_ids, params, src_mask)
    state = nn.initial_decoder_state(params, enc)
    tokens = []
    logp = 0.0
    prev = bos_id
    for _ in range(max_len):
        state, probs = nn.decoder_step([prev], state, enc, params)
        tok = int(probs[0].argmax())
        logp += float(np.log(max(probs[0][tok], 1e-300)))
        if tok == eos_id:
            return tokens, logp
        tokens.append(tok)
        prev = tok
    return tokens, logp
