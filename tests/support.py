"""Helpers and brute-force oracles shared by the test modules.

They live outside conftest.py so that test modules import them by a module
name that no other conftest.py on the test path shadows.
"""

import numpy as np

from annosql import model as nn
from annosql.harness import Config
from annosql.mentions import _close_rows
from annosql.meta import REAL, ColumnMeta, EmbeddingStore, MetaError, TableSchema
from annosql.text import parse_number


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


def tree_tokens(tree):
    """The leaf tokens of a ConstituencyTree, left to right."""
    return [leaf.token for leaf in tree.leaves]


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


def reference_value_affinity(term, column, stats, emb):
    """value_affinity as first written, for one column: every check and the
    term vector recomputed per column. The oracle for the multi-column form."""
    if not term:
        raise ValueError("empty term")
    cstats = stats.column(column.position)
    joined = " ".join(t.casefold() for t in term)
    if joined in cstats.normalized:
        return 1.0
    num = None
    if len(term) == 1 or (len(term) == 2 and term[0] == "-"):
        num = parse_number("".join(term))
    if num is not None and column.col_type == REAL:
        rng = cstats.numeric_range
        return 1.0 if rng is not None and rng[0] <= num <= rng[1] else 0.0
    if emb.dim == 0:
        return 0.0
    tvec = emb.mean(t.casefold() for t in term)
    if tvec is None:
        return 0.0
    tnorm = np.linalg.norm(tvec)
    if tnorm == 0:
        return 0.0
    cells = stats.cell_embeddings(column.position, emb)
    if cells.shape[0] == 0:
        return 0.0
    best = float(np.max(cells @ (tvec / tnorm)))
    return min(1.0, max(0.0, (best + 1.0) / 2.0))


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


def coverage_count(span, qtokens, column, emb):
    """Number of close pairs between the span's tokens and the column name's,
    under the default Config's thresholds."""
    rows = _close_rows(qtokens, column, emb, Config())
    return sum(len(r) for r in rows[span.start : span.end])


def covered_words(span, qtokens, column, emb):
    """Number of distinct column-name words the span covers, under the
    default Config's thresholds."""
    rows = _close_rows(qtokens, column, emb, Config())
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


def _reference_attention(params, d, enc, hw2):
    tu = np.tanh(hw2 + (d @ params["attn.W3"])[:, None, :])
    e_raw = tu @ params["attn.v"]
    e = np.where(enc.mask > 0, e_raw, nn.NEG_INF)
    shift = e.max(axis=1, keepdims=True)
    ee_att = np.exp(e - shift) * enc.mask
    alpha = ee_att / ee_att.sum(axis=1, keepdims=True)
    return e, np.einsum("bs,bsd->bd", alpha, enc.states)


def _reference_output_distribution(params, d, beta, e, enc):
    logits = np.concatenate([d, beta], axis=1) @ params["out.U"]
    valid_e = np.where(enc.mask > 0, e, nn.NEG_INF)
    shift = np.maximum(logits.max(axis=1), valid_e.max(axis=1))
    scores = np.exp(logits - shift[:, None])
    ee = np.exp(valid_e - shift[:, None]) * enc.mask
    rows = np.repeat(np.arange(scores.shape[0]), enc.src_ids.shape[1])
    np.add.at(scores, (rows, enc.src_ids.reshape(-1)), ee.reshape(-1))
    return scores / scores.sum(axis=1, keepdims=True)


def reference_decoder_step(prev_ids, state, enc, params):
    """The decoder step as first written: every product recomputed per call,
    the full input projection on [embed(prev); beta]. The oracle for the
    hoisted decoder_step."""
    prev_ids = np.asarray(prev_ids, dtype=np.int64).reshape(-1, 1)
    emb, _ = nn._embed(params, prev_ids)
    inp = np.concatenate([emb[:, 0, :], state.beta], axis=1)
    d_new, _ = nn._gru_cell(inp @ params["dec.W"] + params["dec.b"], state.d, params["dec.U"])
    e, beta = _reference_attention(params, d_new, enc, enc.states @ params["attn.W2"])
    probs = _reference_output_distribution(params, d_new, beta, e, enc)
    return nn.DecoderState(d_new, beta), probs


def reference_beam_search(src_ids, params, width, max_len, bos_id, eos_id):
    """beam_search as first written, on reference_decoder_step: per-candidate
    float logs and a per-hypothesis sort. The oracle for the trimmed beam."""
    enc = nn.encoder_forward(src_ids, params)
    beam = [nn.Hypothesis((), 0.0, nn.initial_decoder_state(params, enc))]
    done = []
    for _ in range(max_len):
        candidates = []
        for rank, hyp in enumerate(beam):
            prev = hyp.tokens[-1] if hyp.tokens else bos_id
            state, probs = reference_decoder_step([prev], hyp.state, enc, params)
            p = probs[0]
            k = min(width, p.shape[0])
            top = np.argpartition(-p, k - 1)[:k]
            for tok in sorted(top, key=lambda i: (-p[i], i)):
                logp = hyp.logp + float(np.log(max(p[tok], 1e-300)))
                candidates.append((logp, int(tok), rank, state))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        beam_next = []
        for logp, tok, rank, state in candidates:
            if len(beam_next) >= width:
                break
            parent = beam[rank]
            if tok == eos_id:
                done.append(nn.Hypothesis(parent.tokens, logp, state))
            else:
                beam_next.append(nn.Hypothesis(parent.tokens + (tok,), logp, state))
        beam = beam_next
        if not beam:
            break
    return max(done or beam, key=lambda h: (h.logp, -len(h.tokens)))
