"""Helpers and brute-force oracles shared by the test modules.

They live outside conftest.py so that test modules import them by a module
name that no other conftest.py on the test path shadows.
"""

from functools import cache

import numpy as np

from annosql import model as nn
from annosql.harness import Config
from annosql.mentions import CandidateMention, Span, _close_rows
from annosql.meta import REAL, ColumnMeta, EmbeddingStore, MetaError, TableSchema
from annosql.text import is_content_token, parse_number


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
    return list(tree.tokens)


def bracketed(tokens, rng):
    """A seeded random binary bracketing of `tokens`, as one tree-file line."""
    if len(tokens) == 1:
        return f"(X {tokens[0]})"
    cut = rng.randrange(1, len(tokens))
    return f"(X {bracketed(tokens[:cut], rng)} {bracketed(tokens[cut:], rng)})"


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
    term vector recomputed per column. The oracle for the multi-column form;
    it reads exact membership from the phrase map, which
    test_phrase_map_matches_the_cells checks against the raw cells."""
    if not term:
        raise ValueError("empty term")
    cstats = stats.column(column.position)
    joined = " ".join(t.casefold() for t in term)
    if column.position in stats.phrases.get(joined, ()):
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


def reference_value_mentions(qtokens, schema, stats, emb, config, column_mentions):
    """detect_value_mentions by brute force: every span of up to
    max_value_span tokens that no column mention contains, scored against
    every column by reference_value_affinity; per column, the hits above
    theta_val kept longest first, then higher score, then earlier, unless
    they overlap one already kept."""
    n = len(qtokens)
    out = []
    for column in schema.columns:
        hits = []
        for start in range(n):
            for end in range(start + 1, min(start + config.max_value_span, n) + 1):
                if any(m.span.start <= start and end <= m.span.end for m in column_mentions):
                    continue
                score = reference_value_affinity(qtokens[start:end], column, stats, emb)
                if score > config.theta_val:
                    hits.append(CandidateMention(Span(start, end), column, score))
        kept = []
        for m in sorted(hits, key=lambda m: (-len(m.span), -m.score, m.span.start)):
            if not any(m.span.overlaps(k.span) for k in kept):
                kept.append(m)
        out.extend(kept)
    return sorted(out, key=lambda m: (m.span.start, m.span.end, m.column.position))


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


def _default_close_rows(qtokens, column, emb):
    content = [tok if is_content_token(tok) else None for tok in qtokens]
    return _close_rows(content, column, emb, Config())


def coverage_count(span, qtokens, column, emb):
    """Number of close pairs between the span's tokens and the column name's,
    under the default Config's thresholds."""
    rows = _default_close_rows(qtokens, column, emb)
    return sum(len(r) for r in rows[span.start : span.end])


def covered_words(span, qtokens, column, emb):
    """Number of distinct column-name words the span covers, under the
    default Config's thresholds."""
    rows = _default_close_rows(qtokens, column, emb)
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


def _reference_gru_forward(x, mask, W, U, b, reverse=False):
    B, S, _ = x.shape
    X3 = x @ W + b
    order = range(S - 1, -1, -1) if reverse else range(S)
    h = np.zeros((B, U.shape[0]), dtype=x.dtype)
    Hseq = np.zeros((B, S, U.shape[0]), dtype=x.dtype)
    steps = []
    for t in order:
        h_new, step = nn._gru_cell(X3[:, t], h, U)
        m = mask[:, t : t + 1]
        h = m * h_new + (1.0 - m) * h
        Hseq[:, t] = h
        steps.append(step)
    return Hseq, h, (x, mask, W, U, order, steps)


def _reference_gru_cell_backward(d_new, cache, U, dU):
    h, z, r, n = cache
    H = h.shape[1]
    dn_pre = d_new * z * (1.0 - n * n)
    dU[:, 2 * H :] += (r * h).T @ dn_pre
    d_rh = dn_pre @ U[:, 2 * H :].T
    dz_pre = d_new * (n - h) * z * (1.0 - z)
    dr_pre = d_rh * h * r * (1.0 - r)
    dzr = np.concatenate([dz_pre, dr_pre], axis=1)
    dU[:, : 2 * H] += h.T @ dzr
    d_h = d_new * (1.0 - z) + d_rh * r + dzr @ U[:, : 2 * H].T
    return np.concatenate([dzr, dn_pre], axis=1), d_h


def _reference_gru_backward(d_hseq, d_hfinal, cache, grads, prefix):
    x, mask, W, U, order, steps = cache
    B, S, H = d_hseq.shape
    dX3 = np.zeros((B, S, 3 * H), dtype=x.dtype)
    dU = grads[prefix + ".U"]
    dh = d_hfinal.copy() if d_hfinal is not None else np.zeros((B, H), dtype=x.dtype)
    for t, step in zip(reversed(order), reversed(steps)):
        dh = dh + d_hseq[:, t]
        m = mask[:, t : t + 1]
        dX3[:, t], d_h = _reference_gru_cell_backward(dh * m, step, U, dU)
        dh = dh * (1.0 - m) + d_h
    x2 = x.reshape(-1, x.shape[-1])
    dX2 = dX3.reshape(-1, 3 * H)
    grads[prefix + ".W"] += x2.T @ dX2
    grads[prefix + ".b"] += dX2.sum(axis=0)
    return dX3 @ W.T


def _reference_encoder_forward(src_ids, params, src_mask):
    x, emb_cache = nn._embed(params, src_ids)
    layer_caches = []
    for l in range(params.config.enc_layers):
        y = x @ params[f"enc{l}.affine.W"] + params[f"enc{l}.affine.b"]
        hf, fwd_final, cf = _reference_gru_forward(
            y, src_mask, *(params[f"enc{l}.fwd.{k}"] for k in "WUb")
        )
        hb, bwd_final, cb = _reference_gru_forward(
            y, src_mask, *(params[f"enc{l}.bwd.{k}"] for k in "WUb"), reverse=True
        )
        layer_caches.append((x, cf, cb))
        x = np.concatenate([hf, hb], axis=2)
    pad_bias = np.where(src_mask > 0, 0.0, nn.NEG_INF).astype(x.dtype)
    copy_index = (np.arange(len(src_ids))[:, None] * params.config.vocab_size + src_ids).reshape(-1)
    return nn.EncoderOutput(
        x, fwd_final, bwd_final, src_mask, src_ids, x @ params["attn.W2"], pad_bias,
        copy_index, (emb_cache, layer_caches),
    )


def _reference_encoder_backward(params, enc, d_states, d_fwd_final, d_bwd_final, grads):
    H = params.config.enc_hidden
    emb_cache, layer_caches = enc.cache
    d_x = d_states
    for l in reversed(range(params.config.enc_layers)):
        x_in, cf, cb = layer_caches[l]
        top = l == params.config.enc_layers - 1
        dy = _reference_gru_backward(
            d_x[:, :, :H], d_fwd_final if top else None, cf, grads, f"enc{l}.fwd"
        )
        dy += _reference_gru_backward(
            d_x[:, :, H:], d_bwd_final if top else None, cb, grads, f"enc{l}.bwd"
        )
        x2 = x_in.reshape(-1, x_in.shape[-1])
        dy2 = dy.reshape(-1, dy.shape[-1])
        grads[f"enc{l}.affine.W"] += x2.T @ dy2
        grads[f"enc{l}.affine.b"] += dy2.sum(axis=0)
        d_x = (dy @ params[f"enc{l}.affine.W"].T).reshape(x_in.shape)
    nn._embed_backward(params, emb_cache, d_x, grads)


def _reference_attention_backward(params, d, enc, tu, alpha, d_beta, d_e_copy, grads, d_states):
    d_alpha = np.einsum("bd,bsd->bs", d_beta, enc.states)
    d_states += alpha[:, :, None] * d_beta[:, None, :]
    d_e = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
    d_e = (d_e + d_e_copy) * enc.mask
    grads["attn.v"] += np.einsum("bsa,bs->a", tu, d_e)
    d_u = d_e[:, :, None] * params["attn.v"][None, None, :] * (1.0 - tu * tu)
    flat_states = enc.states.reshape(-1, enc.states.shape[-1])
    grads["attn.W2"] += flat_states.T @ d_u.reshape(-1, d_u.shape[-1])
    d_states += (d_u @ params["attn.W2"].T).reshape(enc.states.shape)
    dq = d_u.sum(axis=1)
    grads["attn.W3"] += d.T @ dq
    return dq @ params["attn.W3"].T


def reference_loss_and_grad(params, src_ids, src_mask, tgt_in, tgt_out, tgt_mask):
    """loss_and_grad as first written: every recurrent-weight and attention
    gradient product made inside the time loops, one step at a time. The
    oracle for the hoisted backward; returns (loss, grads)."""
    src_ids, tgt_in, tgt_out = (np.asarray(a, dtype=np.int64) for a in (src_ids, tgt_in, tgt_out))
    dt = params.config.np_dtype()
    src_mask, tgt_mask = (np.asarray(a, dtype=dt) for a in (src_mask, tgt_mask))
    B, T = tgt_in.shape
    total_tokens = float(tgt_mask.sum())
    enc = _reference_encoder_forward(src_ids, params, src_mask)
    start = nn.initial_decoder_state(params, enc)
    tgt_emb, tgt_emb_cache = nn._embed(params, tgt_in)
    D, Hd, S = params.config.dim, params.config.dec_hidden, src_ids.shape[1]
    states, caches, loss = [start], [], 0.0
    for t in range(T):
        x3 = tgt_emb[:, t] @ params["dec.W"][:D] + params["dec.b"]
        x3 = x3 + states[-1].beta @ params["dec.W"][D:]
        d, gru_cache = nn._gru_cell(x3, states[-1].d, params["dec.U"])
        e, alpha, beta, tu = nn._attention(params, d, enc)
        probs, out_cache = nn._output_distribution(params, d, beta, e, enc)
        w = tgt_mask[:, t] / total_tokens
        loss += float(np.sum(-np.log(np.maximum(probs[np.arange(B), tgt_out[:, t]], 1e-300)) * w))
        states.append(nn.DecoderState(d, beta))
        caches.append((gru_cache, alpha, tu, out_cache, w))

    grads = nn.zero_grads(params)
    d_states = np.zeros_like(enc.states)
    dX3 = np.zeros((B, T, 3 * Hd), dtype=tgt_emb.dtype)
    carry_d = np.zeros_like(start.d)
    carry_beta = np.zeros_like(start.beta)
    for t in reversed(range(T)):
        gru_cache, alpha, tu, (cat, _logits, el, ee, scores, total), w = caches[t]
        ds = (w / total[:, 0])[:, None] * np.ones_like(scores)
        ds[np.arange(B), tgt_out[:, t]] -= w / scores[np.arange(B), tgt_out[:, t]]
        d_logits = ds * el
        grads["out.U"] += cat.T @ d_logits
        d_cat = d_logits @ params["out.U"].T
        d_e_copy = ds.reshape(-1)[enc.copy_index].reshape(B, S) * ee
        d_d = d_cat[:, :Hd] + _reference_attention_backward(
            params, states[t + 1].d, enc, tu, alpha, d_cat[:, Hd:] + carry_beta, d_e_copy,
            grads, d_states,
        )
        dX3[:, t], carry_d = _reference_gru_cell_backward(
            d_d + carry_d, gru_cache, params["dec.U"], grads["dec.U"]
        )
        carry_beta = dX3[:, t] @ params["dec.W"][D:].T
    inputs = np.concatenate([tgt_emb, np.stack([s.beta for s in states[:-1]], axis=1)], axis=2)
    grads["dec.W"] += inputs.reshape(B * T, -1).T @ dX3.reshape(B * T, -1)
    grads["dec.b"] += dX3.reshape(B * T, -1).sum(axis=0)
    nn._embed_backward(params, tgt_emb_cache, dX3 @ params["dec.W"][:D].T, grads)
    d_d0_pre = carry_d * (1.0 - start.d * start.d)
    grads["W1"] += np.concatenate([enc.fwd_final, enc.bwd_final], axis=1).T @ d_d0_pre
    d_pre = d_d0_pre @ params["W1"].T
    H = params.config.enc_hidden
    _reference_encoder_backward(params, enc, d_states, d_pre[:, :H], d_pre[:, H:], grads)
    return loss, grads


@cache
def finite_difference_gradients(eps=1e-4):
    """Name -> (analytic gradient, central finite difference) on the 64-bit
    toy gradient-check case: seed 1 with large init scales, two source rows
    of which the second is padded after 3 tokens, two target rows of which
    the second is padded after 2. Computed once per session; criterion 5
    and the model unit test both assert on it."""
    cfg = nn.ModelConfig(
        vocab_size=20, dim=8, type_dim=4, enc_hidden=8, enc_layers=2,
        dec_hidden=8, attn_dim=6, max_index=3, dtype="float64",
    )
    params = nn.init_params(cfg, seed=1, weight_scale=0.6, emb_scale=0.6)
    rng = np.random.default_rng(0)
    src = rng.integers(0, 20, size=(2, 5))
    src_mask = np.ones((2, 5))
    src_mask[1, 3:] = 0.0
    tgt_in = rng.integers(0, 20, size=(2, 4))
    tgt_out = rng.integers(0, 20, size=(2, 4))
    tgt_mask = np.ones((2, 4))
    tgt_mask[1, 2:] = 0.0
    batch = (src, src_mask, tgt_in, tgt_out, tgt_mask)
    _loss, grads, _stats = nn.loss_and_grad(params, *batch)
    out = {}
    for name in params.names():
        t = params.tensors[name]
        fd = np.zeros_like(t)
        for i in np.ndindex(t.shape):
            orig = t[i]
            t[i] = orig + eps
            up = nn._teacher_forced(params, *batch)[0]  # the forward alone
            t[i] = orig - eps
            down = nn._teacher_forced(params, *batch)[0]
            t[i] = orig
            fd[i] = (up - down) / (2 * eps)
        out[name] = (grads[name], fd)
    return out
