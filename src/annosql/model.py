"""Sequence translation model: stacked bi-directional GRU encoder with
per-layer affine pre-transforms, a one-layer attentive GRU decoder, and a
copy mechanism that adds exp(attention energy) mass to source tokens.

Everything is plain numpy with hand-written backpropagation so gradients
can be verified against finite differences. Parameters are immutable during
inference; a training step owns them exclusively.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

NEG_INF = -1e30
DTYPES = {"float32": np.float32, "float64": np.float64}  # ModelConfig.dtype -> numpy type


class ModelError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    dim: int  # embedding size D
    type_dim: int  # symbol type part D'; index part is dim - type_dim
    enc_hidden: int  # per direction
    enc_layers: int
    dec_hidden: int
    attn_dim: int
    max_index: int
    dtype: str
    n_specials: int = 5

    def np_dtype(self):
        if self.dtype not in DTYPES:
            raise ModelError(f"dtype must be one of {tuple(DTYPES)}, not {self.dtype!r}")
        return DTYPES[self.dtype]

    def to_dict(self):
        return asdict(self)


def _sigmoid_inplace(x):
    """Overwrite x with 0.5 * (1 + tanh(x / 2))."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5


class ModelParams:
    """Named tensors plus the layout metadata needed to use them."""

    def __init__(self, config, tensors):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name):
        return self.tensors[name]

    def names(self):
        return list(self.tensors)

    def clone(self):
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


def _param_shapes(config):
    """Name -> shape of every tensor, in the order init_params draws them."""
    D, H, Hd, A = config.dim, config.enc_hidden, config.dec_hidden, config.attn_dim
    shapes = {
        "emb": (config.vocab_size, D),
        "type_emb": (3, config.type_dim),
        "index_emb": (config.max_index, D - config.type_dim),
    }
    for l in range(config.enc_layers):
        shapes[f"enc{l}.affine.W"] = (D if l == 0 else 2 * H, H)
        shapes[f"enc{l}.affine.b"] = (H,)
        for direction in ("fwd", "bwd"):
            shapes[f"enc{l}.{direction}.W"] = (H, 3 * H)
            shapes[f"enc{l}.{direction}.U"] = (H, 3 * H)
            shapes[f"enc{l}.{direction}.b"] = (3 * H,)
    shapes["W1"] = (2 * H, Hd)
    shapes["dec.W"] = (D + 2 * H, 3 * Hd)
    shapes["dec.U"] = (Hd, 3 * Hd)
    shapes["dec.b"] = (3 * Hd,)
    shapes["attn.W2"] = (2 * H, A)
    shapes["attn.W3"] = (Hd, A)
    shapes["attn.v"] = (A,)
    shapes["out.U"] = (Hd + 2 * H, config.vocab_size)
    return shapes


def init_params(config, seed, weight_scale=0.08, emb_scale=0.1):
    """Fresh parameters drawn from `seed`.

    `weight_scale` sets the uniform init range; gradient-check setups want
    a larger value than training so gradients stay resolvable by finite
    differences. Biases start at zero.
    """
    rng = np.random.default_rng(seed)
    dt = config.np_dtype()
    if not 0 < config.type_dim < config.dim:
        raise ModelError("type_dim must split dim into two non-empty parts")
    tensors = {}
    for name, shape in _param_shapes(config).items():
        if name.endswith(".b"):
            tensors[name] = np.zeros(shape, dtype=dt)
        else:
            scale = emb_scale if name in ("emb", "type_emb", "index_emb") else weight_scale
            tensors[name] = rng.uniform(-scale, scale, size=shape).astype(dt)
    return ModelParams(config, tensors)


def _embed(params, ids):
    """Embedding lookup with composed symbol rows.

    Symbol ids take [type_emb(family) ; index_emb(index)] so e.g. c1 and c2
    share their type half while c1 and v1 share their index half.
    """
    cfg = params.config
    lo = cfg.n_specials
    hi = lo + 3 * cfg.max_index
    flat = ids.reshape(-1)
    out = params["emb"][flat]
    sym = (flat >= lo) & (flat < hi)
    rel = flat[sym] - lo
    fam = rel // cfg.max_index
    idx = rel % cfg.max_index
    if rel.size:
        out[sym] = np.concatenate(
            [params["type_emb"][fam], params["index_emb"][idx]], axis=1
        )
    cache = (flat, sym, fam, idx, ids.shape)
    return out.reshape(ids.shape + (cfg.dim,)), cache


def _embed_backward(params, cache, d_out, grads):
    cfg = params.config
    flat, sym, fam, idx, _shape = cache
    d_flat = d_out.reshape(len(flat), cfg.dim)
    nonsym = ~sym
    np.add.at(grads["emb"], flat[nonsym], d_flat[nonsym])
    if sym.any():
        d_sym = d_flat[sym]
        np.add.at(grads["type_emb"], fam, d_sym[:, : cfg.type_dim])
        np.add.at(grads["index_emb"], idx, d_sym[:, cfg.type_dim :])


def _gru_cell(x3, h, U):
    """One GRU step of the encoder or the decoder.

    x3 = x @ W + b is the input projection, computed outside the recurrence;
    returns the new state and the cache _gru_cell_backward needs.
    """
    H = h.shape[1]
    zr = h @ U[:, : 2 * H]
    zr += x3[:, : 2 * H]
    _sigmoid_inplace(zr)
    z, r = zr[:, :H], zr[:, H:]
    n = np.tanh(x3[:, 2 * H :] + (r * h) @ U[:, 2 * H :])
    return (1.0 - z) * h + z * n, (h, z, r, n)


def _transposed(W):
    """W.T as a contiguous array, for the backward's products by a weight's
    transpose. At the criterion-6 sizes, numpy with OpenBLAS multiplies by a
    transposed view 1.5-2.5x slower than by a contiguous copy, so each
    backward pass makes the copy once."""
    return np.ascontiguousarray(W.T)


def _gru_cell_backward(d_new, cache, U_T):
    """Backward of _gru_cell: returns (d_x3, d_h). U_T is U.T made
    contiguous once per pass (see _transposed). The U gradient is linear in
    d_x3, so _gru_weight_grad forms it once for all steps."""
    h, z, r, n = cache
    H = h.shape[1]
    dn_pre = d_new * z * (1.0 - n * n)
    d_rh = dn_pre @ U_T[2 * H :]
    dz_pre = d_new * (n - h) * z * (1.0 - z)
    dr_pre = d_rh * h * r * (1.0 - r)
    dzr = np.concatenate([dz_pre, dr_pre], axis=1)
    d_h = d_new * (1.0 - z) + d_rh * r + dzr @ U_T[: 2 * H]
    return np.concatenate([dzr, dn_pre], axis=1), d_h


def _gru_weight_grad(caches, dX3, dU):
    """Add the U gradient of a run of GRU steps, where caches[t] is step t's
    cache and dX3[:, t] its d_x3: two matmuls over the stacked steps."""
    H = dU.shape[0]
    h = np.stack([c[0] for c in caches], axis=1).reshape(-1, H)
    r = np.stack([c[2] for c in caches], axis=1).reshape(-1, H)
    dX = dX3.reshape(-1, 3 * H)
    dU[:, : 2 * H] += h.T @ dX[:, : 2 * H]
    dU[:, 2 * H :] += (r * h).T @ dX[:, 2 * H :]


def _gru_forward(x, W, U, b):
    """One left-to-right GRU pass over a batch x: (B, S, G).

    Returns the states (B, S, H) and the cache _gru_backward reads. It
    leaves x out, so the encoder's reversed input is not held through the
    decoder's backward, where training memory peaks.
    """
    B, S, _ = x.shape
    X3 = x @ W + b
    h = np.zeros((B, U.shape[0]), dtype=x.dtype)
    Hseq = np.empty((B, S, U.shape[0]), dtype=x.dtype)
    steps = [None] * S  # steps[t] is the cache of step t
    for t in range(S):
        h, steps[t] = _gru_cell(X3[:, t], h, U)
        Hseq[:, t] = h
    return Hseq, (W, U, steps)


def _gru_backward(d_hseq, x, cache, grads, prefix):
    """Backward pass matching _gru_forward(x, ...); returns d_x."""
    W, U, steps = cache
    B, S, H = d_hseq.shape
    dX3 = np.empty((B, S, 3 * H), dtype=x.dtype)
    dh = np.zeros((B, H), dtype=x.dtype)
    U_T = _transposed(U)
    for t in reversed(range(S)):
        dX3[:, t], dh = _gru_cell_backward(dh + d_hseq[:, t], steps[t], U_T)
    _gru_weight_grad(steps, dX3, grads[prefix + ".U"])
    x2 = x.reshape(-1, x.shape[-1])
    dX2 = dX3.reshape(-1, 3 * H)
    grads[prefix + ".W"] += x2.T @ dX2
    grads[prefix + ".b"] += dX2.sum(axis=0)
    return dX3 @ _transposed(W)


@dataclass
class EncoderOutput:
    """Encoder states plus the per-question constants every decoder step reads."""

    states: np.ndarray  # (B, S, 2H) top-layer concatenated states
    fwd_final: np.ndarray  # (B, H) forward state at each row's last token
    bwd_final: np.ndarray  # (B, H) backward state at position 0
    mask: np.ndarray  # (B, S)
    src_ids: np.ndarray  # (B, S)
    keys: np.ndarray  # (B, S, A) attention keys states @ attn.W2
    pad_bias: np.ndarray  # (B, S) 0 at real tokens, NEG_INF at padding
    copy_index: np.ndarray  # (B*S,) flat (row, source token) index into (B, V)
    cache: object = None
    # decoding only: token id -> its input projection row, filled on first use
    token_inputs: dict = field(default_factory=dict)


def encoder_forward(src_ids, params, src_mask=None):
    """Run the stacked bi-GRU encoder over a batch of source id rows.

    Each row's mask is a run of ones, then zeros. Both directions run left
    to right, the backward one over each row with its real tokens in reverse
    order and its padding where it was. Steps past a row's end run on
    padding, and nothing reads their states: they get zero attention and
    copy mass, and the final states are gathered at each row's last token.
    """
    src_ids = np.atleast_2d(np.asarray(src_ids, dtype=np.int64))
    B, S = src_ids.shape
    if S == 0:
        raise ModelError("empty source sequence")
    dt = params.config.np_dtype()
    src_mask = np.ones((B, S), dtype=dt) if src_mask is None else np.asarray(src_mask, dtype=dt)
    pos = np.arange(S)
    lengths = np.count_nonzero(src_mask, axis=1)
    if not lengths.all():
        raise ModelError("source row with no unmasked tokens")
    if not np.array_equal(src_mask, pos < lengths[:, None]):
        raise ModelError("source mask rows must be ones followed by zeros")
    last = lengths - 1
    # position j of a row runs at last - j; padding stays: rev is its own inverse
    rev = np.where(pos < lengths[:, None], last[:, None] - pos, pos)
    rows, row = np.arange(B)[:, None], np.arange(B)
    x, emb_cache = _embed(params, src_ids)
    layer_caches = []
    for l in range(params.config.enc_layers):
        W0, b0 = params[f"enc{l}.affine.W"], params[f"enc{l}.affine.b"]
        y = x @ W0 + b0
        hf, cf = _gru_forward(y, *(params[f"enc{l}.fwd.{k}"] for k in "WUb"))
        hb, cb = _gru_forward(y[rows, rev], *(params[f"enc{l}.bwd.{k}"] for k in "WUb"))
        fwd_final, bwd_final = hf[row, last], hb[row, last]
        layer_caches.append((x, y, cf, cb))
        x = np.concatenate([hf, hb[rows, rev]], axis=2)
    keys = x @ params["attn.W2"]
    pad_bias = np.where(src_mask > 0, 0.0, NEG_INF).astype(dt)
    copy_index = (rows * params.config.vocab_size + src_ids).reshape(-1)
    cache = (emb_cache, layer_caches, rev, last)
    return EncoderOutput(
        x, fwd_final, bwd_final, src_mask, src_ids, keys, pad_bias, copy_index, cache
    )


def _encoder_backward(params, enc, d_states, d_fwd_final, d_bwd_final, grads):
    """Backward of encoder_forward; adds the final states' gradients into d_states."""
    H, L = params.config.enc_hidden, params.config.enc_layers
    emb_cache, layer_caches, rev, last = enc.cache
    rows, row = np.arange(len(rev))[:, None], np.arange(len(rev))
    d_x = d_states
    for l in reversed(range(L)):
        x_in, y, cf, cb = layer_caches[l]
        d_hf, d_hb = d_x[:, :, :H], d_x[:, :, H:][rows, rev]  # d_hb in run order
        if l == L - 1:
            d_hf[row, last] += d_fwd_final
            d_hb[row, last] += d_bwd_final
        dy = _gru_backward(d_hf, y, cf, grads, f"enc{l}.fwd")
        dy += _gru_backward(d_hb, y[rows, rev], cb, grads, f"enc{l}.bwd")[rows, rev]
        x2 = x_in.reshape(-1, x_in.shape[-1])
        dy2 = dy.reshape(-1, dy.shape[-1])
        grads[f"enc{l}.affine.W"] += x2.T @ dy2
        grads[f"enc{l}.affine.b"] += dy2.sum(axis=0)
        d_x = (dy @ _transposed(params[f"enc{l}.affine.W"])).reshape(x_in.shape)
    _embed_backward(params, emb_cache, d_x, grads)


def _token_projection(params, emb):
    """The token half of the decoder GRU's input projection: the part that
    depends only on the fed token's embedding."""
    return emb @ params["dec.W"][: params.config.dim] + params["dec.b"]


def _attention(params, d, enc):
    """Additive attention energies, exp-normalized weights, and context.

    Padded positions get energy NEG_INF through enc.pad_bias, so their
    exp underflows to exactly 0.
    """
    tu = np.tanh(enc.keys + (d @ params["attn.W3"])[:, None, :])
    e = tu @ params["attn.v"] + enc.pad_bias
    shift = e.max(axis=1, keepdims=True)
    ee_att = np.exp(e - shift)
    alpha = ee_att / ee_att.sum(axis=1, keepdims=True)
    beta = np.einsum("bs,bsd->bd", alpha, enc.states)
    return e, alpha, beta, tu


def _attention_backward(params, d, enc, tu, alpha, d_beta, d_e_copy, grads):
    """Backward of one step's _attention: returns (dq, d_u), the gradients
    of the query d @ attn.W3 and of the pre-tanh sum keys + query.

    The caller multiplies dq by attn.W3.T. It also makes, once for all
    steps, the products with arrays that are the same at every step: the
    states' gradient alpha (x) d_beta + d_u @ attn.W2.T, and the attn.W2
    gradient enc.states.T @ d_u."""
    d_alpha = np.einsum("bd,bsd->bs", d_beta, enc.states)
    d_e = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
    d_e = (d_e + d_e_copy) * enc.mask
    grads["attn.v"] += np.einsum("bsa,bs->a", tu, d_e)
    d_tu = d_e[:, :, None] * params["attn.v"][None, None, :]
    d_u = d_tu * (1.0 - tu * tu)
    dq = d_u.sum(axis=1)
    grads["attn.W3"] += d.T @ dq
    return dq, d_u


def _output_distribution(params, d, beta, e, enc):
    """Copy-augmented distribution: p o= exp(U[d,beta]) + sum exp(e_j) per
    source token. A shared shift keeps both exp families stable; p is
    invariant to the shift so it carries no gradient. `e` comes from
    _attention, so padded positions already carry NEG_INF.
    """
    cat = np.concatenate([d, beta], axis=1)
    logits = cat @ params["out.U"]
    shift = np.maximum(logits.max(axis=1), e.max(axis=1))
    el = np.exp(logits - shift[:, None])
    ee = np.exp(e - shift[:, None])
    scores = el.copy()
    np.add.at(scores.reshape(-1), enc.copy_index, ee.reshape(-1))
    total = scores.sum(axis=1, keepdims=True)
    probs = scores / total
    return probs, (cat, logits, el, ee, scores, total)


@dataclass
class DecoderState:
    d: np.ndarray
    beta: np.ndarray


def _step(params, tok3, state, enc):
    """The decoder step training and decoding share, from the token half of
    the input projection: the GRU update, attention, and the distribution.

    Returns the new state, the probabilities, and the backward cache.
    """
    x3 = tok3 + state.beta @ params["dec.W"][params.config.dim :]
    d, gru_cache = _gru_cell(x3, state.d, params["dec.U"])
    e, alpha, beta, tu = _attention(params, d, enc)
    probs, out_cache = _output_distribution(params, d, beta, e, enc)
    return DecoderState(d, beta), probs, (gru_cache, alpha, tu, out_cache)


def decoder_step(prev_ids, state, enc, params):
    """One inference step: feed the previous token, return (state, probs).

    Each token id's input projection is computed once per encoder output.
    """
    memo = enc.token_inputs
    rows = []
    for tok in np.asarray(prev_ids, dtype=np.int64).reshape(-1).tolist():
        if tok not in memo:
            memo[tok] = _token_projection(params, _embed(params, np.array([tok]))[0])
        rows.append(memo[tok])
    new_state, probs, _cache = _step(params, np.concatenate(rows), state, enc)
    return new_state, probs


def initial_decoder_state(params, enc):
    """d_0 = tanh(W1 [fwd_final; bwd_final]) and a zero context beta_0."""
    pre = np.concatenate([enc.fwd_final, enc.bwd_final], axis=1)
    beta0 = np.zeros((pre.shape[0], enc.states.shape[-1]), dtype=params.config.np_dtype())
    return DecoderState(np.tanh(pre @ params["W1"]), beta0)


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


def _teacher_forced(params, src_ids, src_mask, tgt_in, tgt_out, tgt_mask):
    """The forward pass of `loss_and_grad`: the loss, the count of correct
    argmax tokens, and what the backward reads."""
    dt = params.config.np_dtype()
    src_ids = np.asarray(src_ids, dtype=np.int64)
    tgt_in = np.asarray(tgt_in, dtype=np.int64)
    tgt_out = np.asarray(tgt_out, dtype=np.int64)
    src_mask = np.asarray(src_mask, dtype=dt)
    tgt_mask = np.asarray(tgt_mask, dtype=dt)
    B, T = tgt_in.shape
    total_tokens = float(tgt_mask.sum())
    if total_tokens == 0:
        raise ModelError("batch has no target tokens")

    enc = encoder_forward(src_ids, params, src_mask)
    start = initial_decoder_state(params, enc)
    tgt_emb, tgt_emb_cache = _embed(params, tgt_in)
    tok3 = _token_projection(params, tgt_emb)

    states = [start]  # states[t] feeds step t
    steps = []
    loss = 0.0
    correct = 0.0
    for t in range(T):
        state, probs, cache = _step(params, tok3[:, t], states[-1], enc)
        w = tgt_mask[:, t] / total_tokens
        py = probs[np.arange(B), tgt_out[:, t]]
        loss += float(np.sum(-np.log(np.maximum(py, 1e-300)) * w))
        correct += float(((probs.argmax(axis=1) == tgt_out[:, t]) * tgt_mask[:, t]).sum())
        states.append(state)
        steps.append((cache, w))
    tape = (tgt_out, enc, start, tgt_emb, tgt_emb_cache, tok3, states, steps)
    return loss, correct, total_tokens, tape


def loss_and_grad(params, src_ids, src_mask, tgt_in, tgt_out, tgt_mask, batch_label=None):
    """Teacher-forced mean token negative log-likelihood and its gradients.

    tgt_in rows start with <bos>; tgt_out rows end with <eos>. The mean is
    over non-pad target tokens across the whole batch.
    """
    loss, correct, total_tokens, tape = _teacher_forced(
        params, src_ids, src_mask, tgt_in, tgt_out, tgt_mask
    )
    if not np.isfinite(loss):
        label = f" (batch {batch_label})" if batch_label is not None else ""
        raise ModelError(f"non-finite loss{label}")

    tgt_out, enc, start, tgt_emb, tgt_emb_cache, tok3, states, steps = tape
    del tape  # `steps` is freed below, before the encoder's backward
    grads = zero_grads(params)
    B, T, S = *tgt_out.shape, enc.src_ids.shape[1]
    Hd, D = params.config.dec_hidden, params.config.dim
    out_U_T, W3_T, U_T = (_transposed(params[k]) for k in ("out.U", "attn.W3", "dec.U"))
    W_beta_T = _transposed(params["dec.W"][D:])
    dX3 = np.zeros_like(tok3)
    d_u_sum = np.zeros_like(enc.keys)
    d_betas = np.zeros((B, T, enc.states.shape[-1]), dtype=tok3.dtype)
    carry_d = np.zeros_like(start.d)
    carry_beta = np.zeros_like(start.beta)
    for t in reversed(range(T)):
        (gru_cache, alpha, tu, out_cache), w = steps[t]
        d = states[t + 1].d
        cat, logits, el, ee, scores, total = out_cache
        ds = (w / total[:, 0])[:, None] * np.ones_like(scores)
        ds[np.arange(B), tgt_out[:, t]] -= w / scores[np.arange(B), tgt_out[:, t]]
        d_logits = ds * el
        grads["out.U"] += cat.T @ d_logits
        d_cat = d_logits @ out_U_T
        d_beta = d_cat[:, Hd:] + carry_beta
        d_betas[:, t] = d_beta
        d_e_copy = ds.reshape(-1)[enc.copy_index].reshape(B, S) * ee
        dq, d_u = _attention_backward(params, d, enc, tu, alpha, d_beta, d_e_copy, grads)
        d_u_sum += d_u
        d_d = d_cat[:, :Hd] + dq @ W3_T + carry_d
        d_x3, carry_d = _gru_cell_backward(d_d, gru_cache, U_T)
        dX3[:, t] = d_x3
        carry_beta = d_x3 @ W_beta_T
    # the products with what is the same at every step, for all steps at
    # once: the states' and attn.W2's gradients, and the decoder GRU's
    # recurrent and input projection weights'
    alphas = np.stack([cache[1] for cache, _w in steps], axis=2)  # (B, S, T)
    d_states = alphas @ d_betas + d_u_sum @ _transposed(params["attn.W2"])
    grads["attn.W2"] += enc.states.reshape(B * S, -1).T @ d_u_sum.reshape(B * S, -1)
    _gru_weight_grad([cache[0] for cache, _w in steps], dX3, grads["dec.U"])
    # the decoder's step caches are used up: free them before the encoder's
    # backward
    del steps
    betas_in = np.stack([s.beta for s in states[:-1]], axis=1)
    inputs = np.concatenate([tgt_emb, betas_in], axis=2)
    dX3_flat = dX3.reshape(B * T, -1)
    grads["dec.W"] += inputs.reshape(B * T, -1).T @ dX3_flat
    grads["dec.b"] += dX3_flat.sum(axis=0)
    _embed_backward(params, tgt_emb_cache, dX3 @ _transposed(params["dec.W"][:D]), grads)
    # step 1 consumed beta_0 = 0 (a constant) and d_0 = tanh(W1 [...])
    d_d0_pre = carry_d * (1.0 - start.d * start.d)
    grads["W1"] += np.concatenate([enc.fwd_final, enc.bwd_final], axis=1).T @ d_d0_pre
    d_pre = d_d0_pre @ params["W1"].T
    H = params.config.enc_hidden
    _encoder_backward(params, enc, d_states, d_pre[:, :H], d_pre[:, H:], grads)
    token_acc = correct / total_tokens
    return loss, grads, {"token_accuracy": token_acc, "tokens": total_tokens}


def clip_gradients(grads, threshold):
    """Scale all gradients so the global L2 norm is at most `threshold`."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = total**0.5
    if norm <= threshold or norm == 0.0:
        return grads, norm
    scale = threshold / norm
    return {k: g * scale for k, g in grads.items()}, norm


class Adam:
    """Adaptive-moment optimizer; state keyed by parameter name."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors.items()}

    def step(self, params, grads):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            params.tensors[k] -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple
    logp: float
    state: DecoderState = field(compare=False)


def beam_search(src_ids, params, width, max_len, bos_id, eos_id):
    """Length-bounded beam search over the copy-augmented distribution.

    Width 1 is greedy decoding. The best hypothesis is the finished one with
    the highest total log-probability (no length normalization); ties break
    on lower token ids, then insertion order.
    """
    if width < 1:
        raise ModelError("beam width must be >= 1")
    enc = encoder_forward(src_ids, params)
    k = min(width, params.config.vocab_size)
    beam = [Hypothesis((), 0.0, initial_decoder_state(params, enc))]
    done = []
    for _ in range(max_len):
        candidates = []
        for rank, hyp in enumerate(beam):
            prev = hyp.tokens[-1] if hyp.tokens else bos_id
            state, probs = decoder_step([prev], hyp.state, enc, params)
            p = probs[0]
            top = np.argpartition(-p, k - 1)[:k]
            # float64 log with the 1e-300 floor: a zero probability scores
            # log(1e-300), not -inf
            logps = hyp.logp + np.log(np.maximum(p[top], 1e-300, dtype=np.float64))
            candidates.extend(zip(logps.tolist(), top.tolist(), [rank] * k, [state] * k))
        # (-logp, tok, rank) is a total order: the per-hypothesis order does not matter
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        beam_next = []
        for logp, tok, rank, state in candidates:
            if len(beam_next) >= width:
                break
            parent = beam[rank]
            if tok == eos_id:
                done.append(Hypothesis(parent.tokens, logp, state))
            else:
                beam_next.append(Hypothesis(parent.tokens + (tok,), logp, state))
        beam = beam_next
        if not beam:
            break
    return max(done or beam, key=lambda h: (h.logp, -len(h.tokens)))


CHECKPOINT_VERSION = 1


def save_checkpoint(path, params, vocab_hash, extra=None):
    """Versioned npz blob: named tensors plus a JSON metadata record."""
    names = params.names()
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "vocab_hash": vocab_hash,
        "tensor_names": names,
        "extra": extra or {},
    }
    arrays = {f"t{i}": params.tensors[name] for i, name in enumerate(names)}
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, meta=meta_bytes, **arrays)


def load_checkpoint(path, expect_vocab_hash):
    """Load a checkpoint trained with the vocabulary of `expect_vocab_hash`."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ModelError(f"unsupported checkpoint version {meta.get('version')}")
        if meta["vocab_hash"] != expect_vocab_hash:
            raise ModelError("checkpoint vocabulary hash does not match")
        config = ModelConfig(**meta["config"])
        tensors = {name: data[f"t{i}"] for i, name in enumerate(meta["tensor_names"])}
    expected = _param_shapes(config)
    for name in sorted(set(expected) | set(tensors)):
        got = tensors[name].shape if name in tensors else None
        if got != expected.get(name):
            raise ModelError(
                f"{path}: tensor {name!r} has shape {got}, expected {expected.get(name)}"
            )
    return ModelParams(config, tensors), meta
