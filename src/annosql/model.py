"""Sequence translation model: stacked bi-directional GRU encoder with
per-layer affine pre-transforms, a one-layer attentive GRU decoder, and a
copy mechanism that adds exp(attention energy) mass to source tokens.

Everything is plain numpy with hand-written backpropagation so gradients
can be verified against finite differences. Parameters are immutable during
inference; a training step owns them exclusively.
"""

import json
import os
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

NEG_INF = -1e30
DIRECTIONS = ("fwd", "bwd")  # the encoder's GRU directions, in stacking order
DTYPES = {"float32": np.float32, "float64": np.float64}  # ModelConfig.dtype -> numpy type
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and its epsilon


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

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise ModelError(f"dtype must be one of {tuple(DTYPES)}, not {self.dtype!r}")
        if not 0 < self.type_dim < self.dim:
            raise ModelError("type_dim must split dim into two non-empty parts")

    def np_dtype(self):
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
        for direction in DIRECTIONS:
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
    return out.reshape(ids.shape + (cfg.dim,)), (flat, sym, fam, idx)


def _embed_backward(params, cache, d_out, grads):
    cfg = params.config
    flat, sym, fam, idx = cache
    d_flat = d_out.reshape(len(flat), cfg.dim)
    nonsym = ~sym
    np.add.at(grads["emb"], flat[nonsym], d_flat[nonsym])
    if sym.any():
        d_sym = d_flat[sym]
        np.add.at(grads["type_emb"], fam, d_sym[:, : cfg.type_dim])
        np.add.at(grads["index_emb"], idx, d_sym[:, cfg.type_dim :])


def _gru_cell(x3, h, h_zr, U_n):
    """One GRU step of the encoder or the decoder, on arrays with any
    leading axes: the encoder runs its two directions as one (2, B, ·) step.

    x3 = x @ W + b is the input projection, computed outside the recurrence;
    h_zr = h @ U[:, :2H] is the state's gate product, which the caller makes
    (decoder_step carries it from the step before); U_n = U[:, 2H:], made
    contiguous once by _gate_blocks. Returns the new state and the cache
    _gru_cell_backward needs.
    """
    H = h.shape[-1]
    zr = h_zr + x3[..., : 2 * H]
    _sigmoid_inplace(zr)
    z, r = zr[..., :H], zr[..., H:]
    n = np.tanh(x3[..., 2 * H :] + (r * h) @ U_n)
    return (1.0 - z) * h + z * n, (h, z, r, n)


def _gate_blocks(U):
    """U's gate block U[..., :2H] and candidate block U[..., 2H:], each a
    contiguous copy, for _gru_cell's h_zr and U_n."""
    H = U.shape[-2]
    return np.ascontiguousarray(U[..., : 2 * H]), np.ascontiguousarray(U[..., 2 * H :])


def _transposed(W):
    """W with its last two axes swapped, as a contiguous array, for the
    backward's products by a weight's transpose. At the criterion-6 sizes,
    numpy with OpenBLAS multiplies by a transposed view 1.5-2.5x slower
    than by a contiguous copy, so each backward pass makes the copy once."""
    return np.ascontiguousarray(np.swapaxes(W, -1, -2))


def _gru_cell_backward(d_new, cache, U_T):
    """Backward of _gru_cell: returns (d_x3, d_h). U_T is U.T made
    contiguous once per pass (see _transposed). The U gradient is linear in
    d_x3, so _gru_weight_grad forms it once for all steps."""
    h, z, r, n = cache
    H = h.shape[-1]
    dn_pre = d_new * z * (1.0 - n * n)
    d_rh = dn_pre @ U_T[..., 2 * H :, :]
    dz_pre = d_new * (n - h) * z * (1.0 - z)
    dr_pre = d_rh * h * r * (1.0 - r)
    dzr = np.concatenate([dz_pre, dr_pre], axis=-1)
    d_h = d_new * (1.0 - z) + d_rh * r + dzr @ U_T[..., : 2 * H, :]
    return np.concatenate([dzr, dn_pre], axis=-1), d_h


def _gru_weight_grad(hs, rhs, dX3, dU):
    """Add the U gradient of a run of GRU steps, where hs[t], rhs[t] and
    dX3[..., t, :] are step t's input state h, its r * h and its d_x3: two
    matmuls over the stacked steps, one per direction when a leading axis
    of 2 stacks the encoder's two."""
    H = dU.shape[-2]
    lead = dX3.shape[:-3]
    h, rh = (np.stack(a, axis=-2).reshape(*lead, -1, H) for a in (hs, rhs))
    dX = dX3.reshape(*lead, -1, 3 * H)
    dU[..., : 2 * H] += np.swapaxes(h, -1, -2) @ dX[..., : 2 * H]
    dU[..., 2 * H :] += np.swapaxes(rh, -1, -2) @ dX[..., 2 * H :]


def _gru_forward(x, W, U, b):
    """An encoder layer's two directions as one left-to-right recurrence
    over x: (2, B, S, G), with W, U and b stacked the same way (_stacked):
    each step is one _gru_cell on (2, B, ·) arrays, and the input
    projection one GEMM per direction over all B * S rows.

    Returns the states (2, B, S, H) and the step caches _gru_backward
    reads. They leave out x and the stacked weights, which the backward
    builds again, so neither is held through the decoder's backward, where
    training memory peaks.
    """
    _, B, S, G = x.shape
    H = U.shape[-2]
    X3 = x.reshape(2, B * S, G) @ W
    X3 += b[:, None]
    X3 = X3.reshape(2, B, S, 3 * H)
    U_zr, U_n = _gate_blocks(U)
    h = np.zeros((2, B, H), dtype=x.dtype)
    Hseq = np.empty((2, B, S, H), dtype=x.dtype)
    steps = [None] * S  # steps[t] is the cache of step t
    for t in range(S):
        h, steps[t] = _gru_cell(X3[:, :, t], h, h @ U_zr, U_n)
        Hseq[:, :, t] = h
    return Hseq, steps


def _gru_backward(d_hseq, x, steps, W, U):
    """Backward pass matching _gru_forward(x, W, U, b): returns d_x and the
    stacked gradients of W, U and b. It takes each step's cache off `steps`
    as it reads it, keeping h and r * h for the U gradient."""
    _, B, S, H = d_hseq.shape
    dX3 = np.empty((2, B, S, 3 * H), dtype=x.dtype)
    hs, rhs = [None] * S, [None] * S  # each step's input state and r * h
    dh = np.zeros((2, B, H), dtype=x.dtype)
    U_T = _transposed(U)
    for t in reversed(range(S)):
        step = h, _z, r, _n = steps.pop()
        hs[t], rhs[t] = h, r * h
        dX3[:, :, t], dh = _gru_cell_backward(dh + d_hseq[:, :, t], step, U_T)
    dU = np.zeros_like(U)
    _gru_weight_grad(hs, rhs, dX3, dU)
    x2 = x.reshape(2, B * S, -1)
    dX2 = dX3.reshape(2, B * S, 3 * H)
    d_x = (dX2 @ _transposed(W)).reshape(x.shape)
    return d_x, (np.swapaxes(x2, -1, -2) @ dX2, dU, dX2.sum(axis=1))


def _stacked(params, l, k):
    """Encoder layer l's GRU weight k ("W", "U" or "b") with both
    directions stacked on a leading axis of 2."""
    return np.stack([params[f"enc{l}.{d}.{k}"] for d in DIRECTIONS])


@dataclass
class EncoderOutput:
    """Encoder states plus the per-question constants every decoder step reads."""

    states: np.ndarray  # (B, S, 2H) top-layer concatenated states
    final: np.ndarray  # (B, 2H) [fwd state at each row's last token; bwd state at position 0]
    src_ids: np.ndarray  # (B, S)
    keys: np.ndarray  # (B, S, A) attention keys states @ attn.W2
    pad_bias: np.ndarray  # (B, S) 0 at real tokens, NEG_INF at padding
    copy_index: np.ndarray  # (B*S,) flat (row, source token) index into (B, V)
    cache: object = None
    # decoding only: decoder_step's per-question constants, built on its first call
    decoding: object = None


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
        xs = np.stack([y, y[rows, rev]])  # each direction's input in run order
        (hf, hb), steps = _gru_forward(xs, *(_stacked(params, l, k) for k in "WUb"))
        layer_caches.append((x, y, steps))
        x = np.concatenate([hf, hb[rows, rev]], axis=2)
    final = np.concatenate([hf[row, last], hb[row, last]], axis=1)
    keys = x @ params["attn.W2"]
    pad_bias = np.where(src_mask > 0, 0.0, NEG_INF).astype(dt)
    copy_index = (rows * params.config.vocab_size + src_ids).reshape(-1)
    cache = (emb_cache, layer_caches, rev, last)
    return EncoderOutput(x, final, src_ids, keys, pad_bias, copy_index, cache)


def _encoder_backward(params, enc, d_states, d_final, grads):
    """Backward of encoder_forward; adds d_final, the gradient of
    enc.final, into d_states. It takes each layer's cache out of enc.cache as it reads it,
    so a layer's tape is freed before the layer below runs."""
    H, L = params.config.enc_hidden, params.config.enc_layers
    emb_cache, layer_caches, rev, last = enc.cache
    rows, row = np.arange(len(rev))[:, None], np.arange(len(rev))
    d_x = d_states
    # final is [the fwd state at each row's last token; the bwd state at position 0]
    d_x[row, last, :H] += d_final[:, :H]
    d_x[:, 0, H:] += d_final[:, H:]
    for l in reversed(range(L)):
        x_in, y, steps = layer_caches.pop()
        (dyf, dyb), weight_grads = _gru_backward(
            np.stack([d_x[:, :, :H], d_x[:, :, H:][rows, rev]]),  # each direction in run order
            np.stack([y, y[rows, rev]]),
            steps,
            *(_stacked(params, l, k) for k in "WU"),
        )
        for k, g in zip("WUb", weight_grads):
            for i, direction in enumerate(DIRECTIONS):
                grads[f"enc{l}.{direction}.{k}"] += g[i]
        dy = dyf + dyb[rows, rev]
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
    d_e = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True)) + d_e_copy
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
    return probs, (el, ee, scores, total)


@dataclass
class DecoderState:
    d: np.ndarray
    beta: np.ndarray  # the context; None after decoder_step, which never reads it
    # decoding only: what the next step's GRU cell reads besides d, made
    # with this step's logits: beta @ dec.W[D:], the context's part of its
    # input, and h_zr = d @ dec.U[:, :2Hd], its gate product
    beta_proj: np.ndarray = None
    h_zr: np.ndarray = None


class _Decoding:
    """What every decoder_step over one encoder output reads: the row's
    keys, source ids and states cut to its real tokens, so padding gets no
    attention or copy mass, a fused query block, each source state's
    projection, and a memo of each fed token id's input projection."""

    def __init__(self, params, enc):
        if len(enc.src_ids) != 1:
            raise ModelError("decoder_step decodes one source row")
        Hd, D = params.config.dec_hidden, params.config.dim
        n = np.count_nonzero(enc.pad_bias[0] == 0)  # the row's mask is n ones, then zeros
        self.keys, self.src_ids = enc.keys[0, :n], enc.src_ids[0, :n]
        self.A, self.V, self.v = params.config.attn_dim, params.config.vocab_size, params["attn.v"]
        out_U, dec_U = params["out.U"], params["dec.U"]
        self.U_n = _gate_blocks(dec_U)[1]
        # d @ W_q = [attention query | the state's logits | the next step's h_zr]
        self.W_q = np.concatenate([params["attn.W3"], out_U[:Hd], dec_U[:, : 2 * Hd]], axis=1)
        # [logits | dec.W[D:] projection] of each source state; the context's is their weighted mean
        state_W = np.concatenate([out_U[Hd:], params["dec.W"][D:]], axis=1)
        self.state_out = enc.states[0, :n] @ state_W
        self.token_inputs = {}


def decoder_step(prev_ids, state, enc, params):
    """One inference step of one hypothesis: feed the one id in `prev_ids`,
    return (state, probs of shape (1, V)). _teacher_forced's arithmetic,
    with the GRU cell on (1, ·) rows throughout (a (1, ·) array broadcast
    against a vector costs about twice either alone) and the rest on
    vectors; the state carries the next step's beta @ dec.W[D:] and gate
    product. np.dot costs less per call than @ on these vector products."""
    c = enc.decoding
    if c is None:
        c = enc.decoding = _Decoding(params, enc)
    (tok,) = prev_ids
    tok3 = c.token_inputs.get(tok)
    if tok3 is None:
        tok3 = c.token_inputs[tok] = _token_projection(params, _embed(params, np.array([tok]))[0])
    d, _cache = _gru_cell(tok3 + state.beta_proj, state.d, state.h_zr, c.U_n)
    A, V = c.A, c.V
    q = np.dot(d, c.W_q)
    tu = c.keys + q[0, :A]
    np.tanh(tu, out=tu)
    e = np.dot(tu, c.v)
    e_max = e.max()
    e -= e_max
    ee = np.exp(e, out=e)
    bw = np.dot(ee, c.state_out)  # [the context's logits | the next step's beta @ dec.W[D:]]
    bw /= ee.sum()
    logits = q[0, A : A + V]
    logits += bw[:V]
    # both exp families take the larger max as their shift; ee was made with
    # e_max's, so its factor is exactly 1.0 when e_max is the larger
    shift = max(logits.max(), e_max)
    ee *= np.exp(e_max - shift)
    logits -= shift
    scores = np.exp(logits, out=logits)
    np.add.at(scores, c.src_ids, ee)
    scores /= scores.sum()
    return DecoderState(d, None, bw[None, V:], q[:, A + V :]), scores[None]


def initial_decoder_state(params, enc):
    """d_0 = tanh(final @ W1), a zero context beta_0 and projection, and
    d_0's gate product."""
    B, dt, Hd = len(enc.final), params.config.np_dtype(), params.config.dec_hidden
    d0 = np.tanh(enc.final @ params["W1"])
    beta0 = np.zeros((B, enc.states.shape[-1]), dtype=dt)
    beta0_proj = np.zeros((B, 3 * Hd), dtype=dt)
    return DecoderState(d0, beta0, beta0_proj, d0 @ params["dec.U"][:, : 2 * Hd])


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
    W_beta = params["dec.W"][params.config.dim :]
    U_zr, U_n = _gate_blocks(params["dec.U"])

    tiny = np.finfo(dt).tiny
    states = [start]  # states[t] feeds step t
    steps = []
    loss = 0.0
    correct = 0.0
    for t in range(T):
        x3 = tok3[:, t] + states[-1].beta @ W_beta
        h = states[-1].d
        d, gru_cache = _gru_cell(x3, h, h @ U_zr, U_n)
        e, alpha, beta, tu = _attention(params, d, enc)
        probs, (el, ee, scores, total) = _output_distribution(params, d, beta, e, enc)
        w = tgt_mask[:, t] / total_tokens
        target = np.arange(B), tgt_out[:, t]
        py = probs[target]
        loss += float(np.sum(-np.log(np.maximum(py, tiny)) * w))
        correct += float(((probs.argmax(axis=1) == tgt_out[:, t]) * tgt_mask[:, t]).sum())
        states.append(DecoderState(d, beta))
        # the backward rebuilds [d; beta] from `states`, and of the (B, V)
        # scores reads only each row's target; a floored term, -log(tiny),
        # has no gradient
        cache = gru_cache, alpha, tu, (el, ee, total, scores[target])
        steps.append((cache, w * (py >= tiny)))
    tape = (tgt_out, enc, start, tgt_emb, tgt_emb_cache, states, steps)
    return loss, correct, total_tokens, tape


def loss_and_grad(
    params, src_ids, src_mask, tgt_in, tgt_out, tgt_mask, batch_label=None, *, grads=None
):
    """Teacher-forced mean token negative log-likelihood and its gradients.

    tgt_in rows start with <bos>; tgt_out rows end with <eos>. The mean is
    over non-pad target tokens across the whole batch.

    `grads`, a gradient dict an earlier call returned, is zeroed and takes
    this batch's gradients. A training loop passes its last one, so it
    holds one gradient set, and the allocator keeps that set's memory
    instead of giving it back and faulting fresh pages in every batch.
    """
    loss, correct, total_tokens, tape = _teacher_forced(
        params, src_ids, src_mask, tgt_in, tgt_out, tgt_mask
    )
    if not np.isfinite(loss):
        label = f" (batch {batch_label})" if batch_label is not None else ""
        raise ModelError(f"non-finite loss{label}")

    tgt_out, enc, start, tgt_emb, tgt_emb_cache, states, steps = tape
    del tape  # each step's tape is freed as the loop below reads it
    if grads is None:
        grads = zero_grads(params)
    else:
        for g in grads.values():
            g.fill(0)
    B, T, S = *tgt_out.shape, enc.src_ids.shape[1]
    Hd, D = params.config.dec_hidden, params.config.dim
    dt = start.d.dtype
    out_U_T, W3_T, U_T = (_transposed(params[k]) for k in ("out.U", "attn.W3", "dec.U"))
    W_beta_T = _transposed(params["dec.W"][D:])
    dX3 = np.zeros((B, T, 3 * Hd), dtype=dt)
    d_u_sum = np.zeros_like(enc.keys)
    d_betas = np.zeros((B, T, enc.states.shape[-1]), dtype=dt)
    alphas = np.empty((B, S, T), dtype=dt)
    hs, rhs = [None] * T, [None] * T  # each step's GRU input state and r * h
    carry_d = np.zeros_like(start.d)
    carry_beta = np.zeros_like(start.beta)
    for t in reversed(range(T)):
        # a step's tape is freed once this iteration has read it: alpha goes
        # into the stacked weights, and the GRU cache's h and r * h into
        # the dec.U gradient's
        (gru_cache, alpha, tu, out_cache), w = steps.pop()
        alphas[:, :, t] = alpha
        h, _z, r, _n = gru_cache
        hs[t], rhs[t] = h, r * h
        state = states[t + 1]
        el, ee, total, score_y = out_cache  # score_y is 0 only at a padded or floored step
        # ds, the scores' gradient, in one (B, V) buffer that then takes
        # d_logits = ds * el in place
        ds = np.empty_like(el)
        ds[:] = (w / total[:, 0])[:, None]
        ds[np.arange(B), tgt_out[:, t]] -= np.divide(w, score_y, out=np.zeros_like(w), where=w > 0)
        d_e_copy = ds.reshape(-1)[enc.copy_index].reshape(B, S) * ee
        d_logits = np.multiply(ds, el, out=ds)
        grads["out.U"] += np.concatenate([state.d, state.beta], axis=1).T @ d_logits
        d_cat = d_logits @ out_U_T
        d_beta = d_cat[:, Hd:] + carry_beta
        d_betas[:, t] = d_beta
        dq, d_u = _attention_backward(params, state.d, enc, tu, alpha, d_beta, d_e_copy, grads)
        d_u_sum += d_u
        d_d = d_cat[:, :Hd] + dq @ W3_T + carry_d
        d_x3, carry_d = _gru_cell_backward(d_d, gru_cache, U_T)
        dX3[:, t] = d_x3
        carry_beta = d_x3 @ W_beta_T
    # the products with what is the same at every step, for all steps at
    # once: the states' and attn.W2's gradients, and the decoder GRU's
    # recurrent and input projection weights'
    d_states = alphas @ d_betas + d_u_sum @ _transposed(params["attn.W2"])
    grads["attn.W2"] += enc.states.reshape(B * S, -1).T @ d_u_sum.reshape(B * S, -1)
    _gru_weight_grad(hs, rhs, dX3, grads["dec.U"])
    betas_in = np.stack([s.beta for s in states[:-1]], axis=1)
    inputs = np.concatenate([tgt_emb, betas_in], axis=2)
    dX3_flat = dX3.reshape(B * T, -1)
    grads["dec.W"] += inputs.reshape(B * T, -1).T @ dX3_flat
    grads["dec.b"] += dX3_flat.sum(axis=0)
    _embed_backward(params, tgt_emb_cache, dX3 @ _transposed(params["dec.W"][:D]), grads)
    # step 1 consumed beta_0 = 0 (a constant) and d_0 = tanh(final @ W1)
    d_d0_pre = carry_d * (1.0 - start.d * start.d)
    grads["W1"] += enc.final.T @ d_d0_pre
    _encoder_backward(params, enc, d_states, d_d0_pre @ params["W1"].T, grads)
    return loss, grads, {"token_accuracy": correct / total_tokens}


def clip_gradients(grads, threshold):
    """Scale all gradients, in place, so the global L2 norm is at most
    `threshold`; returns their norm before scaling."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = total**0.5
    if norm <= threshold or norm == 0.0:
        return norm
    scale = threshold / norm
    for g in grads.values():
        g *= scale
    return norm


class Adam:
    """Adaptive-moment optimizer; state keyed by parameter name."""

    def __init__(self, params, lr):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors.items()}

    def step(self, params, grads):
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            # lr * (m / b1t) / (sqrt(v / b2t) + eps), in two buffers
            denom = v / b2t
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step = m / b1t
            step *= self.lr
            step /= denom
            params.tensors[k] -= step


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple
    logp: float


def beam_search(src_ids, params, width, max_len, bos_id, eos_id):
    """Length-bounded beam search over the copy-augmented distribution.

    Width 1 is greedy decoding. The best hypothesis is the finished one with
    the highest total log-probability (no length normalization); ties break
    on lower token ids, then insertion order.
    """
    if width < 1:
        raise ModelError("beam width must be >= 1")
    enc = encoder_forward(src_ids, params)
    V = params.config.vocab_size
    k = min(width, V)
    # the live hypotheses by rank: their tokens, log-probabilities and states
    beam, logps, states, done = [()], [0.0], [initial_decoder_state(params, enc)], []
    for _ in range(max_len):
        steps = [
            decoder_step([toks[-1] if toks else bos_id], state, enc, params)
            for toks, state in zip(beam, states)
        ]
        probs = np.concatenate([p for _state, p in steps])
        top = np.argpartition(probs, V - k, axis=1)[:, V - k :]  # each row's k largest, last
        p_top = probs[np.arange(len(steps))[:, None], top]
        # float64 log with the 1e-300 floor: a zero probability scores log(1e-300)
        cand = np.log(np.maximum(p_top, 1e-300, dtype=np.float64))
        cand += np.array(logps)[:, None]
        # (-logp, tok, rank) is a total order; the flat index i = rank * k + j
        # breaks ties as the rank does, since one rank's top tokens are distinct
        ranked = sorted(zip((-cand).ravel().tolist(), top.ravel().tolist(), range(cand.size)))
        parents, beam, logps, states = beam, [], [], []
        for neg_logp, tok, i in ranked:
            if len(beam) >= width:
                break
            if tok == eos_id:
                done.append(Hypothesis(parents[i // k], -neg_logp))
            else:
                beam.append(parents[i // k] + (tok,))
                logps.append(-neg_logp)
                states.append(steps[i // k][0])
        if not beam:
            break
    return max(done or map(Hypothesis, beam, logps), key=lambda h: (h.logp, -len(h.tokens)))


CHECKPOINT_VERSION = 1


def save_checkpoint(path, params, vocab_hash, extra=None):
    """Versioned npz blob: named tensors plus a JSON metadata record, written
    beside `path` and renamed over it, so a failed write keeps the old file."""
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
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb")  # np.savez would add ".npz" to a path without it
    try:
        with fh:
            np.savez(fh, meta=meta_bytes, **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_checkpoint(path, expect_vocab_hash):
    """Load a checkpoint trained with the vocabulary of `expect_vocab_hash`.
    A malformed or mismatched checkpoint fails as a ModelError naming `path`."""
    try:
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
                raise ModelError(f"tensor {name!r} has shape {got}, expected {expected.get(name)}")
            if tensors[name].dtype != config.np_dtype():
                raise ModelError(
                    f"tensor {name!r} has dtype {tensors[name].dtype}, expected {config.dtype}"
                )
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    except (AttributeError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelError(f"{path}: {type(exc).__name__}: {exc}") from None
    return ModelParams(config, tensors), meta
