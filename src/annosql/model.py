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


class ModelError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    dim: int = 300  # embedding size D
    type_dim: int = 150  # symbol type part D'; index part is dim - type_dim
    enc_hidden: int = 200  # per direction
    enc_layers: int = 2
    dec_hidden: int = 400
    attn_dim: int = 200
    max_index: int = 25
    n_specials: int = 5
    dtype: str = "float32"

    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def to_dict(self):
        return asdict(self)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


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


def init_params(config, seed=0, pretrained=None, vocab=None, weight_scale=0.08, emb_scale=0.1):
    """Fresh parameters; embeddings take pre-trained vectors when given.

    `weight_scale` sets the uniform init range; gradient-check setups want
    a larger value than training so gradients stay resolvable by finite
    differences.
    """
    rng = np.random.default_rng(seed)
    dt = config.np_dtype()
    D, H, Hd, A = config.dim, config.enc_hidden, config.dec_hidden, config.attn_dim
    Dt = config.type_dim
    if not 0 < Dt < D:
        raise ModelError("type_dim must split dim into two non-empty parts")

    def uni(shape, scale=weight_scale):
        return rng.uniform(-scale, scale, size=shape).astype(dt)

    tensors = {"emb": uni((config.vocab_size, D), emb_scale)}
    tensors["type_emb"] = uni((3, Dt), emb_scale)
    tensors["index_emb"] = uni((config.max_index, D - Dt), emb_scale)
    for l in range(config.enc_layers):
        in_dim = D if l == 0 else 2 * H
        tensors[f"enc{l}.affine.W"] = uni((in_dim, H))
        tensors[f"enc{l}.affine.b"] = np.zeros(H, dtype=dt)
        for direction in ("fwd", "bwd"):
            tensors[f"enc{l}.{direction}.W"] = uni((H, 3 * H))
            tensors[f"enc{l}.{direction}.U"] = uni((H, 3 * H))
            tensors[f"enc{l}.{direction}.b"] = np.zeros(3 * H, dtype=dt)
    tensors["W1"] = uni((2 * H, Hd))
    tensors["dec.W"] = uni((D + 2 * H, 3 * Hd))
    tensors["dec.U"] = uni((Hd, 3 * Hd))
    tensors["dec.b"] = np.zeros(3 * Hd, dtype=dt)
    tensors["attn.W2"] = uni((2 * H, A))
    tensors["attn.W3"] = uni((Hd, A))
    tensors["attn.v"] = uni(A)
    tensors["out.U"] = uni((Hd + 2 * H, config.vocab_size))

    if pretrained is not None and vocab is not None and pretrained.dim == D:
        emb = tensors["emb"]
        for idx, tok in enumerate(vocab.itos):
            vec = pretrained.get(tok)
            if vec is not None:
                emb[idx] = vec.astype(dt)
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
    z = _sigmoid(x3[:, :H] + zr[:, :H])
    r = _sigmoid(x3[:, H : 2 * H] + zr[:, H:])
    n = np.tanh(x3[:, 2 * H :] + (r * h) @ U[:, 2 * H :])
    return (1.0 - z) * h + z * n, (h, z, r, n)


def _gru_cell_backward(d_new, cache, U, dU):
    """Backward of _gru_cell: adds into dU and returns (d_x3, d_h)."""
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


def _gru_forward(x, mask, W, U, b, reverse=False):
    """One GRU direction over a padded batch.

    x: (B, S, G); mask: (B, S). Masked positions carry the previous state,
    so the final state is the state at each row's last real token.
    """
    B, S, _ = x.shape
    H = U.shape[0]
    X3 = x @ W + b
    order = range(S - 1, -1, -1) if reverse else range(S)
    h = np.zeros((B, H), dtype=x.dtype)
    Hseq = np.zeros((B, S, H), dtype=x.dtype)
    steps = []
    for t in order:
        h_new, step = _gru_cell(X3[:, t], h, U)
        m = mask[:, t : t + 1]
        h = m * h_new + (1.0 - m) * h
        Hseq[:, t] = h
        steps.append(step)
    return Hseq, h, (x, mask, W, U, order, steps)


def _gru_backward(d_hseq, d_hfinal, cache, grads, prefix):
    """Backward pass matching _gru_forward; returns d_x."""
    x, mask, W, U, order, steps = cache
    B, S, H = d_hseq.shape
    dX3 = np.zeros((B, S, 3 * H), dtype=x.dtype)
    dU = grads[prefix + ".U"]
    dh = d_hfinal.copy() if d_hfinal is not None else np.zeros((B, H), dtype=x.dtype)
    for t, step in zip(reversed(order), reversed(steps)):
        dh = dh + d_hseq[:, t]
        m = mask[:, t : t + 1]
        dX3[:, t], d_h = _gru_cell_backward(dh * m, step, U, dU)
        dh = dh * (1.0 - m) + d_h
    x2 = x.reshape(-1, x.shape[-1])
    dX2 = dX3.reshape(-1, 3 * H)
    grads[prefix + ".W"] += x2.T @ dX2
    grads[prefix + ".b"] += dX2.sum(axis=0)
    return dX3 @ W.T


@dataclass
class EncoderOutput:
    states: np.ndarray  # (B, S, 2H) top-layer concatenated states
    fwd_final: np.ndarray  # (B, H) forward state at each row's last token
    bwd_final: np.ndarray  # (B, H) backward state at position 0
    mask: np.ndarray  # (B, S)
    src_ids: np.ndarray  # (B, S)
    cache: object = None


def encoder_forward(src_ids, params, src_mask=None):
    """Run the stacked bi-GRU encoder over a batch of source id rows."""
    src_ids = np.atleast_2d(np.asarray(src_ids, dtype=np.int64))
    if src_ids.shape[1] == 0:
        raise ModelError("empty source sequence")
    dt = params.config.np_dtype()
    if src_mask is None:
        src_mask = np.ones(src_ids.shape, dtype=dt)
    else:
        src_mask = np.asarray(src_mask, dtype=dt)
        if not src_mask.any(axis=1).all():
            raise ModelError("source row with no unmasked tokens")
    x, emb_cache = _embed(params, src_ids)
    layer_caches = []
    fwd_final = bwd_final = None
    for l in range(params.config.enc_layers):
        W0, b0 = params[f"enc{l}.affine.W"], params[f"enc{l}.affine.b"]
        y = x @ W0 + b0
        hf, fwd_final, cf = _gru_forward(
            y, src_mask, params[f"enc{l}.fwd.W"], params[f"enc{l}.fwd.U"], params[f"enc{l}.fwd.b"]
        )
        hb, bwd_final, cb = _gru_forward(
            y,
            src_mask,
            params[f"enc{l}.bwd.W"],
            params[f"enc{l}.bwd.U"],
            params[f"enc{l}.bwd.b"],
            reverse=True,
        )
        layer_caches.append((x, cf, cb))
        x = np.concatenate([hf, hb], axis=2)
    cache = (emb_cache, layer_caches)
    return EncoderOutput(x, fwd_final, bwd_final, src_mask, src_ids, cache)


def _encoder_backward(params, enc, d_states, d_fwd_final, d_bwd_final, grads):
    H = params.config.enc_hidden
    emb_cache, layer_caches = enc.cache
    d_x = d_states
    for l in reversed(range(params.config.enc_layers)):
        x_in, cf, cb = layer_caches[l]
        top = l == params.config.enc_layers - 1
        dy = _gru_backward(
            d_x[:, :, :H], d_fwd_final if top else None, cf, grads, f"enc{l}.fwd"
        )
        dy += _gru_backward(
            d_x[:, :, H:], d_bwd_final if top else None, cb, grads, f"enc{l}.bwd"
        )
        W0 = params[f"enc{l}.affine.W"]
        x2 = x_in.reshape(-1, x_in.shape[-1])
        dy2 = dy.reshape(-1, dy.shape[-1])
        grads[f"enc{l}.affine.W"] += x2.T @ dy2
        grads[f"enc{l}.affine.b"] += dy2.sum(axis=0)
        d_x = (dy @ W0.T).reshape(x_in.shape)
    _embed_backward(params, emb_cache, d_x, grads)


def _dec_gru_step(params, inp, h):
    return _gru_cell(inp @ params["dec.W"] + params["dec.b"], h, params["dec.U"])


def _attention(params, d, enc, hw2):
    """Additive attention energies, exp-normalized weights, and context."""
    tu = np.tanh(hw2 + (d @ params["attn.W3"])[:, None, :])
    e_raw = tu @ params["attn.v"]
    e = np.where(enc.mask > 0, e_raw, NEG_INF)
    shift = e.max(axis=1, keepdims=True)
    ee_att = np.exp(e - shift) * enc.mask
    alpha = ee_att / ee_att.sum(axis=1, keepdims=True)
    beta = np.einsum("bs,bsd->bd", alpha, enc.states)
    return e, alpha, beta, tu


def _attention_backward(params, d, enc, tu, alpha, d_beta, d_e_extra, grads, d_states):
    d_alpha = np.einsum("bd,bsd->bs", d_beta, enc.states)
    d_states += alpha[:, :, None] * d_beta[:, None, :]
    d_e = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
    if d_e_extra is not None:
        d_e = d_e + d_e_extra
    d_e = d_e * enc.mask
    grads["attn.v"] += np.einsum("bsa,bs->a", tu, d_e)
    d_tu = d_e[:, :, None] * params["attn.v"][None, None, :]
    d_u = d_tu * (1.0 - tu * tu)
    flat_states = enc.states.reshape(-1, enc.states.shape[-1])
    grads["attn.W2"] += flat_states.T @ d_u.reshape(-1, d_u.shape[-1])
    d_states += (d_u @ params["attn.W2"].T).reshape(enc.states.shape)
    dq = d_u.sum(axis=1)
    grads["attn.W3"] += d.T @ dq
    return dq @ params["attn.W3"].T


def _output_distribution(params, d, beta, e, enc):
    """Copy-augmented distribution: p o= exp(U[d,beta]) + sum exp(e_j) per
    source token. A shared shift keeps both exp families stable; p is
    invariant to the shift so it carries no gradient.
    """
    cat = np.concatenate([d, beta], axis=1)
    logits = cat @ params["out.U"]
    valid_e = np.where(enc.mask > 0, e, NEG_INF)
    shift = np.maximum(logits.max(axis=1), valid_e.max(axis=1))
    el = np.exp(logits - shift[:, None])
    ee = np.exp(valid_e - shift[:, None]) * enc.mask
    scores = el.copy()
    rows = np.repeat(np.arange(scores.shape[0]), enc.src_ids.shape[1])
    np.add.at(scores, (rows, enc.src_ids.reshape(-1)), ee.reshape(-1))
    total = scores.sum(axis=1, keepdims=True)
    probs = scores / total
    return probs, (cat, logits, el, ee, scores, total)


@dataclass
class DecoderState:
    d: np.ndarray
    beta: np.ndarray


def decoder_step(prev_ids, state, enc, params):
    """One inference step: feed the previous token, return (state, probs)."""
    prev_ids = np.asarray(prev_ids, dtype=np.int64).reshape(-1, 1)
    emb, _ = _embed(params, prev_ids)
    inp = np.concatenate([emb[:, 0, :], state.beta], axis=1)
    d_new, _ = _dec_gru_step(params, inp, state.d)
    hw2 = enc.states @ params["attn.W2"]
    e, _alpha, beta, _tu = _attention(params, d_new, enc, hw2)
    probs, _ = _output_distribution(params, d_new, beta, e, enc)
    return DecoderState(d_new, beta), probs


def initial_decoder_state(params, enc):
    """d_0 = tanh(W1 [fwd_final; bwd_final]) and a zero context beta_0."""
    pre = np.concatenate([enc.fwd_final, enc.bwd_final], axis=1)
    beta0 = np.zeros((pre.shape[0], enc.states.shape[-1]), dtype=params.config.np_dtype())
    return DecoderState(np.tanh(pre @ params["W1"]), beta0)


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


def loss_and_grad(params, src_ids, src_mask, tgt_in, tgt_out, tgt_mask, batch_label=None):
    """Teacher-forced mean token negative log-likelihood and its gradients.

    tgt_in rows start with <bos>; tgt_out rows end with <eos>. The mean is
    over non-pad target tokens across the whole batch.
    """
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
    hw2 = enc.states @ params["attn.W2"]
    start = initial_decoder_state(params, enc)
    tgt_emb, tgt_emb_cache = _embed(params, tgt_in)

    d, beta = start.d, start.beta
    steps = []
    loss = 0.0
    correct = 0.0
    for t in range(T):
        inp = np.concatenate([tgt_emb[:, t, :], beta], axis=1)
        d, gru_cache = _dec_gru_step(params, inp, d)
        e, alpha, beta, tu = _attention(params, d, enc, hw2)
        probs, out_cache = _output_distribution(params, d, beta, e, enc)
        w = tgt_mask[:, t] / total_tokens
        py = probs[np.arange(B), tgt_out[:, t]]
        loss += float(np.sum(-np.log(np.maximum(py, 1e-300)) * w))
        correct += float(((probs.argmax(axis=1) == tgt_out[:, t]) * tgt_mask[:, t]).sum())
        steps.append((inp, gru_cache, d, alpha, tu, out_cache, w))
    if not np.isfinite(loss):
        label = f" (batch {batch_label})" if batch_label is not None else ""
        raise ModelError(f"non-finite loss{label}")

    grads = zero_grads(params)
    d_states = np.zeros_like(enc.states)
    Hd, D, S = params.config.dec_hidden, params.config.dim, src_ids.shape[1]
    d_emb_steps = np.zeros((B, T, D), dtype=dt)
    carry_d = np.zeros_like(start.d)
    carry_beta = np.zeros_like(start.beta)
    rows = np.repeat(np.arange(B), S)
    for t in reversed(range(T)):
        inp, gru_cache, d, alpha, tu, out_cache, w = steps[t]
        cat, logits, el, ee, scores, total = out_cache
        ds = (w / total[:, 0])[:, None] * np.ones_like(scores)
        ds[np.arange(B), tgt_out[:, t]] -= w / scores[np.arange(B), tgt_out[:, t]]
        d_logits = ds * el
        grads["out.U"] += cat.T @ d_logits
        d_cat = d_logits @ params["out.U"].T
        d_beta = d_cat[:, Hd:] + carry_beta
        d_e_copy = ds[rows, enc.src_ids.reshape(-1)].reshape(B, S) * ee
        d_d = d_cat[:, :Hd] + _attention_backward(
            params, d, enc, tu, alpha, d_beta, d_e_copy, grads, d_states
        )
        d_d = d_d + carry_d
        d_x3, carry_d = _gru_cell_backward(d_d, gru_cache, params["dec.U"], grads["dec.U"])
        grads["dec.W"] += inp.T @ d_x3
        grads["dec.b"] += d_x3.sum(axis=0)
        d_inp = d_x3 @ params["dec.W"].T
        d_emb_steps[:, t, :] = d_inp[:, :D]
        carry_beta = d_inp[:, D:]
    # step 1 consumed beta_0 = 0 (a constant) and d_0 = tanh(W1 [...])
    d_d0_pre = carry_d * (1.0 - start.d * start.d)
    grads["W1"] += np.concatenate([enc.fwd_final, enc.bwd_final], axis=1).T @ d_d0_pre
    d_pre = d_d0_pre @ params["W1"].T
    H = params.config.enc_hidden
    _embed_backward(params, tgt_emb_cache, d_emb_steps, grads)
    _encoder_backward(params, enc, d_states, d_pre[:, :H], d_pre[:, H:], grads)
    token_acc = correct / total_tokens
    return loss, grads, {"token_accuracy": token_acc, "tokens": total_tokens}


def clip_gradients(grads, threshold=5.0):
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

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
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
    finished: bool = False


def beam_search(src_ids, params, width, max_len, bos_id, eos_id, src_mask=None):
    """Length-bounded beam search over the copy-augmented distribution.

    Width 1 is greedy decoding. The best hypothesis is the finished one with
    the highest total log-probability (no length normalization); ties break
    on lower token ids, then insertion order.
    """
    if width < 1:
        raise ModelError("beam width must be >= 1")
    enc = encoder_forward(src_ids, params, src_mask)
    start = Hypothesis((), 0.0, initial_decoder_state(params, enc))
    beam = [start]
    done = []
    for _ in range(max_len):
        candidates = []
        for rank, hyp in enumerate(beam):
            prev = hyp.tokens[-1] if hyp.tokens else bos_id
            state, probs = decoder_step([prev], hyp.state, enc, params)
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
                done.append(Hypothesis(parent.tokens, logp, state, finished=True))
            else:
                beam_next.append(Hypothesis(parent.tokens + (tok,), logp, state))
        beam = beam_next
        if not beam:
            break
    pool = done if done else beam
    if not pool:
        return start
    return max(pool, key=lambda h: (h.logp, -len(h.tokens)))


def greedy_decode(src_ids, params, max_len, bos_id, eos_id, src_mask=None):
    """Plain argmax decoding; used as the beam-width-1 reference."""
    enc = encoder_forward(src_ids, params, src_mask)
    state = initial_decoder_state(params, enc)
    tokens = []
    logp = 0.0
    prev = bos_id
    for _ in range(max_len):
        state, probs = decoder_step([prev], state, enc, params)
        tok = int(probs[0].argmax())
        logp += float(np.log(max(probs[0][tok], 1e-300)))
        if tok == eos_id:
            return tokens, logp
        tokens.append(tok)
        prev = tok
    return tokens, logp


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


def load_checkpoint(path, expect_vocab_hash=None):
    """Load a checkpoint; verifies the vocabulary hash when one is given."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ModelError(f"unsupported checkpoint version {meta.get('version')}")
        if expect_vocab_hash is not None and meta["vocab_hash"] != expect_vocab_hash:
            raise ModelError("checkpoint vocabulary hash does not match")
        config = ModelConfig(**meta["config"])
        tensors = {name: data[f"t{i}"] for i, name in enumerate(meta["tensor_names"])}
    return ModelParams(config, tensors), meta
