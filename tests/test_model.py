import json
import os
import re
import weakref

import numpy as np
import pytest

from annosql import model as nn

from support import (
    finite_difference_gradients,
    greedy_decode,
    reference_adam_step,
    reference_beam_search,
    reference_decoder_step,
    reference_loss_and_grad,
)


def toy_config(**kw):
    base = dict(
        vocab_size=20,
        dim=8,
        type_dim=4,
        enc_hidden=8,
        enc_layers=2,
        dec_hidden=8,
        attn_dim=6,
        max_index=3,
        dtype="float64",
    )
    base.update(kw)
    return nn.ModelConfig(**base)


def test_np_dtype_rejects_a_dtype_it_does_not_offer():
    """np_dtype looks the dtype up; one not offered fails when the config is built."""
    assert toy_config(dtype="float32").np_dtype() is np.float32
    assert toy_config(dtype="float64").np_dtype() is np.float64
    with pytest.raises(nn.ModelError, match="not 'Float64'"):
        toy_config(dtype="Float64")


@pytest.mark.parametrize("type_dim", [0, 8, 9])
def test_model_config_refuses_a_type_dim_that_does_not_split_dim(type_dim):
    with pytest.raises(nn.ModelError, match="type_dim must split dim into two non-empty parts"):
        toy_config(dim=8, type_dim=type_dim)


def toy_batch(seed=0, B=2, S=5, T=4, V=20):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, V, size=(B, S))
    src_mask = np.ones((B, S))
    src_mask[-1, S - 2 :] = 0.0
    tgt_in = rng.integers(0, V, size=(B, T))
    tgt_out = rng.integers(0, V, size=(B, T))
    tgt_mask = np.ones((B, T))
    tgt_mask[-1, T - 2 :] = 0.0
    return src, src_mask, tgt_in, tgt_out, tgt_mask


def test_encoder_zero_params_zero_states():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=0)
    for t in params.tensors.values():
        t[:] = 0.0
    enc = nn.encoder_forward(np.array([[1, 2, 3]]), params)
    assert np.all(enc.states == 0.0)
    assert np.all(enc.final == 0.0)


def test_encoder_output_length_matches_input():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=1)
    for S in (1, 3, 7):
        enc = nn.encoder_forward(np.arange(S).reshape(1, S) % 20, params)
        assert enc.states.shape == (1, S, 2 * cfg.enc_hidden)


def test_encoder_single_position_symmetric_directions():
    """For a length-1 input both directions see the same single step, so
    with identical direction parameters their states agree; the value is
    checked against a by-hand GRU step."""
    cfg = toy_config(enc_layers=1)
    params = nn.init_params(cfg, seed=2)
    for l in range(1):
        for name in ("W", "U", "b"):
            params.tensors[f"enc{l}.bwd.{name}"] = params.tensors[f"enc{l}.fwd.{name}"].copy()
    src = np.array([[7]])
    enc = nn.encoder_forward(src, params)
    H = cfg.enc_hidden
    fwd, bwd = enc.states[0, 0, :H], enc.states[0, 0, H:]
    assert np.allclose(fwd, bwd)

    emb, _ = nn._embed(params, src)
    y = emb[0, 0] @ params["enc0.affine.W"] + params["enc0.affine.b"]
    W, U, b = params["enc0.fwd.W"], params["enc0.fwd.U"], params["enc0.fwd.b"]
    x3 = y @ W + b
    z = 1 / (1 + np.exp(-x3[:H]))
    n = np.tanh(x3[2 * H :])
    by_hand = z * n  # previous state is zero
    assert np.allclose(fwd, by_hand)


def test_encoder_rejects_empty_input():
    params = nn.init_params(toy_config(), seed=0)
    with pytest.raises(nn.ModelError):
        nn.encoder_forward(np.zeros((1, 0), dtype=int), params)
    with pytest.raises(nn.ModelError):
        nn.encoder_forward(np.array([[1, 2]]), params, np.zeros((1, 2)))


def test_encoder_rejects_a_mask_that_is_not_leading_ones():
    params = nn.init_params(toy_config(), seed=0)
    src = np.array([[1, 2, 3, 4]])
    for mask in ([[1.0, 0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0, 1.0]]):  # a hole; left padding
        with pytest.raises(nn.ModelError, match="ones followed by zeros"):
            nn.encoder_forward(src, params, np.array(mask))


def test_padded_rows_encode_as_alone():
    """Each row of a right-padded float64 batch gets, at its real positions,
    the states and the final states it gets encoded alone, to 1e-12
    relative error."""
    cfg = toy_config()
    rng = np.random.default_rng(11)
    B, S = 6, 7
    for seed in range(4):
        params = nn.init_params(cfg, seed, weight_scale=0.6, emb_scale=0.6)
        lengths = rng.integers(1, S + 1, size=B)
        lengths[:2] = 1, S
        src = rng.integers(0, cfg.vocab_size, size=(B, S))
        mask = (np.arange(S) < lengths[:, None]).astype(float)
        enc = nn.encoder_forward(src, params, mask)
        for b, n in enumerate(lengths):
            alone = nn.encoder_forward(src[b, :n], params)
            for got, want in (
                (enc.states[b, :n], alone.states[0]),
                (enc.final[b], alone.final[0]),
            ):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (seed, b)


def test_initial_decoder_state_formula():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=21)
    enc = nn.encoder_forward(np.array([[1, 2, 3, 4]]), params)
    state = nn.initial_decoder_state(params, enc)
    assert np.allclose(state.d, np.tanh(enc.final @ params["W1"]))
    assert np.all(state.beta == 0.0)


def test_attention_uniform_when_energies_equal():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=3)
    params.tensors["attn.W2"][:] = 0.0
    params.tensors["attn.W3"][:] = 0.0
    enc = nn.encoder_forward(np.array([[1, 2, 3, 4]]), params)
    state = nn.initial_decoder_state(params, enc)
    _e, alpha, beta, _tu = nn._attention(params, state.d, enc)
    assert np.allclose(alpha, 0.25)
    assert np.allclose(beta, enc.states.mean(axis=1))


def test_attention_single_position():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=4)
    enc = nn.encoder_forward(np.array([[5]]), params)
    state = nn.initial_decoder_state(params, enc)
    _e, alpha, beta, _tu = nn._attention(params, state.d, enc)
    assert np.allclose(alpha, 1.0)
    assert np.allclose(beta, enc.states[:, 0, :])


def test_attention_large_gap_dominates():
    cfg = toy_config(attn_dim=1)
    params = nn.init_params(cfg, seed=5)
    params.tensors["attn.v"][:] = 100.0
    params.tensors["attn.W3"][:] = 0.0
    params.tensors["attn.W2"][:] = 0.0
    params.tensors["attn.W2"][0, 0] = 100.0
    enc = nn.encoder_forward(np.array([[1, 2]]), params)
    enc.states = np.zeros_like(enc.states)
    enc.states[0, 0, 0] = 1.0  # energy ~ 100*tanh(100) vs 0
    enc.keys = enc.states @ params["attn.W2"]
    state = nn.initial_decoder_state(params, enc)
    _e, alpha, _beta, _tu = nn._attention(params, state.d, enc)
    assert alpha[0, 0] >= 1.0 - 1e-20


def test_attention_masks_padding():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=6)
    mask = np.array([[1.0, 1.0, 0.0, 0.0]])
    enc = nn.encoder_forward(np.array([[1, 2, 3, 4]]), params, mask)
    state = nn.initial_decoder_state(params, enc)
    _e, alpha, _beta, _tu = nn._attention(params, state.d, enc)
    assert np.all(alpha[0, 2:] == 0.0)
    assert alpha.sum() == pytest.approx(1.0)


def test_decoder_distribution_sums_to_one():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=7)
    enc = nn.encoder_forward(np.array([[1, 2, 3]]), params)
    state = nn.initial_decoder_state(params, enc)
    for tok in (0, 5, 19):
        state, probs = nn.decoder_step([tok], state, enc, params)
        assert probs.shape == (1, 20)
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)


def test_copy_boosts_source_token_when_logits_flat():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=8)
    params.tensors["out.U"][:] = 0.0
    enc = nn.encoder_forward(np.array([[9]]), params)
    state = nn.initial_decoder_state(params, enc)
    _state, probs = nn.decoder_step([1], state, enc, params)
    p = probs[0]
    assert p[9] > p[0]
    assert np.all(p[9] > np.delete(p, 9))


def test_copy_contribution_sums_over_positions():
    """A token appearing at source positions {2, 5} receives exp(e_2) +
    exp(e_5); checked against the distribution rebuilt directly from the
    energies."""
    cfg = toy_config()
    params = nn.init_params(cfg, seed=9)
    src = np.array([[4, 6, 11, 7, 8, 11]])  # token 11 at positions 2 and 5
    enc = nn.encoder_forward(src, params)
    state = nn.initial_decoder_state(params, enc)
    d_new = nn.decoder_step([3], state, enc, params)[0].d
    e, _alpha, beta, _tu = nn._attention(params, d_new, enc)
    probs, _ = nn._output_distribution(params, d_new, beta, e, enc)

    logits = np.concatenate([d_new, beta], axis=1) @ params["out.U"]
    scores = np.exp(logits[0])
    for j, tok in enumerate(src[0]):
        scores[tok] += np.exp(e[0, j])
    expected = scores / scores.sum()
    assert np.allclose(probs[0], expected, rtol=1e-10)
    copy_11 = np.exp(e[0, 2]) + np.exp(e[0, 5])
    assert scores[11] == pytest.approx(np.exp(logits[0, 11]) + copy_11)


def test_copy_monotone_in_energy():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=10)
    src = np.array([[4, 6, 11]])
    enc = nn.encoder_forward(src, params)
    state = nn.initial_decoder_state(params, enc)
    d_new = nn.decoder_step([3], state, enc, params)[0].d
    e, _alpha, beta, _tu = nn._attention(params, d_new, enc)
    p_before, _ = nn._output_distribution(params, d_new, beta, e, enc)
    e_up = e.copy()
    e_up[0, 2] += 1.0
    p_after, _ = nn._output_distribution(params, d_new, beta, e_up, enc)
    assert p_after[0, 11] > p_before[0, 11]


def test_loss_uniform_equals_log_vocab():
    """Zero parameters and a source enumerating every vocab id exactly once
    make the copy-augmented distribution uniform."""
    V = 12
    cfg = toy_config(vocab_size=V, max_index=2)
    params = nn.init_params(cfg, seed=11)
    for t in params.tensors.values():
        t[:] = 0.0
    src = np.arange(V).reshape(1, V)
    tgt = np.array([[3, 7, 1]])
    loss, _grads, _stats = nn.loss_and_grad(
        params, src, np.ones((1, V)), tgt, tgt, np.ones((1, 3))
    )
    assert loss == pytest.approx(np.log(V), rel=1e-12)


def test_loss_non_finite_raises():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=12)
    params.tensors["emb"][0, 0] = np.nan
    src, src_mask, tgt_in, tgt_out, tgt_mask = toy_batch()
    src[:] = 0
    with pytest.raises(nn.ModelError, match="batch 7"):
        nn.loss_and_grad(params, src, src_mask, tgt_in, tgt_out, tgt_mask, batch_label=7)


def test_float32_loss_of_an_underflowed_target_is_finite():
    """In the forward pass of loss_and_grad, a target probability that
    underflows to 0 in float32 scores -log(tiny), not log(0). A saturated
    decoder state d = 1 puts the target token's logit far below the rest,
    and no source position copies it. The floored term is a constant, so
    the backward gives every gradient exactly 0, not 0/0, also when the
    second step is a padded one."""
    cfg = toy_config(dtype="float32")
    params = nn.init_params(cfg, seed=12)
    params.tensors["dec.b"][:] = 1e4  # z = r = 1 and n = 1, so d = 1
    params.tensors["out.U"][: cfg.dec_hidden, 15] = -1e3
    tgt, mask = np.array([[15, 15]]), np.ones((1, 2))
    loss, _correct, _tokens, tape = nn._teacher_forced(
        params, np.array([[5, 6, 7]]), np.ones((1, 3)), tgt, tgt, mask
    )
    assert all(cache[3][3][0] == 0.0 for cache, _w in tape[-1])  # the target's score
    assert loss == pytest.approx(-np.log(np.finfo(np.float32).tiny))
    for tgt_mask in (mask, np.array([[1.0, 0.0]])):
        full_loss, grads, _stats = nn.loss_and_grad(
            params, np.array([[5, 6, 7]]), np.ones((1, 3)), tgt, tgt, tgt_mask
        )
        assert full_loss == loss
        assert all(not g.any() for g in grads.values())


def test_gradients_match_finite_differences():
    """Central finite differences on the toy configuration; every tensor
    must agree within 1e-4 relative error (64-bit floats)."""
    for name, (g, fd) in finite_difference_gradients().items():
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4, f"{name}: relative error {rel:.3e}"


def drawn_batch(rng, B, tail, V=20):
    """B rows of drawn source and target lengths, padded `tail` columns past
    the longest row, so the last `tail` steps are masked in every row."""
    src_len = rng.integers(1, 7, size=B)
    tgt_len = rng.integers(1, 6, size=B)
    S, T = src_len.max() + tail, tgt_len.max() + tail
    src_mask = (np.arange(S) < src_len[:, None]).astype(float)
    tgt_mask = (np.arange(T) < tgt_len[:, None]).astype(float)
    src, tgt_in, tgt_out = (rng.integers(0, V, size=shape) for shape in ((B, S), (B, T), (B, T)))
    return src, src_mask, tgt_in, tgt_out, tgt_mask


@pytest.mark.parametrize("enc_layers", [1, 2])
def test_gradients_match_per_step_reference(enc_layers):
    """The backward with its step-invariant products taken out of the time
    loops gives the loss and every gradient of the per-step reference to
    1e-10 relative error in float64, over drawn batches."""
    cfg = toy_config(enc_layers=enc_layers)
    rng = np.random.default_rng(enc_layers)
    for B in range(1, 5):
        for tail in range(3):
            seed = int(rng.integers(1 << 30))
            params = nn.init_params(cfg, seed, weight_scale=0.6, emb_scale=0.6)
            batch = drawn_batch(rng, B, tail)
            loss, grads, _stats = nn.loss_and_grad(params, *batch)
            ref_loss, ref_grads = reference_loss_and_grad(params, *batch)
            assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
            for name, ref in ref_grads.items():
                err = np.linalg.norm(grads[name] - ref)
                assert err <= 1e-10 * max(np.linalg.norm(ref), 1e-300), (B, tail, name, err)


def test_decoder_backward_frees_each_step_tape_as_it_reads_it(monkeypatch):
    """The reversed decoder loop drops a step's tape once it has read it:
    when a step's attention backward runs, the attention tanh tape of every
    later step is already freed."""
    params = nn.init_params(toy_config(), seed=4)
    batch = drawn_batch(np.random.default_rng(4), B=3, tail=1)
    real_attention, real_backward = nn._attention, nn._attention_backward
    tus, checked = [], []  # weakrefs to each step's tu, in step order

    def attention(*args):
        out = real_attention(*args)
        tus.append(weakref.ref(out[3]))
        return out

    def attention_backward(params, d, enc, tu, *rest):
        t = next(i for i, ref in enumerate(tus) if ref() is tu)
        assert all(ref() is None for ref in tus[t + 1 :]), t
        checked.append(t)
        return real_backward(params, d, enc, tu, *rest)

    monkeypatch.setattr(nn, "_attention", attention)
    monkeypatch.setattr(nn, "_attention_backward", attention_backward)
    nn.loss_and_grad(params, *batch)
    assert checked == list(reversed(range(len(tus)))) and len(tus) > 1


def test_encoder_backward_frees_each_layer_tape_before_the_layer_below(monkeypatch):
    """When layer 0's GRU backward runs, every step array layer 1's GRU
    pass cached is already freed. A layer's two directions run as one
    stacked pass, so the layer is told by call order: the forward passes
    run layer 0 then layer 1, the backward passes layer 1 then layer 0."""
    params = nn.init_params(toy_config(enc_layers=2), seed=5)
    batch = drawn_batch(np.random.default_rng(5), B=3, tail=1)
    real_forward, real_backward = nn._gru_forward, nn._gru_backward
    cached, checked = [], []  # cached[l]: weakrefs to layer l's step arrays

    def gru_forward(*args):
        hseq, steps = real_forward(*args)
        cached.append([weakref.ref(a) for step in steps for a in step])
        return hseq, steps

    def gru_backward(*args):
        layer = len(cached) - 1 - len(checked)
        if layer == 0:
            assert all(ref() is None for ref in cached[1])
        checked.append(layer)
        return real_backward(*args)

    monkeypatch.setattr(nn, "_gru_forward", gru_forward)
    monkeypatch.setattr(nn, "_gru_backward", gru_backward)
    nn.loss_and_grad(params, *batch)
    assert checked == [1, 0] and len(cached) == 2 and cached[1]


def test_loss_and_grad_overwrites_the_gradients_it_is_handed():
    """Gradient arrays handed in are zeroed and take the batch's gradients:
    the same objects come back, equal to a fresh call's gradients."""
    params = nn.init_params(toy_config(), seed=6)
    batch = drawn_batch(np.random.default_rng(6), B=3, tail=1)
    loss, fresh, _stats = nn.loss_and_grad(params, *batch)
    stale = {k: np.full_like(g, 7.0) for k, g in fresh.items()}
    reused_loss, reused, _stats = nn.loss_and_grad(params, *batch, grads=stale)
    assert reused_loss == loss
    for k, g in fresh.items():
        assert reused[k] is stale[k] and np.array_equal(reused[k], g), k


def test_loss_decreases_on_memorizable_pair():
    cfg = toy_config(vocab_size=30, dim=16, type_dim=8, enc_hidden=12, dec_hidden=16, attn_dim=12)
    params = nn.init_params(cfg, seed=2)
    opt = nn.Adam(params, lr=1e-2)
    src = np.array([[21, 22, 23, 24, 25]])
    tgt = [26, 27, 21, 28]
    losses = []
    for _ in range(50):
        loss, grads, _ = nn.loss_and_grad(
            params,
            src,
            np.ones((1, 5)),
            np.array([[2] + tgt]),
            np.array([tgt + [3]]),
            np.ones((1, 5)),
        )
        nn.clip_gradients(grads, 5.0)
        opt.step(params, grads)
        losses.append(loss)
    assert losses[-1] < 0.5 * losses[0]


def test_clip_gradients():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}  # norm 5 -> untouched
    a = grads["a"]
    assert nn.clip_gradients(grads, 5.0) == pytest.approx(5.0)
    assert grads["a"] is a
    assert np.array_equal(grads["a"], [3.0, 0.0])

    small = {"a": np.array([1.5, 2.0])}  # norm 2.5
    assert nn.clip_gradients(small, 5.0) == pytest.approx(2.5)
    assert np.array_equal(small["a"], [1.5, 2.0])

    big = {"a": np.array([6.0, 8.0])}  # norm 10 -> scaled by 0.5
    a = big["a"]
    assert nn.clip_gradients(big, 5.0) == pytest.approx(10.0)
    assert big["a"] is a  # scaled in place
    assert np.allclose(big["a"], [3.0, 4.0])
    total = np.sqrt(sum(np.sum(g**2) for g in big.values()))
    assert total == pytest.approx(5.0)

    zeros = {"a": np.zeros(3)}
    assert nn.clip_gradients(zeros, 5.0) == 0.0
    assert np.all(zeros["a"] == 0.0)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_step_equals_the_reference_update(dtype):
    """Over 4 steps of gradients spanning eight orders of magnitude,
    Adam.step leaves the parameters and both moments bit-identical to the
    formula with one temporary per operation."""
    params = nn.init_params(toy_config(dtype=dtype), seed=4)
    opt = nn.Adam(params, lr=1e-2)
    tensors = {k: t.copy() for k, t in params.tensors.items()}
    m = {k: np.zeros_like(t) for k, t in tensors.items()}
    v = {k: np.zeros_like(t) for k, t in tensors.items()}
    rng = np.random.default_rng(0)
    for t in range(1, 5):
        grads = {
            k: (rng.normal(size=p.shape) * 10.0 ** rng.uniform(-6, 2, size=p.shape)).astype(p.dtype)
            for k, p in tensors.items()
        }
        opt.step(params, grads)
        reference_adam_step(tensors, m, v, t, 1e-2, grads)
    for k in tensors:
        assert np.array_equal(params[k], tensors[k]), k
        assert np.array_equal(opt.m[k], m[k]), k
        assert np.array_equal(opt.v[k], v[k]), k


def test_beam_width_one_is_greedy():
    cfg = toy_config()
    for seed in range(5):
        params = nn.init_params(cfg, seed=seed, weight_scale=0.4)
        src = np.random.default_rng(seed).integers(5, 20, size=(6,))
        hyp = nn.beam_search(src, params, width=1, max_len=8, bos_id=2, eos_id=3)
        toks, logp = greedy_decode(src, params, max_len=8, bos_id=2, eos_id=3)
        assert hyp.tokens == tuple(toks)
        assert hyp.logp == pytest.approx(logp, abs=1e-12)


def test_beam_five_at_least_greedy_100_draws():
    cfg = toy_config()
    for i in range(100):
        params = nn.init_params(cfg, seed=100 + i, weight_scale=0.4)
        src = np.random.default_rng(i).integers(5, 20, size=(6,))
        h5 = nn.beam_search(src, params, width=5, max_len=8, bos_id=2, eos_id=3)
        h1 = nn.beam_search(src, params, width=1, max_len=8, bos_id=2, eos_id=3)
        assert h5.logp >= h1.logp - 1e-9


def test_decoder_step_gives_the_training_loss():
    """Feeding the gold prefix through decoder_step, row by row, gives
    loss_and_grad's mean -log p(gold): decoding and training share one step."""
    cfg = toy_config()
    params = nn.init_params(cfg, seed=13, weight_scale=0.4)
    src, src_mask, tgt_in, tgt_out, tgt_mask = toy_batch(seed=4)
    loss, _grads, _stats = nn.loss_and_grad(params, src, src_mask, tgt_in, tgt_out, tgt_mask)
    nll = []
    for b in range(src.shape[0]):
        enc = nn.encoder_forward(src[b : b + 1], params, src_mask[b : b + 1])
        state = nn.initial_decoder_state(params, enc)
        for t in range(int(tgt_mask[b].sum())):
            state, probs = nn.decoder_step([tgt_in[b, t]], state, enc, params)
            nll.append(-np.log(probs[0, tgt_out[b, t]]))
    assert abs(np.mean(nll) - loss) <= 1e-9


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-9)])
def test_beam_matches_reference_100_draws(dtype, tol):
    """The hoisted decoder step and the trimmed beam pick the tokens the
    first-written ones pick, with the same log-probability."""
    cfg = toy_config(dtype=dtype)
    for i in range(100):
        params = nn.init_params(cfg, seed=100 + i, weight_scale=0.4)
        src = np.random.default_rng(i).integers(5, 20, size=(6,))
        hyp = nn.beam_search(src, params, width=5, max_len=8, bos_id=2, eos_id=3)
        ref = reference_beam_search(src, params, width=5, max_len=8, bos_id=2, eos_id=3)
        assert hyp.tokens == ref.tokens, i
        assert abs(hyp.logp - ref.logp) <= tol, i
        enc = nn.encoder_forward(src, params)
        state = nn.initial_decoder_state(params, enc)
        _state, probs = nn.decoder_step([2], state, enc, params)
        _ref_state, ref_probs = reference_decoder_step([2], state, enc, params)
        assert np.allclose(probs, ref_probs, rtol=tol, atol=0.0), i


@pytest.mark.parametrize("width", [20, 25])
@pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-9)])
def test_beam_wider_than_the_vocabulary_matches_reference(dtype, tol, width):
    """A width of at least the vocabulary size clamps the top-k to every
    token of every live hypothesis, and the beam still picks what the
    first-written one picks, with the same log-probability."""
    cfg = toy_config(dtype=dtype)
    assert width >= cfg.vocab_size == 20
    for i in range(100):
        params = nn.init_params(cfg, seed=100 + i, weight_scale=0.4)
        src = np.random.default_rng(i).integers(5, 20, size=(6,))
        hyp = nn.beam_search(src, params, width=width, max_len=8, bos_id=2, eos_id=3)
        ref = reference_beam_search(src, params, width=width, max_len=8, bos_id=2, eos_id=3)
        assert hyp.tokens == ref.tokens, i
        assert abs(hyp.logp - ref.logp) <= tol, i


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-9)])
def test_decoder_step_matches_reference_at_every_step(dtype, tol):
    """Drawn token prefixes, fed one id a step through decoder_step and
    through the first-written step, give the same probabilities at every
    step: a step that carried a stale context projection would differ from
    the second step on."""
    cfg = toy_config(dtype=dtype)
    rng = np.random.default_rng(2024)
    for i in range(50):
        params = nn.init_params(cfg, seed=int(rng.integers(1 << 31)), weight_scale=0.4)
        src = rng.integers(5, 20, size=int(rng.integers(1, 9)))
        prefix = [2] + rng.integers(0, 20, size=int(rng.integers(1, 10))).tolist()
        enc = nn.encoder_forward(src, params)
        state = ref_state = nn.initial_decoder_state(params, enc)
        for t, tok in enumerate(prefix):
            state, probs = nn.decoder_step([tok], state, enc, params)
            ref_state, ref_probs = reference_decoder_step([tok], ref_state, enc, params)
            assert np.allclose(probs, ref_probs, rtol=tol, atol=0.0), (i, t)


def test_padded_row_decodes_as_alone():
    """A one-row float64 source right-padded by a drawn number of positions,
    whose padding holds ids its real tokens use too, gives decoder_step at
    every step of a drawn prefix the probabilities the row gets alone, to
    1e-10 relative error: padding gets no attention and no copy mass."""
    cfg = toy_config()
    rng = np.random.default_rng(31)
    for i in range(40):
        params = nn.init_params(cfg, seed=int(rng.integers(1 << 31)), weight_scale=0.6)
        n, pad = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        src = rng.integers(5, 20, size=n)
        padded = np.concatenate([src, rng.choice(src, size=pad)])[None]
        alone = nn.encoder_forward(src, params)
        enc = nn.encoder_forward(padded, params, (np.arange(n + pad) < n)[None])
        state = alone_state = nn.initial_decoder_state(params, enc)
        for t, tok in enumerate([2] + rng.integers(0, 20, size=5).tolist()):
            state, probs = nn.decoder_step([tok], state, enc, params)
            alone_state, want = nn.decoder_step([tok], alone_state, alone, params)
            assert np.allclose(probs, want, rtol=1e-10, atol=0.0), (i, n, pad, t)


def test_beam_search_rejects_width_below_one():
    params = nn.init_params(toy_config(), seed=0)
    with pytest.raises(nn.ModelError, match="beam width must be >= 1"):
        nn.beam_search(np.array([5, 6, 7]), params, width=0, max_len=4, bos_id=2, eos_id=3)


def test_beam_width_one_ending_at_its_first_step_returns_the_empty_hypothesis(monkeypatch):
    """When the first step ranks <eos> first, a width-1 beam has no live
    hypothesis left and stops after that one decoder_step."""
    params = nn.init_params(toy_config(), seed=0, weight_scale=0.4)
    real_step, fed = nn.decoder_step, []

    def eos_first(prev_ids, state, enc, params):
        fed.append(list(prev_ids))
        state, probs = real_step(prev_ids, state, enc, params)
        probs[0, 3] = 1.0
        return state, probs

    monkeypatch.setattr(nn, "decoder_step", eos_first)
    hyp = nn.beam_search(np.array([5, 6, 7]), params, width=1, max_len=8, bos_id=2, eos_id=3)
    assert hyp == nn.Hypothesis((), 0.0)
    assert fed == [[2]]


def test_decoder_step_refuses_two_source_rows():
    params = nn.init_params(toy_config(), seed=0)
    enc = nn.encoder_forward(np.array([[5, 6, 7], [7, 6, 5]]), params)
    state = nn.initial_decoder_state(params, enc)
    with pytest.raises(nn.ModelError, match="decoder_step decodes one source row"):
        nn.decoder_step([2], state, enc, params)


def test_beam_max_len_one():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=0, weight_scale=0.4)
    hyp = nn.beam_search(np.array([5, 6, 7]), params, width=3, max_len=1, bos_id=2, eos_id=3)
    assert len(hyp.tokens) <= 1


def test_beam_logp_non_increasing():
    cfg = toy_config()
    params = nn.init_params(cfg, seed=42, weight_scale=0.4)
    enc = nn.encoder_forward(np.array([[5, 6, 7]]), params)
    state = nn.initial_decoder_state(params, enc)
    logp = 0.0
    prev = 2
    for _ in range(6):
        state, probs = nn.decoder_step([prev], state, enc, params)
        prev = int(probs[0].argmax())
        step = float(np.log(probs[0][prev]))
        assert step <= 0.0
        logp += step
    assert logp <= 0.0


def test_training_determinism_bit_identical():
    cfg = toy_config(dtype="float32")

    def run():
        params = nn.init_params(cfg, seed=5)
        opt = nn.Adam(params, lr=1e-3)
        src, src_mask, tgt_in, tgt_out, tgt_mask = toy_batch(seed=3)
        for _ in range(5):
            _loss, grads, _ = nn.loss_and_grad(params, src, src_mask, tgt_in, tgt_out, tgt_mask)
            nn.clip_gradients(grads, 5.0)
            opt.step(params, grads)
        return params

    a, b = run(), run()
    for name in a.names():
        assert np.array_equal(a.tensors[name], b.tensors[name]), name


@pytest.mark.parametrize("name", ["model.npz", "model.ckpt"])
def test_checkpoint_round_trip(tmp_path, name):
    """The checkpoint is written at exactly its path, whatever its suffix."""
    cfg = toy_config()
    params = nn.init_params(cfg, seed=9)
    path = str(tmp_path / name)
    nn.save_checkpoint(path, params, vocab_hash="abc123", extra={"note": "test"})
    assert os.listdir(tmp_path) == [name]
    loaded, meta = nn.load_checkpoint(path, expect_vocab_hash="abc123")
    assert meta["extra"]["note"] == "test"
    assert loaded.config == cfg
    for name in params.names():
        assert np.array_equal(loaded.tensors[name], params.tensors[name])
    with pytest.raises(nn.ModelError):
        nn.load_checkpoint(path, expect_vocab_hash="wrong")


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    """A save that raises part-way leaves the previous checkpoint loadable
    and no other file beside it."""
    path = str(tmp_path / "model.npz")
    params = nn.init_params(toy_config(), seed=9)
    nn.save_checkpoint(path, params, vocab_hash="abc123")

    def savez(fh, **arrays):
        fh.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez)
    with pytest.raises(OSError, match="disk full"):
        nn.save_checkpoint(path, nn.init_params(toy_config(), seed=10), vocab_hash="abc123")
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["model.npz"]
    loaded, _meta = nn.load_checkpoint(path, expect_vocab_hash="abc123")
    for name in params.names():
        assert np.array_equal(loaded.tensors[name], params.tensors[name])


@pytest.mark.parametrize(
    "change, message",
    [
        ({"dtype": "float16"}, "dtype must be one of ('float32', 'float64'), not 'float16'"),
        ({"type_dim": 8}, "type_dim must split dim into two non-empty parts"),
    ],
    ids=["dtype", "type-dim"],
)
def test_checkpoint_config_checked_at_load(tmp_path, change, message):
    """A stored config that ModelConfig refuses fails in load_checkpoint,
    naming the file."""
    path = str(tmp_path / "model.npz")
    nn.save_checkpoint(path, nn.init_params(toy_config(), seed=9), vocab_hash="abc123")
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["config"].update(change)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(nn.ModelError, match=re.escape(f"{path}: {message}")):
        nn.load_checkpoint(path, expect_vocab_hash="abc123")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta, arrays: meta.pop("config"), "KeyError: 'config'"),
        (lambda meta, arrays: meta.pop("vocab_hash"), "KeyError: 'vocab_hash'"),
        (lambda meta, arrays: meta["config"].update(width=3), "TypeError: "),
        (lambda meta, arrays: arrays.pop("meta"), "KeyError: "),
        (lambda meta, arrays: arrays.pop("t3"), "KeyError: "),
        (lambda meta, arrays: meta.update(tensor_names=5), "TypeError: "),
        (lambda meta, arrays: meta.update(version=99), "unsupported checkpoint version 99"),
        (lambda meta, arrays: meta.update(vocab_hash="other"), "checkpoint vocabulary hash does not match"),
        (None, "ValueError: "),
    ],
    ids=[
        "no-config", "no-vocab-hash", "unknown-config-key", "no-meta", "no-tensor", "tensor-names-not-list",
        "version", "vocab-hash", "text-file",
    ],
)
def test_malformed_checkpoint_names_file(tmp_path, edit, message):
    """Whatever is wrong with a checkpoint, load_checkpoint fails with a
    ModelError naming the file."""
    path = str(tmp_path / "model.npz")
    nn.save_checkpoint(path, nn.init_params(toy_config(), seed=9), vocab_hash="abc123")
    if edit is None:
        with open(path, "w") as fh:
            fh.write("not a checkpoint\n")
    else:
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        edit(meta, arrays)
        if "meta" in arrays:
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)
    with pytest.raises(nn.ModelError) as info:
        nn.load_checkpoint(path, expect_vocab_hash="abc123")
    assert str(info.value).startswith(f"{path}: {message}")


def test_checkpoint_tensor_shapes_checked(tmp_path):
    """A tensor whose shape disagrees with the stored config fails at load,
    naming the tensor and both shapes; so does a missing tensor."""
    cfg = toy_config()
    path = str(tmp_path / "model.npz")
    params = nn.init_params(cfg, seed=9)
    params.tensors["dec.U"] = params.tensors["dec.U"][:, :-1]
    nn.save_checkpoint(path, params, vocab_hash="abc123")
    with pytest.raises(nn.ModelError, match=r"'dec\.U' has shape \(8, 23\), expected \(8, 24\)"):
        nn.load_checkpoint(path, expect_vocab_hash="abc123")
    params = nn.init_params(cfg, seed=9)
    del params.tensors["attn.v"]
    nn.save_checkpoint(path, params, vocab_hash="abc123")
    with pytest.raises(nn.ModelError, match=r"'attn\.v' has shape None, expected \(\d+,\)"):
        nn.load_checkpoint(path, expect_vocab_hash="abc123")


def test_checkpoint_tensor_dtypes_checked(tmp_path):
    """A tensor whose dtype is not the stored config's fails at load, naming
    the file, the tensor and both dtypes, instead of running at another
    precision."""
    path = str(tmp_path / "model.npz")
    params = nn.init_params(toy_config(dtype="float32"), seed=9)
    params.tensors["dec.U"] = params.tensors["dec.U"].astype(np.float64)
    nn.save_checkpoint(path, params, vocab_hash="abc123")
    with pytest.raises(nn.ModelError) as info:
        nn.load_checkpoint(path, expect_vocab_hash="abc123")
    assert str(info.value) == f"{path}: tensor 'dec.U' has dtype float64, expected float32"
