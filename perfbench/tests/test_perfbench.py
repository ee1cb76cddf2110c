"""Tests of the benchmark's own helpers: python -m pytest perfbench/tests"""

import json
import os
import types
from dataclasses import replace

import pytest

import workloads
from annosql import harness
from hostspeed import REFERENCE_PROBE_S, HostClock
from tracing import HOOKS, Hook, TraceError, Tracer, self_times
from workloads import Inputs, make_corpus, percentile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(1, 101), 90) == 90
    assert percentile(range(120, 0, -1), 50) == 60
    assert percentile(range(1, 121), 90) == 108
    with pytest.raises(ValueError, match="fewer than 10"):
        percentile(range(1, 100), 90)
    with pytest.raises(ValueError):
        percentile(range(1, 20), 50)


def test_host_clock_scales_to_reference_speed():
    clock = HostClock()
    assert clock.seconds(1.0, 3.0) == 2.0  # no probes: wall time
    # Probes at 1.0 and 2.0 ran at half the reference speed, the one at 5.0
    # at the reference speed; each tick also spent `warm` warming up.
    warm = 0.001
    clock.at.extend([1.0, 2.0, 5.0])
    clock.timed.extend([2 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S, REFERENCE_PROBE_S])
    clock.took.extend(t + warm for t in clock.timed)
    work = 2.0 - 4 * REFERENCE_PROBE_S - 2 * warm  # the ticks' own time is not work
    assert clock.seconds(1.0, 3.0) == pytest.approx(work / 2)
    assert clock.seconds(3.0, 4.0) == pytest.approx(1.0 * 3 / 4)  # no probe near: its neighbours
    assert clock.seconds(2.2, 2.3) == pytest.approx(0.1 / 2)  # the probe within WINDOW_S of it
    assert clock.seconds(4.5, 6.0) == pytest.approx(1.5 - REFERENCE_PROBE_S - warm)


def test_self_time_on_hand_built_span_tree():
    #        0: root [0, 10]
    #   1: [1, 4]   2: [3, 6]   4: [8, 12] (runs past its parent)
    #   3: [2, 3] under 1
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 3.0, 2.0, 8.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    # The root's children cover [1, 6] and [8, 10]: overlap counts once and
    # the part past the root's end not at all.
    assert self_times(parent, start, end) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_tracer_records_nesting_and_fails_loudly():
    ns = types.SimpleNamespace()
    ns.inner = lambda: None
    ns.outer = lambda: ns.inner()
    ns.unused = lambda: None
    tracer = Tracer()
    hooks = (Hook(ns, "outer", "outer"), Hook(ns, "inner", "inner"))
    with tracer.installed(hooks):
        ns.outer()
        ns.outer()
    summary = tracer.summary()
    assert summary["outer"]["calls"] == summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"] - summary["inner"]["total_s"] + 1e-9
    assert list(tracer.parent) == [-1, 0, -1, 2]

    with pytest.raises(TraceError, match="never called"):
        with Tracer().installed((Hook(ns, "unused", "unused"),)):
            ns.outer()
    with pytest.raises(TraceError, match="cannot hook"):
        with Tracer().installed((Hook(ns, "renamed", "renamed"),)):
            pass
    assert ns.unused.__name__ == "<lambda>"  # hooks are removed again


def test_every_hook_names_an_existing_function():
    for hooks in HOOKS.values():
        for hook in hooks:
            assert callable(getattr(hook.owner, hook.attr)), hook.name


def test_seed_changes_inputs_not_corpus_shape():
    a, b = make_corpus(workloads.TRAIN_CORPUS, 1), make_corpus(workloads.TRAIN_CORPUS, 2)
    assert [r["question"] for r in a.records] != [r["question"] for r in b.records]
    assert (len(a.records), len(a.tables)) == (len(b.records), len(b.tables)) == workloads.TRAIN_CORPUS
    again = make_corpus(workloads.TRAIN_CORPUS, 1)
    assert again.records == a.records


def test_reference_digest_is_stored():
    """Annotation of the reference corpus is what the benchmark was written
    against; a change that alters it on purpose updates REFERENCE_DIGEST."""
    assert workloads.reference_digest() == workloads.REFERENCE_DIGEST


def test_decoder_step_calls_per_question():
    """Today's beam makes every one of its 40 steps, on 5 live hypotheses
    after the first: 1 + 39 * 5 calls a question."""
    corpus = make_corpus(workloads.TRAIN_CORPUS, workloads.REFERENCE_SEED)
    pairs, vocab, _ = harness.build_training_pairs(corpus.examples, workloads.DESK)
    params, _ = harness.train_model(pairs, vocab, replace(workloads.DESK, epochs=10))
    held_out = make_corpus((12, 4), 3)
    inp = Inputs(corpus, pairs, vocab, held_out, params, vocab)
    decoding = [h for h in HOOKS["answer"] if h.name.startswith("model.")]
    tracer = Tracer()
    with tracer.installed(decoding):
        results = workloads.one_pass("answer", inp)
    per_q = {
        "calls": tracer.calls["model.decoder_step"] / tracer.calls["model.beam_search"],
        "rows": tracer.counters["decoder_rows"] / tracer.calls["model.decoder_step"],
        "encoder": tracer.calls["model.encoder_forward"] / tracer.calls["model.beam_search"],
    }
    # 12 questions, each through evaluate() once and translate_question twice
    assert tracer.calls["model.beam_search"] == sum(r["attempted"] for r in results) == 36
    assert per_q == {"calls": 196, "rows": 1.0, "encoder": 1.0}


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.ANNOTATE_CORPUS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
