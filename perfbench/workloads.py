"""Inputs, phases and metrics of the annosql benchmark.

Every run makes its inputs from the seed, then runs the three phases a user
of annosql goes through: annotate a corpus, train on it, answer questions on
tables the model never saw. Each phase is a stream of units, each one call a
user would make, and the scheduler interleaves the streams so that every
phase samples the whole run: on a shared host, speed drifts over seconds,
and a phase measured in one stretch would catch only part of it. Timings
are scaled to a reference host speed (hostspeed.py). The workload's own
phase gets the measuring time given on the command line, the others a fixed
share, so every end-to-end metric is measured on every workload. All calls
are closed-loop with one client: the next call starts when the previous one
returns.
"""

import glob
import hashlib
import json
import os
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from annosql import harness, model, synth
from annosql.encoding import Vocabulary
from annosql.meta import EMPTY_EMBEDDINGS, EMPTY_LEXICON
from annosql.resolve import ColumnBinding, SymbolTable, ValueBinding
from annosql.sqlgen import parse_annotated_sql, resolve_symbols, serialize_sql, sketch_tokens, sql_tokens

from hostspeed import HostClock
from tracing import HOOKS, Tracer

# The acceptance criterion-6 desk configuration.
DESK = harness.Config(
    dim=96, type_dim=48, enc_hidden=64, enc_layers=2, dec_hidden=128, attn_dim=64,
    batch_size=32, lr=2e-3, seed=11, dtype="float32", beam_width=5, max_decode_len=40,
)

PHASES = ("annotate", "train", "answer")
# (questions, tables) of the corpus the annotate phase works on; 200 tables
# give a per-table cache a large working set, 20 a small one.
ANNOTATE_CORPUS = {"annotate": (2000, 200), "train": (200, 20), "answer": (200, 20)}
TRAIN_CORPUS = (200, 20)
# The held-out split: every evaluate() call takes all of it, as run_eval
# does. A pass answers it interactively twice, so the latency percentiles
# rest on 200 samples from two stretches of the run: with one sweep, the
# fewest that leave 10 beyond p90, p90 spread past its bound between sets
# of runs.
HELD_OUT = (100, 20)
# Measuring seconds of a phase that is not the workload's own; the answer
# phase always makes whole passes, at least one.
SECONDARY_SECONDS = {"annotate": 2.0, "train": 3.0, "answer": 0.0}
# The answer model is trained once per checkout on the criterion-6 corpus.
REFERENCE_SEED = 7
MODEL_EPOCHS = 60
TRAIN_EPOCHS = 2  # epochs of one train_model call
SETUP_REPEATS, SETUP_SECONDS = 3, 3.0  # set up at least this often and this long
ACC_EX_FLOOR = 0.75
# reference_digest() of the program as this benchmark was written. Every run
# checks it, after its phases, so annotation state a phase leaves behind
# cannot change it unseen. A change that alters annotation on purpose
# updates it and says so.
REFERENCE_DIGEST = "31aa437b1e538da44c69eb2a833cd1b75eebeda766e2640b66703d1fc7a834d3"
# Derived corpus seeds keep the three corpora of a run distinct.
HELD_OUT_SEED_OFFSET = 10_000
ANNOTATE_SEED_OFFSET = 20_000

END_TO_END = {
    "setup_s": "s",
    "annotate_qps": "questions/s",
    "train_examples_per_s": "examples/s",
    "eval_qps": "questions/s",
    "answer_latency_p50_ms": "ms",
    "answer_latency_p90_ms": "ms",
    "answer_acc_ex": "fraction",
    "answer_acc_lf": "fraction",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "mentions.detect_column_mentions.self_ms_per_q": "ms/q",
    "mentions.detect_value_mentions.self_ms_per_q": "ms/q",
    "mentions.edit_closeness.calls_per_q": "calls/q",
    "mentions.value_affinity.calls_per_q": "calls/q",
    "mentions.value_affinity.self_ms_per_q": "ms/q",
    "resolve.annotate.ms_per_q": "ms/q",
    "resolve.build_match_graph.self_ms_per_q": "ms/q",
    "resolve.max_bipartite_matching.self_ms_per_q": "ms/q",
    "resolve.assign_indices.self_ms_per_q": "ms/q",
    "encoding.encode_question.self_ms_per_q": "ms/q",
    "sqlgen.align_gold_sql.self_ms_per_q": "ms/q",
    "model.loss_and_grad.self_ms_per_batch": "ms/batch",
    "model.encoder_forward.ms_per_call": "ms/call",
    "model.clip_gradients.ms_per_batch": "ms/batch",
    "model.Adam.step.ms_per_batch": "ms/batch",
    "model.loss_and_grad.src_fill": "fraction",
    "model.decoder_step.calls_per_q": "calls/q",
    "model.decoder_step.rows_per_call": "rows/call",
    "model.decoder_step.ms_per_call": "ms/call",
    "model.beam_search.self_ms_per_q": "ms/q",
    "model.encoder_forward.calls_per_q": "calls/q",
    "sqlgen.parse_annotated_sql.self_ms_per_q": "ms/q",
    "sqlgen.resolve_symbols.self_ms_per_q": "ms/q",
    "sqlgen.execute.self_ms_per_q": "ms/q",
    "harness.evaluate.self_ms_per_q": "ms/q",
    "trace.overhead_ratio": "ratio",
}


def percentile(values, q):
    """Nearest-rank q-th percentile; at least 10 samples must lie beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{q} of {len(ordered)} samples has fewer than 10 samples beyond it")
    return ordered[rank - 1]


def log(obj):
    print(json.dumps(obj), file=sys.stderr, flush=True)


# ---------------------------------------------------------------- inputs


@dataclass
class Corpus:
    examples: list  # prepared by synth.generate_corpus
    tables: dict
    records: list


@dataclass
class Inputs:
    annotate: Corpus
    pairs: list
    train_vocab: object
    held_out: Corpus
    params: object
    vocab: object


def make_corpus(shape, seed):
    n_questions, n_tables = shape
    return Corpus(*synth.generate_corpus(n_questions, n_tables=n_tables, seed=seed, config=DESK))


def reference_model(root, cache_dir):
    """Checkpoint and vocabulary of the answer model, trained on first use.

    Training is the build step of a checkout: the files are keyed by the
    program's sources and the training settings, and set-up only loads them.
    """
    key = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "annosql", "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            key.update(fh.read())
    key.update(repr((DESK, MODEL_EPOCHS, REFERENCE_SEED, TRAIN_CORPUS)).encode())
    stem = os.path.join(cache_dir, f"answer-model-{key.hexdigest()[:16]}")
    ckpt, vocab_path = stem + ".npz", stem + ".vocab"
    if not (os.path.exists(ckpt) and os.path.exists(vocab_path)):
        os.makedirs(cache_dir, exist_ok=True)
        started = perf_counter()
        corpus = make_corpus(TRAIN_CORPUS, REFERENCE_SEED)
        pairs, vocab, _ = harness.build_training_pairs(corpus.examples, DESK)
        params, history = harness.train_model(pairs, vocab, replace(DESK, epochs=MODEL_EPOCHS))
        model.save_checkpoint(stem + ".tmp.npz", params, vocab.content_hash())
        vocab.save(stem + ".tmp.vocab")
        os.replace(stem + ".tmp.vocab", vocab_path)
        os.replace(stem + ".tmp.npz", ckpt)
        log({"built": os.path.basename(stem), "seconds": round(perf_counter() - started, 3),
             "final_loss": history[-1]["loss"]})
    return ckpt, vocab_path


def setup(workload, seed, model_files):
    """Everything a run needs before the first measured call."""
    train = make_corpus(TRAIN_CORPUS, seed)
    pairs, train_vocab, _ = harness.build_training_pairs(train.examples, DESK)
    held_out = make_corpus(HELD_OUT, seed + HELD_OUT_SEED_OFFSET)
    shape = ANNOTATE_CORPUS[workload]
    annotate = train if shape == TRAIN_CORPUS else make_corpus(shape, seed + ANNOTATE_SEED_OFFSET)
    ckpt, vocab_path = model_files
    vocab = Vocabulary.load(vocab_path)
    params, _meta = model.load_checkpoint(ckpt, expect_vocab_hash=vocab.content_hash())
    return Inputs(annotate, pairs, train_vocab, held_out, params, vocab)


# ---------------------------------------------------------------- phases
# A phase is an endless generator of units. A unit's result holds its timing
# samples, what the checks need, and the operations it attempted and failed.
# The checks run after the units, outside any trace, because scoring calls
# functions the tracer hooks.


def fresh_examples(corpus):
    """New, unprepared Examples of a corpus's records."""
    out = []
    for rec in corpus.records:
        table_id = rec["table_id"]
        gold = harness.gold_from_wikisql(rec["sql"], corpus.tables[table_id].schema, table_id)
        out.append(harness.Example(rec["question"], table_id, gold))
    return out


def _digest(examples):
    h = hashlib.sha256()
    for ex in examples:
        aligned = sketch_tokens(ex.aligned) if ex.aligned is not None else None
        h.update(json.dumps([ex.encoded_src, aligned]).encode())
    return h.hexdigest()


def reference_digest():
    """Digest of the REFERENCE_SEED corpus: its records, and the encoded
    source and sketch tokens prepare_examples gives fresh Examples of them."""
    corpus = make_corpus(TRAIN_CORPUS, REFERENCE_SEED)
    examples = fresh_examples(corpus)
    harness.prepare_examples(examples, corpus.tables, DESK)
    h = hashlib.sha256(json.dumps(corpus.records, sort_keys=True).encode())
    h.update(_digest(examples).encode())
    return h.hexdigest()


def annotate_units(inp):
    """prepare_examples over fresh Examples of the whole corpus, one call a
    unit, as run_train prepares a split."""
    corpus = inp.annotate
    while True:
        started = perf_counter()
        examples = fresh_examples(corpus)
        harness.prepare_examples(examples, corpus.tables, DESK)
        yield {
            "timed": [(started, perf_counter(), len(examples))],
            "digest": _digest(examples),
            "attempted": len(examples),
            "failed": sum(ex.aligned is None for ex in examples),
        }


def train_units(inp):
    """train_model for a fixed number of epochs, with no stop_fn."""
    config = replace(DESK, epochs=TRAIN_EPOCHS)
    n = len(inp.pairs)
    while True:
        marks = [perf_counter()]
        _params, history = harness.train_model(
            inp.pairs, inp.train_vocab, config, log_fn=lambda _entry: marks.append(perf_counter())
        )
        losses = [h["loss"] for h in history]
        yield {
            "timed": [(a, b, n) for a, b in zip(marks, marks[1:])],
            "losses": losses,
            "attempted": len(history),
            "failed": sum(not np.isfinite(x) for x in losses),
        }


def _evaluate_unit(inp):
    held = inp.held_out
    n = len(held.examples)
    result = {"timed": [], "counts": None, "attempted": n, "failed": 0}
    started = perf_counter()
    try:
        report = harness.evaluate(held.examples, held.tables, inp.params, inp.vocab, DESK)
    except Exception:
        traceback.print_exc()
        result["failed"] = n
    else:
        result["timed"].append((started, perf_counter(), n))
        result["counts"] = (report.lf, report.qm, report.ex)
    return result


def _interactive_units(inp):
    held = inp.held_out
    for ex in held.examples:
        result = {"timed": [], "output": None, "attempted": 1, "failed": 0}
        started = perf_counter()
        try:
            result["output"] = harness.translate_question(
                ex.question, ex.table_id, held.tables, inp.params, inp.vocab, DESK,
                EMPTY_LEXICON, EMPTY_EMBEDDINGS,
            )
        except Exception:
            traceback.print_exc()
            result["failed"] = 1
        else:
            result["timed"].append((started, perf_counter(), 1))
        yield result


def answer_units(inp):
    """Passes over the held-out split. A pass is one unit per question that
    runs translate_question on it, one unit that runs evaluate() on all of
    it, and the interactive units again, so the two latency sweeps lie apart."""
    while True:
        yield from _interactive_units(inp)
        yield _evaluate_unit(inp)
        yield from _interactive_units(inp)


UNITS = {"annotate": annotate_units, "train": train_units, "answer": answer_units}


def _prediction(out, schema):
    """The ConcreteSql a translate_question output stands for, or None."""
    if out["sql"] is None:
        return None
    ann = out["annotation"]
    symbols = SymbolTable(
        {int(k[1:]): ColumnBinding(v["name"], v["position"]) for k, v in ann["columns"].items()},
        {int(k[1:]): ValueBinding(v["surface"], v["position"], v["column"]) for k, v in ann["values"].items()},
    )
    return resolve_symbols(parse_annotated_sql(out["sketch"].split()), symbols, schema)


def interactive_counts(outputs, examples, tables):
    """LF/QM/EX counts of translate_question outputs, scored as evaluate() scores."""
    counts = [0, 0, 0]
    for out, ex in zip(outputs, examples):
        if out is None:
            continue
        bundle = tables[ex.table_id]
        pred = _prediction(out, bundle.schema)
        if pred is not None and serialize_sql(pred) != out["sql"]:
            raise ValueError(f"cannot rebuild the SQL of {ex.question!r}")
        counts[0] += pred is not None and harness.acc_lf(sql_tokens(pred), sql_tokens(ex.gold))
        counts[1] += harness.acc_qm(pred, ex.gold)
        counts[2] += harness.acc_ex(pred, ex.gold, bundle.table)
    return tuple(counts)


def _answer_pass_units(inp):
    return 1 + 2 * len(inp.held_out.examples)


def answer_passes(inp, results):
    """Per pass over the held-out split: the (lf, qm, ex) of its evaluate()
    call and the translate_question outputs of both sweeps, in question order."""
    n = _answer_pass_units(inp)
    return [
        ([r["counts"] for r in results[lo : lo + n] if "output" not in r],
         [r["output"] for r in results[lo : lo + n] if "output" in r])
        for lo in range(0, len(results), n)
    ]


def problems(phase, inp, results):
    """Output checks of one phase's units; returns what failed, as messages."""
    found = []
    if phase == "annotate":
        expected = _digest(inp.annotate.examples)
        if any(r["digest"] != expected for r in results):
            found.append("annotation of the corpus differs from the set-up's")
    elif phase == "train":
        for r in results:
            losses = r["losses"]
            if not losses[-1] < losses[0]:
                found.append(f"loss did not fall: {losses}")
            if losses != results[0]["losses"]:
                found.append(f"losses differ between train_model calls: {losses}")
    else:
        held = inp.held_out
        passes = answer_passes(inp, results)
        first = passes[0][0][0]
        n = len(held.examples)
        for p, (counts, outputs) in enumerate(passes):
            if len(counts) != 1 or len(outputs) != 2 * n:
                found.append(f"pass {p} is not whole: {len(counts)} evaluate() calls, "
                             f"{len(outputs)} interactive answers")
            if any(c != first for c in counts):
                found.append(f"pass {p}: evaluate() calls differ: {counts} vs {first}")
            for sweep in (outputs[:n], outputs[n:]):
                if interactive_counts(sweep, held.examples, held.tables) != first:
                    found.append(f"pass {p}: interactive LF/QM/EX differ from evaluate()'s {first}")
        if first is None or first[2] / n < ACC_EX_FLOOR:
            found.append(f"acc_ex below the floor {ACC_EX_FLOOR}: {first}")
    return found


def reference_problems():
    digest = reference_digest()
    if digest != REFERENCE_DIGEST:
        return [f"reference corpus digest {digest} differs from the stored {REFERENCE_DIGEST}"]
    return []


# ---------------------------------------------------------------- runs


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload, seed, model_files):
    """Set up at least SETUP_REPEATS times and SETUP_SECONDS long; returns
    the (start, end) of each set-up and the last one's inputs."""
    spans, inp = [], None
    while len(spans) < SETUP_REPEATS or sum(b - a for a, b in spans) < SETUP_SECONDS:
        inp = None  # let the previous inputs go before timing the next set-up
        started = perf_counter()
        inp = setup(workload, seed, model_files)
        spans.append((started, perf_counter()))
    return spans, inp


def schedule(workload, inp, seconds):
    """Interleave the phases' units until each has its measuring time.

    The next unit always comes from the phase furthest behind its target, so
    the samples of every phase spread over the whole run.
    """
    n_answer = _answer_pass_units(inp)
    target = {ph: seconds if ph == workload else SECONDARY_SECONDS[ph] for ph in PHASES}
    streams = {ph: UNITS[ph](inp) for ph in PHASES}
    results = {ph: [] for ph in PHASES}
    busy = dict.fromkeys(PHASES, 0.0)
    answer_units_due = n_answer

    def progress(ph):
        if ph == "answer":
            return len(results[ph]) / answer_units_due
        return busy[ph] / target[ph]

    while True:
        behind = [ph for ph in PHASES if progress(ph) < 1.0]
        if not behind:
            return results
        ph = min(behind, key=progress)
        started = perf_counter()
        results[ph].append(next(streams[ph]))
        busy[ph] += perf_counter() - started
        if ph == "answer" and len(results[ph]) == answer_units_due and busy[ph] < target[ph]:
            answer_units_due += n_answer


def timing_metrics(clock, setup_spans, results):
    """The timed end-to-end metrics, in seconds as `clock` counts them."""
    setups = [clock.seconds(a, b) for a, b in setup_spans]
    rates = {ph: [n / clock.seconds(a, b) for r in results[ph] if "output" not in r for a, b, n in r["timed"]]
             for ph in PHASES}
    latencies = [1e3 * clock.seconds(a, b) for r in results["answer"] if "output" in r for a, b, _ in r["timed"]]
    return {
        "setup_s": statistics.median(setups),
        "annotate_qps": statistics.median(rates["annotate"]),
        "train_examples_per_s": statistics.median(rates["train"]),
        "eval_qps": statistics.median(rates["answer"]),
        "answer_latency_p50_ms": percentile(latencies, 50),
        "answer_latency_p90_ms": percentile(latencies, 90),
    }, {"setup": len(setups), **{ph: len(v) for ph, v in rates.items()}, "latency": len(latencies)}


def measure(workload, seed, seconds, model_files):
    """Untraced run: every end-to-end metric of the workload.

    Timings are in reference-speed seconds (hostspeed.py); the plain wall
    times go to the log beside them.
    """
    clock = HostClock()
    with clock.sampling():
        setup_spans, inp = timed_setups(workload, seed, model_files)
        results = schedule(workload, inp, seconds)
    found = [msg for ph in PHASES for msg in problems(ph, inp, results[ph])]
    found += reference_problems()
    metrics, samples = timing_metrics(clock, setup_spans, results)
    wall, _ = timing_metrics(HostClock(), setup_spans, results)
    lf, _qm, ex = answer_passes(inp, results["answer"])[0][0][0]
    total = len(inp.held_out.examples)
    metrics.update({
        "answer_acc_ex": ex / total,
        "answer_acc_lf": lf / total,
        "peak_rss_mb": peak_rss_mb(),
    })
    log({"units": {ph: len(results[ph]) for ph in PHASES}, "samples": samples,
         "host_speed": clock.summary(), "wall_time_metrics": wall})
    return metrics, results, found


def layer_metrics(phase, tracer, results):
    """Per-layer metrics of one traced pass of `phase`."""
    s = tracer.summary()

    def per(name, field, n):
        return 1e3 * s[name][field] / n

    if phase == "annotate":
        nq = sum(r["attempted"] for r in results)
        return {
            "mentions.detect_column_mentions.self_ms_per_q": per("mentions.detect_column_mentions", "self_s", nq),
            "mentions.detect_value_mentions.self_ms_per_q": per("mentions.detect_value_mentions", "self_s", nq),
            "mentions.edit_closeness.calls_per_q": tracer.calls["mentions.edit_closeness"] / nq,
            "mentions.value_affinity.calls_per_q": tracer.calls["mentions.value_affinity"] / nq,
            "mentions.value_affinity.self_ms_per_q": per("mentions.value_affinity", "self_s", nq),
            "resolve.annotate.ms_per_q": per("resolve.annotate", "total_s", nq),
            "resolve.build_match_graph.self_ms_per_q": per("resolve.build_match_graph", "self_s", nq),
            "resolve.max_bipartite_matching.self_ms_per_q": per("resolve.max_bipartite_matching", "self_s", nq),
            "resolve.assign_indices.self_ms_per_q": per("resolve.assign_indices", "self_s", nq),
            "encoding.encode_question.self_ms_per_q": per("encoding.encode_question", "self_s", nq),
            "sqlgen.align_gold_sql.self_ms_per_q": per("sqlgen.align_gold_sql", "self_s", nq),
        }
    if phase == "train":
        nb = tracer.calls["model.loss_and_grad"]
        return {
            "model.loss_and_grad.self_ms_per_batch": per("model.loss_and_grad", "self_s", nb),
            "model.encoder_forward.ms_per_call": per(
                "model.encoder_forward", "total_s", tracer.calls["model.encoder_forward"]),
            "model.clip_gradients.ms_per_batch": per("model.clip_gradients", "total_s", nb),
            "model.Adam.step.ms_per_batch": per("model.Adam.step", "total_s", nb),
            "model.loss_and_grad.src_fill": tracer.counters["src_real"] / tracer.counters["src_slots"],
        }
    batch_q = sum(r["attempted"] for r in results if "output" not in r)  # through evaluate()
    nq = batch_q + sum("output" in r for r in results)  # every translated question
    steps = tracer.calls["model.decoder_step"]
    return {
        "model.decoder_step.calls_per_q": steps / nq,
        "model.decoder_step.rows_per_call": tracer.counters["decoder_rows"] / steps,
        "model.decoder_step.ms_per_call": per("model.decoder_step", "total_s", steps),
        "model.beam_search.self_ms_per_q": per("model.beam_search", "self_s", nq),
        "model.encoder_forward.calls_per_q": tracer.calls["model.encoder_forward"] / nq,
        "sqlgen.parse_annotated_sql.self_ms_per_q": per("sqlgen.parse_annotated_sql", "self_s", nq),
        "sqlgen.resolve_symbols.self_ms_per_q": per("sqlgen.resolve_symbols", "self_s", nq),
        "sqlgen.execute.self_ms_per_q": per("sqlgen.execute", "self_s", nq),
        "harness.evaluate.self_ms_per_q": per("harness.evaluate", "self_s", batch_q),
    }


def one_pass(phase, inp):
    """Units of one pass: the whole corpus, one train_model call, every held-out question."""
    n = _answer_pass_units(inp) if phase == "answer" else 1
    stream = UNITS[phase](inp)
    return [next(stream) for _ in range(n)]


def traced_pass(phase, inp):
    """One pass of `phase` with its layer hooks installed."""
    tracer = Tracer()
    with tracer.installed(HOOKS[phase]):
        started = perf_counter()
        results = one_pass(phase, inp)
        seconds = perf_counter() - started
    return tracer, results, seconds


def measure_traced(workload, seed, model_files):
    """Traced run: an untraced and a traced pass of every phase on the same inputs."""
    inp = setup(workload, seed, model_files)
    metrics, results, found = {}, {}, []
    untraced_s = traced_s = 0.0
    for phase in PHASES:
        started = perf_counter()
        plain = one_pass(phase, inp)
        untraced_s += perf_counter() - started
        tracer, traced, seconds = traced_pass(phase, inp)
        traced_s += seconds
        found += problems(phase, inp, plain + traced)
        metrics.update(layer_metrics(phase, tracer, traced))
        results[phase] = plain + traced
        log({"phase": phase, "layers": {
            name: {"calls": v["calls"], "total_ms": round(1e3 * v["total_s"], 3),
                   "self_ms": round(1e3 * v["self_s"], 3)}
            for name, v in tracer.summary().items()}})
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    found += reference_problems()
    return metrics, results, found
