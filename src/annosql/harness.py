"""Dataset ingestion, training-pair construction, the three accuracy
metrics, and the train / eval / translate entry points used by the CLI.
"""

import json
import logging
import math
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from typing import get_args

import numpy as np

from . import model as nn
from .encoding import STACK, SUBSTITUTE, Vocabulary, build_vocab, encode_question
from .meta import (
    EMPTY_EMBEDDINGS,
    EMPTY_LEXICON,
    build_value_stats,
    cell_str,
    load_embeddings,
    load_phrase_lexicon,
    load_tables,
    read_lines,
)
from .resolve import annotate
from .sqlgen import (
    AGGREGATES,
    OPS,
    AlignmentError,
    ConcreteSql,
    SketchParseError,
    SymbolResolutionError,
    align_gold_sql,
    canonicalize,
    execute,
    parse_annotated_sql,
    resolve_symbols,
    result_equal,
    serialize_sketch,
    serialize_sql,
    sketch_tokens,
    sql_tokens,
)
from .trees import load_trees

log = logging.getLogger(__name__)


@dataclass
class Config:
    """One flat bundle of every knob and the one place its default lives;
    serialized into all run outputs."""

    # annotation thresholds
    tau_ed: float = 0.5
    tau_sim: float = 0.15
    max_value_span: int = 6
    theta_val: float = 0.6
    # encoding
    mode: str = "stack"
    headers: bool = True
    max_index: int = 25
    min_count: int = 1
    # model sizes
    dim: int = 300
    type_dim: int = 150
    enc_hidden: int = 200
    enc_layers: int = 2
    dec_hidden: int = 400
    attn_dim: int = 200
    dtype: str = "float32"
    # optimization
    lr: float = 1e-3
    batch_size: int = 64
    epochs: int = 50
    clip: float = 5.0
    seed: int = 13
    patience: int = 5
    eval_every: int = 5
    stop_train_acc: float | None = None
    # inference
    beam_width: int = 5
    max_decode_len: int = 40
    # file paths
    tables_path: str | None = None
    train_path: str | None = None
    dev_path: str | None = None
    test_path: str | None = None
    lexicon_path: str | None = None
    embeddings_path: str | None = None
    train_trees_path: str | None = None
    dev_trees_path: str | None = None
    test_trees_path: str | None = None
    checkpoint_path: str = "model.npz"
    vocab_path: str = "vocab.txt"
    log_path: str | None = None

    def model_config(self, vocab_size):
        return nn.ModelConfig(
            vocab_size=vocab_size,
            dim=self.dim,
            type_dim=self.type_dim,
            enc_hidden=self.enc_hidden,
            enc_layers=self.enc_layers,
            dec_hidden=self.dec_hidden,
            attn_dim=self.attn_dim,
            max_index=self.max_index,
            dtype=self.dtype,
        )

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_file(cls, path):
        """A Config from a JSON object; ValueError naming `path` and the key
        for an unknown key, a value of the wrong type, a choice not offered,
        an int out of range, a float that is not finite, an `lr` or `clip`
        that is not above 0, or a threshold outside [0, 1]."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object, not {type(data).__name__}")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            least = _INT_MIN.get(key, 1)
            if not _fits(value, types[key]):
                expected = getattr(types[key], "__name__", types[key])
            elif key in _CHOICES and value not in _CHOICES[key]:
                expected = f"one of {_CHOICES[key]}"
            elif types[key] is int and value < least:
                expected = f"at least {least}"
            elif isinstance(value, float) and not math.isfinite(value):
                expected = "finite"
            elif key in _POSITIVE and not value > 0:
                expected = "above 0"
            elif key in _FRACTIONS and value is not None and not 0 <= value <= 1:
                expected = "in [0, 1]"
            else:
                continue
            raise ValueError(f"{path}: config key {key!r} must be {expected}, not {value!r}")
        config = cls(**data)
        if config.type_dim >= config.dim:
            raise ValueError(
                f"{path}: config key 'type_dim' must be below dim {config.dim}, not {config.type_dim}"
            )
        return config


# the values a choice setting takes, the least value of an int setting that
# may be 0 (every other int setting is at least 1), the float settings that
# must be above 0, and those that are fractions: scores and accuracies lie
# in [0, 1], so a threshold outside it is always or never met
_CHOICES = {"mode": (STACK, SUBSTITUTE), "dtype": tuple(nn.DTYPES)}
_INT_MIN = {"min_count": 0, "patience": 0, "seed": 0}
_POSITIVE = ("lr", "clip")
_FRACTIONS = ("theta_val", "tau_ed", "tau_sim", "stop_train_acc")


def _fits(value, annotation):
    """Whether a JSON value fits a Config field's type: an int serves for a
    float, a bool is never a number, and null fits only an optional field."""
    allowed = get_args(annotation) or (annotation,)
    if isinstance(value, int) and not isinstance(value, bool) and float in allowed:
        return True
    return type(value) in allowed


@dataclass
class TableBundle:
    schema: object
    table: object
    stats: object


@dataclass
class Example:
    question: str
    table_id: str
    gold: ConcreteSql | None  # None for a question asked without a gold query
    tree: object = None
    annotation: object = None
    encoded_src: list = None
    aligned: object = None  # AnnotatedSqlAst
    alignment_error: str | None = None


def _code(choices, code, what):
    """choices[code] for a WikiSQL integer code; ValueError when out of range."""
    index = int(code)
    if not 0 <= index < len(choices):
        raise ValueError(f"{what} {code!r} out of range 0..{len(choices) - 1}")
    return choices[index]


def gold_from_wikisql(sql_obj, schema, table_id):
    """Convert a WikiSQL `sql` record ({sel, agg, conds}) to ConcreteSql."""
    agg = _code(AGGREGATES, sql_obj["agg"], "aggregate code")
    sel = _code(schema.columns, sql_obj["sel"], "select column").name
    conds = []
    for col_idx, op_idx, value in sql_obj.get("conds", []):
        column = _code(schema.columns, col_idx, "condition column")
        conds.append((column.name, _code(OPS, op_idx, "operator code"), cell_str(value)))
    return ConcreteSql(agg, sel, tuple(conds), table_id)


def table_bundles(pairs):
    """A dict of table id -> TableBundle for (TableSchema, Table) pairs."""
    return {
        schema.table_id: TableBundle(schema, table, build_value_stats(table))
        for schema, table in pairs
    }


def load_wikisql(split_path, tables, trees_path):
    """The Examples of a WikiSQL-format split joined to `tables` (id -> TableBundle).

    A line without a `sql` object gives an Example whose gold is None. Tree
    line i of `trees_path`, when not None, belongs to split line i, so the two
    files have the same number of lines, blank ones included.
    """
    trees = load_trees(trees_path) if trees_path else []
    tree_of_line = iter(trees)

    def parse(line):
        tree = next(tree_of_line, None)
        if not line.strip():
            return None
        obj = json.loads(line)
        question = str(obj["question"])
        table_id = str(obj["table_id"])
        if table_id not in tables:
            raise ValueError(f"unknown table id {table_id!r}")
        gold = None
        if "sql" in obj:
            gold = gold_from_wikisql(obj["sql"], tables[table_id].schema, table_id)
        return Example(question, table_id, gold, tree)

    parsed = read_lines(split_path, parse)
    if trees_path and len(trees) != len(parsed):
        raise ValueError(
            f"{trees_path}: {len(trees)} tree lines for {len(parsed)} lines of {split_path}"
        )
    return [ex for ex in parsed if ex is not None]


def prepare_examples(examples, tables, config, lexicon=EMPTY_LEXICON, emb=EMPTY_EMBEDDINGS):
    """Annotate, encode, and align every example in place."""
    for ex in examples:
        bundle = tables[ex.table_id]
        ex.annotation = annotate(
            ex.question, bundle.schema, bundle.stats, lexicon, emb, ex.tree, config
        )
        ex.encoded_src = encode_question(ex.annotation, bundle.schema, config.mode, config.headers)
        if ex.gold is None:
            continue
        try:
            ex.aligned = align_gold_sql(
                ex.gold, ex.annotation, bundle.schema, max_index=config.max_index
            )
            ex.alignment_error = None
        except AlignmentError as exc:
            ex.aligned = None
            ex.alignment_error = str(exc)
    return examples


def build_training_pairs(examples, config):
    """Token-id pairs for the aligned examples, the vocabulary built from
    them, and a coverage report.

    Unaligned examples are excluded from training but stay in evaluation;
    examples without a gold query count under `no_gold`.
    """
    sources, targets = [], []
    reasons = Counter()
    for ex in examples:
        if ex.encoded_src is None:
            raise ValueError("examples must be prepared before pairing")
        if ex.gold is None:
            reasons["no_gold"] += 1
            continue
        if ex.aligned is None:
            reasons[ex.alignment_error] += 1
            continue
        sources.append(ex.encoded_src)
        targets.append(sketch_tokens(ex.aligned))
    if not sources:
        raise ValueError("no aligned examples to build a vocabulary from")
    vocab = build_vocab(sources, targets, config.min_count, config.max_index)
    pairs = [
        (vocab.encode(src), vocab.encode(tgt)) for src, tgt in zip(sources, targets)
    ]
    report = {
        "total": len(examples),
        "aligned": len(pairs),
        "coverage": len(pairs) / len(examples) if examples else 0.0,
        "failures": dict(reasons),
    }
    return pairs, vocab, report


def acc_lf(pred_tokens, gold_tokens):
    """Token-exact logical-form match; a failed prediction is never a match."""
    if pred_tokens is None:
        return False
    return list(pred_tokens) == list(gold_tokens)


def acc_qm(pred_sql, gold_sql):
    """Canonical-form query match."""
    if pred_sql is None:
        return False
    return canonicalize(pred_sql) == canonicalize(gold_sql)


def acc_ex(pred_sql, gold_sql, table):
    """Execution match: both queries return the same result multiset."""
    if pred_sql is None:
        return False
    return result_equal(execute(pred_sql, table), execute(gold_sql, table))


def _pad_batch(rows, pad_id):
    width = max(len(r) for r in rows)
    ids = np.full((len(rows), width), pad_id, dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=np.float64)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
        mask[i, : len(r)] = 1.0
    return ids, mask


def train_model(
    pairs, vocab, config, tables=None, train=None, dev=None, log_fn=None, emb=EMPTY_EMBEDDINGS
):
    """Seeded training loop; returns (params, per-epoch history).

    Word embeddings start from `emb`'s vectors when its dimension is the
    model's. Each history entry carries the pre-clip gradient norm (max and
    mean over the epoch's batches), the fraction of batches clipped, and the
    epoch's training throughput. A non-finite loss or gradient norm raises
    ModelError naming its batch, before the parameters are updated.

    The stop rule: every `eval_every` epochs the prepared `train` and `dev`
    examples given are evaluated on `tables`, and the entry (passed to
    `log_fn` after the check) records `train_acc_lf`, `dev_acc_qm` and
    `check_seconds`. Training stops once `train_acc_lf` reaches a set
    `stop_train_acc`, or after `patience` dev checks in a row that do not
    beat the best `dev_acc_qm`, whose parameters are then the ones returned.
    """
    if not pairs:
        raise ValueError("no training pairs")
    params = nn.init_params(config.model_config(len(vocab)), config.seed)
    if emb.dim == config.dim:
        for idx, tok in enumerate(vocab.itos):
            vec = emb.get(tok)
            if vec is not None:
                params["emb"][idx] = vec
    elif emb.dim != 0:
        msg = "embedding dimension %d is not the model's %d; word embeddings start random"
        log.warning(msg, emb.dim, config.dim)
    optimizer = nn.Adam(params, config.lr)
    rng = np.random.default_rng(config.seed)
    history = []
    order = np.arange(len(pairs))
    best_qm, best_params, stall = -1.0, None, 0
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        rng.shuffle(order)
        losses, accs, norms = [], [], []
        for lo in range(0, len(order), config.batch_size):
            batch = [pairs[i] for i in order[lo : lo + config.batch_size]]
            src_ids, src_mask = _pad_batch([b[0] for b in batch], vocab.pad)
            tgt_in, _ = _pad_batch([[vocab.bos] + b[1] for b in batch], vocab.pad)
            tgt_out, tgt_mask = _pad_batch([b[1] + [vocab.eos] for b in batch], vocab.pad)
            label = f"{lo // config.batch_size} of epoch {epoch}"
            loss, grads, stats = nn.loss_and_grad(
                params, src_ids, src_mask, tgt_in, tgt_out, tgt_mask, batch_label=label
            )
            grads, norm = nn.clip_gradients(grads, config.clip)
            if not np.isfinite(norm):
                raise nn.ModelError(f"non-finite gradient norm (batch {label})")
            optimizer.step(params, grads)
            losses.append(loss)
            accs.append(stats["token_accuracy"])
            norms.append(norm)
        seconds = time.perf_counter() - started
        entry = {
            "epoch": epoch,
            "loss": float(np.mean(losses)),
            "token_accuracy": float(np.mean(accs)),
            "grad_norm_max": max(norms),
            "grad_norm_mean": float(np.mean(norms)),
            "clipped_fraction": sum(n > config.clip for n in norms) / len(norms),
            "seconds": round(seconds, 3),
            "examples_per_s": round(len(order) / seconds, 1),
        }
        history.append(entry)
        stop = False
        if (train is not None or dev is not None) and epoch % config.eval_every == 0:
            started = time.perf_counter()
            if train is not None:
                entry["train_acc_lf"] = acc = evaluate(train, tables, params, vocab, config).acc_lf
                stop = config.stop_train_acc is not None and acc >= config.stop_train_acc
            if dev is not None:
                entry["dev_acc_qm"] = qm = evaluate(dev, tables, params, vocab, config).acc_qm
                if qm > best_qm:
                    best_qm, best_params, stall = qm, params.clone(), 0
                else:
                    stall += 1
                    stop = stop or stall >= config.patience
            entry["check_seconds"] = round(time.perf_counter() - started, 3)
        if log_fn is not None:
            log_fn(entry)
        if stop:
            break
    return (params if best_params is None else best_params), history


@dataclass
class Translation:
    sketch: str | None
    sql: ConcreteSql | None
    logp: float | None  # None when the model did not run
    failure: str | None = None  # the FAILURE_CLASSES stage that stopped it
    error: str | None = None


def _failed(stage, message, sketch=None, logp=None):
    return Translation(sketch, None, logp, stage, str(message))


def translate_example(example, tables, params, vocab, config):
    """Question -> sketch -> concrete SQL, or the stage that failed, for one prepared example."""
    if not example.encoded_src:
        return _failed("encode", "empty source sequence")
    bundle = tables[example.table_id]
    src = vocab.encode(example.encoded_src)
    hyp = nn.beam_search(
        src, params, config.beam_width, config.max_decode_len, vocab.bos, vocab.eos
    )
    try:
        ast = parse_annotated_sql(vocab.decode(hyp.tokens))
    except SketchParseError as exc:
        return _failed("parse", exc, logp=hyp.logp)
    try:
        sql = resolve_symbols(ast, example.annotation.symbols, bundle.schema)
    except SymbolResolutionError as exc:
        return _failed("resolve", exc, serialize_sketch(ast), hyp.logp)
    return Translation(serialize_sketch(ast), sql, hyp.logp)


# translation failure classes: the question leaves the model nothing to
# encode, the sketch does not parse, a symbol does not resolve, the query
# resolves but execution flags its result, or it runs to the wrong result
FAILURE_CLASSES = ("encode", "parse", "resolve", "flagged", "wrong_result")
FAILURE_EXAMPLES = 3  # example questions kept per class


@dataclass
class EvalReport:
    total: int
    lf: int
    qm: int
    ex: int
    aligned: int
    failures: dict  # alignment failure reason -> count
    config: dict
    translation_failures: dict  # FAILURE_CLASSES -> {"count", "examples"}

    @property
    def acc_lf(self):
        return self.lf / self.total if self.total else 0.0

    @property
    def acc_qm(self):
        return self.qm / self.total if self.total else 0.0

    @property
    def acc_ex(self):
        return self.ex / self.total if self.total else 0.0

    def to_dict(self):
        coverage = self.aligned / self.total if self.total else 0.0
        return {
            "total": self.total,
            "counts": {"lf": self.lf, "qm": self.qm, "ex": self.ex},
            "acc_lf": self.acc_lf,
            "acc_qm": self.acc_qm,
            "acc_ex": self.acc_ex,
            "alignment": {
                "aligned": self.aligned,
                "coverage": coverage,
                "failure_rate": 1.0 - coverage,
                "failures": self.failures,
            },
            "translation_failures": self.translation_failures,
            "config": self.config,
        }


def _require_gold(examples, source):
    """ValueError naming `source` and the first question without a gold query."""
    gold_less = next((ex for ex in examples if ex.gold is None), None)
    if gold_less is not None:
        raise ValueError(
            f"{source}: no gold query to evaluate against for {gold_less.question!r}"
        )


def evaluate(examples, tables, params, vocab, config):
    """All three accuracies over prepared examples (aligned or not) with gold
    queries, the alignment failures, and the translation failure classes."""
    _require_gold(examples, "evaluate")
    if any(ex.encoded_src is None for ex in examples):
        raise ValueError("evaluate: examples must be prepared before evaluation")
    lf = qm = ex_count = aligned = 0
    reasons = Counter()
    failed = {name: {"count": 0, "examples": []} for name in FAILURE_CLASSES}
    for ex in examples:
        if ex.aligned is not None:
            aligned += 1
        else:
            reasons[ex.alignment_error] += 1
        result = translate_example(ex, tables, params, vocab, config)
        pred, gold, table = result.sql, ex.gold, tables[ex.table_id].table
        if pred is not None and acc_lf(sql_tokens(pred), sql_tokens(gold)):
            lf += 1
        if acc_qm(pred, gold):
            qm += 1
        if acc_ex(pred, gold, table):
            ex_count += 1
            continue
        # a miss with SQL: its own result tells flagged from wrong_result
        kind = result.failure or ("flagged" if execute(pred, table).flagged else "wrong_result")
        failed[kind]["count"] += 1
        if len(failed[kind]["examples"]) < FAILURE_EXAMPLES:
            failed[kind]["examples"].append(ex.question)
    return EvalReport(
        total=len(examples),
        lf=lf,
        qm=qm,
        ex=ex_count,
        aligned=aligned,
        failures=dict(reasons),
        config=config.to_dict(),
        translation_failures=failed,
    )


def load_meta(config):
    """The configured tables (id -> TableBundle), phrase lexicon and
    embeddings; an empty stand-in for a lexicon or embeddings not configured."""
    if not config.tables_path:
        raise ValueError("config needs tables_path")
    tables = table_bundles(load_tables(config.tables_path))
    lexicon = load_phrase_lexicon(config.lexicon_path) if config.lexicon_path else EMPTY_LEXICON
    emb = load_embeddings(config.embeddings_path) if config.embeddings_path else EMPTY_EMBEDDINGS
    return tables, lexicon, emb


def load_split(config, tables, split, gold=False):
    """The Examples of one configured split ("train", "dev" or "test") with
    the trees of that split's tree file; with `gold`, ValueError for a line
    without a gold query."""
    path = getattr(config, f"{split}_path")
    if not path:
        raise ValueError(f"config needs a path for split {split!r}")
    examples = load_wikisql(path, tables, getattr(config, f"{split}_trees_path"))
    if gold:
        _require_gold(examples, path)
    return examples


def run_train(config):
    """Train from the configured files; writes vocab, checkpoint, and log.
    train_model checks the train split when `stop_train_acc` is set and the
    dev split when one is configured."""
    tables, lexicon, emb = load_meta(config)
    examples = load_split(config, tables, "train", gold=config.stop_train_acc is not None)
    dev_examples = load_split(config, tables, "dev", gold=True) if config.dev_path else None
    prepare_examples(examples, tables, config, lexicon, emb)
    pairs, vocab, coverage = build_training_pairs(examples, config)
    log.info("training pairs: %s", coverage)
    if dev_examples is not None:
        prepare_examples(dev_examples, tables, config, lexicon, emb)
    train_check = examples if config.stop_train_acc is not None else None

    def log_fn(entry):
        log.info("epoch %s", entry)
        if log_file is not None:
            log_file.write(json.dumps(entry) + "\n")
            log_file.flush()  # the epochs so far survive a run that fails later

    log_to = open(config.log_path, "w", encoding="utf-8") if config.log_path else nullcontext()
    with log_to as log_file:
        params, history = train_model(
            pairs, vocab, config, tables, train_check, dev_examples, log_fn=log_fn, emb=emb
        )
    vocab.save(config.vocab_path)
    nn.save_checkpoint(
        config.checkpoint_path,
        params,
        vocab.content_hash(),
        extra={"config": config.to_dict(), "coverage": coverage},
    )
    return params, vocab, history, coverage


def load_model(config):
    """The configured vocabulary and a checkpoint trained with it."""
    vocab = Vocabulary.load(config.vocab_path)
    params, _meta = nn.load_checkpoint(config.checkpoint_path, expect_vocab_hash=vocab.content_hash())
    return params, vocab


def run_eval(config, split):
    """Evaluate the configured checkpoint on one configured split; returns an
    EvalReport. Every input, the model included, loads before any question
    is annotated."""
    tables, lexicon, emb = load_meta(config)
    examples = load_split(config, tables, split, gold=True)
    params, vocab = load_model(config)
    prepare_examples(examples, tables, config, lexicon, emb)
    return evaluate(examples, tables, params, vocab, config)


def load_translator(config):
    """(tables, params, vocab, lexicon, emb) for translate_question."""
    tables, lexicon, emb = load_meta(config)
    params, vocab = load_model(config)
    return tables, params, vocab, lexicon, emb


# the keys of every translate_question output, in order
ANSWER_KEYS = (
    "question", "table_id", "annotation", "encoded", "sketch",
    "logp", "sql", "result", "flagged", "error",
)


def translate_question(question, table_id, tables, params, vocab, config, lexicon, emb):
    """Annotate and translate a raw question against one table; the output has
    the ANSWER_KEYS, None where the question did not get that far."""
    out = dict.fromkeys(ANSWER_KEYS)
    out.update(question=question, table_id=table_id)
    if table_id not in tables:
        out["error"] = f"unknown table id {table_id!r}"
        return out
    ex = Example(question, table_id, None)
    prepare_examples([ex], tables, config, lexicon, emb)
    result = translate_example(ex, tables, params, vocab, config)
    out.update(annotation=ex.annotation.symbols.to_dict(), encoded=ex.encoded_src)
    out.update(sketch=result.sketch, logp=result.logp)
    if result.failure is not None:
        out["error"] = f"{result.failure}: {result.error}"
    else:
        out["sql"] = serialize_sql(result.sql)
        res = execute(result.sql, tables[table_id].table)
        out["result"] = list(res.values)
        out["flagged"] = res.flagged
    return out


def repl_translate(config, stdin=None, stdout=None):
    """Interactive loop: one `table_id<TAB>question` per line, JSON out."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    tables, params, vocab, lexicon, emb = load_translator(config)
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        if "\t" in line:
            table_id, question = line.split("\t", 1)
            out = translate_question(
                question, table_id.strip(), tables, params, vocab, config, lexicon, emb
            )
        else:
            out = dict.fromkeys(ANSWER_KEYS)
            out.update(question=line, error="expected: table_id<TAB>question")
        print(json.dumps(out), file=stdout)
