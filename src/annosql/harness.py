"""Dataset ingestion, training-pair construction, the three accuracy
metrics, and the train / eval / translate entry points used by the CLI.
"""

import json
import logging
import time
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import model as nn
from .encoding import build_vocab, encode_question, token_strings
from .mentions import Thresholds
from .meta import (
    EMPTY_EMBEDDINGS,
    EMPTY_LEXICON,
    build_value_stats,
    cell_str,
    load_embeddings,
    load_phrase_lexicon,
    load_tables,
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
    sketch_tokens,
    sql_tokens,
)
from .trees import load_trees

log = logging.getLogger(__name__)


@dataclass
class Config:
    """One flat bundle of every knob; serialized into all run outputs."""

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

    def thresholds(self):
        return Thresholds(self.tau_ed, self.tau_sim, self.max_value_span, self.theta_val)

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
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        unknown = set(data) - set(cls().__dict__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


# WikiSQL integer codes for aggregates and operators
WIKISQL_AGG = ("", "MAX", "MIN", "COUNT", "SUM", "AVG")
WIKISQL_OPS = ("=", ">", "<")


@dataclass
class TableBundle:
    schema: object
    table: object
    stats: object


@dataclass
class Example:
    question: str
    table_id: str
    gold: ConcreteSql
    tree: object = None
    annotation: object = None
    encoded_src: list = None
    aligned: object = None  # AnnotatedSqlAst
    alignment_error: str | None = None


def gold_from_wikisql(sql_obj, schema, table_id):
    """Convert a WikiSQL `sql` record ({sel, agg, conds}) to ConcreteSql."""
    agg = WIKISQL_AGG[int(sql_obj["agg"])]
    if agg not in AGGREGATES:
        raise ValueError(f"unsupported aggregate code {sql_obj['agg']}")
    sel = schema.columns[int(sql_obj["sel"])].name
    conds = []
    for col_idx, op_idx, value in sql_obj.get("conds", []):
        op = WIKISQL_OPS[int(op_idx)]
        if op not in OPS:
            raise ValueError(f"unsupported operator code {op_idx}")
        conds.append((schema.columns[int(col_idx)].name, op, cell_str(value)))
    return ConcreteSql(agg, sel, tuple(conds), table_id)


def load_table_bundles(tables_path):
    """Read a tables file into a dict of table id -> TableBundle."""
    return {
        schema.table_id: TableBundle(schema, table, build_value_stats(table))
        for schema, table in load_tables(tables_path)
    }


def load_wikisql(split_path, tables_path):
    """Load a WikiSQL-format split joined to its tables.

    Returns (examples, tables) where tables maps id -> TableBundle.
    """
    tables = load_table_bundles(tables_path)
    examples = []
    missing = set()
    with open(split_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            table_id = str(obj["table_id"])
            if table_id not in tables:
                missing.add(table_id)
                continue
            bundle = tables[table_id]
            gold = gold_from_wikisql(obj["sql"], bundle.schema, table_id)
            examples.append(Example(str(obj["question"]), table_id, gold))
    if missing:
        raise ValueError(f"{split_path}: unknown table ids: {sorted(missing)}")
    return examples, tables


def attach_trees(examples, trees_path):
    if trees_path is None:
        return
    trees = load_trees(trees_path)
    if len(trees) != len(examples):
        raise ValueError(f"{trees_path}: {len(trees)} tree lines for {len(examples)} questions")
    for example, tree in zip(examples, trees):
        example.tree = tree


def prepare_examples(examples, tables, config, lexicon=EMPTY_LEXICON, emb=EMPTY_EMBEDDINGS):
    """Annotate, encode, and align every example in place."""
    thresholds = config.thresholds()
    for ex in examples:
        bundle = tables[ex.table_id]
        ex.annotation = annotate(
            ex.question,
            bundle.schema,
            bundle.stats,
            lexicon,
            emb,
            tree=ex.tree,
            thresholds=thresholds,
        )
        encoded = encode_question(
            ex.annotation, bundle.schema, mode=config.mode, headers=config.headers
        )
        ex.encoded_src = token_strings(encoded)
        try:
            ex.aligned = align_gold_sql(
                ex.gold, ex.annotation, bundle.schema, max_index=config.max_index
            )
            ex.alignment_error = None
        except AlignmentError as exc:
            ex.aligned = None
            ex.alignment_error = str(exc)
    return examples


def build_training_pairs(examples, config, vocab=None):
    """Token-id pairs for the aligned examples plus a coverage report.

    Unaligned examples are excluded from training but stay in evaluation.
    """
    sources, targets, aligned = [], [], []
    reasons = Counter()
    for ex in examples:
        if ex.encoded_src is None:
            raise ValueError("examples must be prepared before pairing")
        if ex.aligned is None:
            reasons[ex.alignment_error or "unaligned"] += 1
            continue
        sources.append(ex.encoded_src)
        targets.append(sketch_tokens(ex.aligned))
        aligned.append(ex)
    if vocab is None:
        if not sources:
            raise ValueError("no aligned examples to build a vocabulary from")
        vocab = build_vocab(sources, targets, min_count=config.min_count, max_index=config.max_index)
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


def _pad_batch(rows, pad_id, dtype=np.int64):
    width = max(len(r) for r in rows)
    ids = np.full((len(rows), width), pad_id, dtype=dtype)
    mask = np.zeros((len(rows), width), dtype=np.float64)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
        mask[i, : len(r)] = 1.0
    return ids, mask


def train_model(pairs, vocab, config, stop_fn=None, log_fn=None):
    """Seeded training loop; returns (params, per-epoch history)."""
    if not pairs:
        raise ValueError("no training pairs")
    mcfg = config.model_config(len(vocab))
    params = nn.init_params(mcfg, seed=config.seed)
    optimizer = nn.Adam(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)
    history = []
    order = np.arange(len(pairs))
    for epoch in range(1, config.epochs + 1):
        started = time.time()
        rng.shuffle(order)
        losses, accs = [], []
        for lo in range(0, len(order), config.batch_size):
            batch = [pairs[i] for i in order[lo : lo + config.batch_size]]
            src_ids, src_mask = _pad_batch([b[0] for b in batch], vocab.pad)
            tgt_in, _ = _pad_batch([[vocab.bos] + b[1] for b in batch], vocab.pad)
            tgt_out, tgt_mask = _pad_batch([b[1] + [vocab.eos] for b in batch], vocab.pad)
            loss, grads, stats = nn.loss_and_grad(
                params, src_ids, src_mask, tgt_in, tgt_out, tgt_mask, batch_label=lo
            )
            grads, _norm = nn.clip_gradients(grads, config.clip)
            optimizer.step(params, grads)
            losses.append(loss)
            accs.append(stats["token_accuracy"])
        entry = {
            "epoch": epoch,
            "loss": float(np.mean(losses)),
            "token_accuracy": float(np.mean(accs)),
            "seconds": round(time.time() - started, 3),
        }
        history.append(entry)
        if log_fn is not None:
            log_fn(entry)
        if stop_fn is not None and stop_fn(epoch, params):
            break
    return params, history


@dataclass
class Translation:
    sketch_tokens: list | None
    sketch: str | None
    sql: ConcreteSql | None
    error: str | None = None
    logp: float = 0.0


def translate_example(example, tables, params, vocab, config):
    """Question -> sketch -> concrete SQL for one prepared example."""
    bundle = tables[example.table_id]
    src = vocab.encode(example.encoded_src)
    hyp = nn.beam_search(
        src, params, config.beam_width, config.max_decode_len, vocab.bos, vocab.eos
    )
    toks = vocab.decode(hyp.tokens)
    try:
        ast = parse_annotated_sql(toks)
    except SketchParseError as exc:
        return Translation(toks, None, None, error=f"parse: {exc}", logp=hyp.logp)
    try:
        sql = resolve_symbols(ast, example.annotation.symbols, bundle.schema)
    except SymbolResolutionError as exc:
        return Translation(
            toks, serialize_sketch(ast), None, error=f"resolve: {exc}", logp=hyp.logp
        )
    return Translation(toks, serialize_sketch(ast), sql, logp=hyp.logp)


@dataclass
class EvalReport:
    total: int
    lf: int
    qm: int
    ex: int
    aligned: int
    failures: dict
    config: dict

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
            "config": self.config,
        }


def evaluate(examples, tables, params, vocab, config):
    """All three accuracies over prepared examples (aligned or not)."""
    lf = qm = ex_count = aligned = 0
    reasons = Counter()
    for ex in examples:
        if ex.aligned is not None:
            aligned += 1
        else:
            reasons[ex.alignment_error or "unaligned"] += 1
        result = translate_example(ex, tables, params, vocab, config)
        pred = result.sql
        gold = ex.gold
        if pred is not None and acc_lf(sql_tokens(pred), sql_tokens(gold)):
            lf += 1
        if acc_qm(pred, gold):
            qm += 1
        if acc_ex(pred, gold, tables[ex.table_id].table):
            ex_count += 1
    return EvalReport(
        total=len(examples),
        lf=lf,
        qm=qm,
        ex=ex_count,
        aligned=aligned,
        failures=dict(reasons),
        config=config.to_dict(),
    )


def load_side_inputs(config):
    """The configured phrase lexicon and embeddings, or empty stand-ins."""
    lexicon = EMPTY_LEXICON
    if config.lexicon_path:
        lexicon = load_phrase_lexicon(config.lexicon_path)
    emb = EMPTY_EMBEDDINGS
    if config.embeddings_path:
        emb = load_embeddings(config.embeddings_path)
    return lexicon, emb


def run_train(config):
    """Train from the configured files; writes vocab, checkpoint, and log.

    With a dev split configured, dev acc_qm is checked every `eval_every`
    epochs; training stops after `patience` non-improving checks and the
    best-scoring parameters are the ones saved.
    """
    if not (config.tables_path and config.train_path):
        raise ValueError("config needs tables_path and train_path")
    examples, tables = load_wikisql(config.train_path, config.tables_path)
    attach_trees(examples, config.train_trees_path)
    lexicon, emb = load_side_inputs(config)
    prepare_examples(examples, tables, config, lexicon, emb)
    pairs, vocab, coverage = build_training_pairs(examples, config)
    log.info("training pairs: %s", coverage)

    dev_examples = None
    if config.dev_path:
        dev_examples, dev_tables = load_wikisql(config.dev_path, config.tables_path)
        attach_trees(dev_examples, config.dev_trees_path)
        prepare_examples(dev_examples, dev_tables, config, lexicon, emb)

    log_lines = []

    def log_fn(entry):
        log_lines.append(json.dumps(entry))
        log.info("epoch %(epoch)d loss %(loss).4f acc %(token_accuracy).4f", entry)

    state = {"best_qm": -1.0, "best_params": None, "stall": 0}

    def stop_fn(epoch, params):
        if epoch % config.eval_every != 0:
            return False
        stop = False
        if config.stop_train_acc is not None:
            report = evaluate(examples, tables, params, vocab, config)
            log.info("epoch %d train acc_lf %.4f", epoch, report.acc_lf)
            if report.acc_lf >= config.stop_train_acc:
                stop = True
        if dev_examples is not None:
            report = evaluate(dev_examples, dev_tables, params, vocab, config)
            log.info("epoch %d dev acc_qm %.4f", epoch, report.acc_qm)
            if report.acc_qm > state["best_qm"]:
                state.update(best_qm=report.acc_qm, best_params=params.clone(), stall=0)
            else:
                state["stall"] += 1
                if state["stall"] >= config.patience:
                    stop = True
        return stop

    needs_stop = config.stop_train_acc is not None or dev_examples is not None
    params, history = train_model(
        pairs, vocab, config, stop_fn=stop_fn if needs_stop else None, log_fn=log_fn
    )
    if state["best_params"] is not None:
        params = state["best_params"]
    vocab.save(config.vocab_path)
    nn.save_checkpoint(
        config.checkpoint_path,
        params,
        vocab.content_hash(),
        extra={"config": config.to_dict(), "coverage": coverage},
    )
    if config.log_path:
        with open(config.log_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(log_lines) + "\n")
    return params, vocab, history, coverage


def load_model(config, checkpoint_path=None):
    """The configured vocabulary and a checkpoint trained with it."""
    from .encoding import Vocabulary

    vocab = Vocabulary.load(config.vocab_path)
    params, _meta = nn.load_checkpoint(
        checkpoint_path or config.checkpoint_path, expect_vocab_hash=vocab.content_hash()
    )
    return params, vocab


def run_eval(config, checkpoint_path=None, split="test"):
    """Evaluate a checkpoint on one configured split; returns an EvalReport."""
    split_path, trees_path = {
        "train": (config.train_path, config.train_trees_path),
        "dev": (config.dev_path, config.dev_trees_path),
        "test": (config.test_path, config.test_trees_path),
    }[split]
    if not (config.tables_path and split_path):
        raise ValueError(f"config needs tables_path and a path for split {split!r}")
    examples, tables = load_wikisql(split_path, config.tables_path)
    attach_trees(examples, trees_path)
    lexicon, emb = load_side_inputs(config)
    prepare_examples(examples, tables, config, lexicon, emb)
    params, vocab = load_model(config, checkpoint_path)
    return evaluate(examples, tables, params, vocab, config)


def translate_question(question, table_id, tables, params, vocab, config, lexicon, emb):
    """Annotate and translate a raw question against one table."""
    if table_id not in tables:
        raise KeyError(f"unknown table id {table_id!r}")
    ex = Example(question, table_id, ConcreteSql("", tables[table_id].schema.columns[0].name, ()))
    prepare_examples([ex], tables, config, lexicon, emb)
    result = translate_example(ex, tables, params, vocab, config)
    out = {
        "question": question,
        "table_id": table_id,
        "annotation": ex.annotation.symbols.to_dict(),
        "encoded": ex.encoded_src,
        "sketch": result.sketch,
        "sql": None,
        "result": None,
        "error": result.error,
    }
    if result.sql is not None:
        from .sqlgen import serialize_sql

        out["sql"] = serialize_sql(result.sql)
        res = execute(result.sql, tables[table_id].table)
        out["result"] = list(res.values)
        out["flagged"] = res.flagged
    return out


def repl_translate(config, checkpoint_path=None, stdin=None, stdout=None):
    """Interactive loop: one `table_id<TAB>question` per line, JSON out."""
    import sys

    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    if not config.tables_path:
        raise ValueError("config needs tables_path")
    tables = load_table_bundles(config.tables_path)
    lexicon, emb = load_side_inputs(config)
    params, vocab = load_model(config, checkpoint_path)
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        if "\t" not in line:
            print(json.dumps({"error": "expected: table_id<TAB>question"}), file=stdout)
            continue
        table_id, question = line.split("\t", 1)
        try:
            out = translate_question(
                question, table_id.strip(), tables, params, vocab, config, lexicon, emb
            )
        except (KeyError, nn.ModelError) as exc:
            out = {"error": str(exc)}
        print(json.dumps(out), file=stdout)
