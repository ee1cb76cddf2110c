"""Command-line interface: annotate / train / eval / translate / repl, each
reading every input path from its --config, plus a fixture generator for
smoke runs.
"""

import argparse
import json
import logging
import sys
from contextlib import nullcontext

from .harness import (
    ANNOTATE_KEYS,
    Config,
    check_output_file,
    load_meta,
    load_model,
    load_split,
    prepare_examples,
    repl_translate,
    run_eval,
    run_train,
    translate_question,
)

_SPLITS = ("train", "dev", "test")


def _emit(records, out_path):
    """Each record as one JSON line, to a fresh `out_path` or to stdout."""
    with open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def cmd_annotate(args):
    config = Config.from_file(args.config)
    tables, lexicon, emb = load_meta(config)
    examples = load_split(config, tables, args.split)
    prepare_examples(examples, tables, config, lexicon, emb)
    _emit((ex.to_dict(ANNOTATE_KEYS) for ex in examples), args.out)
    return 0


def cmd_train(args):
    config = Config.from_file(args.config)
    history, coverage = run_train(config)
    _emit([{"coverage": coverage, "epochs": history, "config": config.to_dict()}], args.out)
    return 0


def cmd_eval(args):
    config = Config.from_file(args.config)
    report = run_eval(config, args.split)
    _emit([report.to_dict()], args.out)
    return 0


def cmd_translate(args):
    config = Config.from_file(args.config)
    tables, lexicon, emb = load_meta(config)
    params, vocab = load_model(config)
    out = translate_question(args.question, args.table, tables, params, vocab, config, lexicon, emb)
    _emit([out], args.out)
    return 0 if out["logp"] is not None else 1  # 1: the question never reached the model


def cmd_repl(args):
    config = Config.from_file(args.config)
    repl_translate(config)
    return 0


def _count(text):
    """A whole number of at least 1, or an argparse error."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def cmd_synth(args):
    from .synth import write_corpus

    tables_path, split_path = write_corpus(args.out_dir, args.questions, args.tables, args.seed)
    _emit([{"tables": tables_path, "split": split_path}], None)
    return 0


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="annosql")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="annotate a configured split against its tables")
    p.add_argument("--config", required=True)
    p.add_argument("--split", required=True, choices=_SPLITS)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_annotate)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--config", required=True)
    p.add_argument("--split", default="test", choices=_SPLITS)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("translate", help="translate one question")
    p.add_argument("--config", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("repl", help="interactive: table_id<TAB>question per line")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_repl)

    p = sub.add_parser("synth", help="generate a WikiSQL-format fixture corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--questions", type=_count, default=200)
    p.add_argument("--tables", type=_count, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_synth)

    args = parser.parse_args(argv)
    if getattr(args, "out", None):
        try:  # before the command's work, which an unwritable report would lose
            check_output_file(args.out)
        except ValueError as exc:
            parser.error(f"--out: {exc}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
