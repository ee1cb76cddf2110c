"""Command-line interface: annotate / train / eval / translate / repl,
plus a fixture generator for smoke runs.
"""

import argparse
import json
import logging
import sys

from .harness import (
    Config,
    attach_trees,
    load_model,
    load_side_inputs,
    load_table_bundles,
    load_wikisql,
    prepare_examples,
    repl_translate,
    run_eval,
    run_train,
    translate_question,
)
from .sqlgen import serialize_sketch, sketch_tokens


def _config_from(args):
    config = Config.from_file(args.config) if args.config else Config()
    for name in ("tables", "lexicon", "embeddings", "trees"):
        value = getattr(args, name, None)
        if value:
            key = {
                "tables": "tables_path",
                "lexicon": "lexicon_path",
                "embeddings": "embeddings_path",
                "trees": "train_trees_path",
            }[name]
            setattr(config, key, value)
    return config


def _emit(obj, out_path):
    text = json.dumps(obj, indent=None)
    if out_path:
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_annotate(args):
    config = _config_from(args)
    examples, tables = load_wikisql(args.infile, config.tables_path)
    attach_trees(examples, args.trees)
    lexicon, emb = load_side_inputs(config)
    prepare_examples(examples, tables, config, lexicon, emb)
    if args.out:
        open(args.out, "w").close()  # fresh file, _emit appends
    for ex in examples:
        record = {
            "question": ex.question,
            "table_id": ex.table_id,
            "symbols": ex.annotation.symbols.to_dict(),
            "encoded": ex.encoded_src,
            "aligned_sketch": serialize_sketch(ex.aligned) if ex.aligned else None,
            "target_tokens": sketch_tokens(ex.aligned) if ex.aligned else None,
            "alignment_error": ex.alignment_error,
        }
        _emit(record, args.out)
    return 0


def cmd_train(args):
    config = Config.from_file(args.config)
    _params, _vocab, history, coverage = run_train(config)
    _emit({"coverage": coverage, "epochs": history, "config": config.to_dict()}, args.out)
    return 0


def cmd_eval(args):
    config = Config.from_file(args.config)
    report = run_eval(config, checkpoint_path=args.checkpoint, split=args.split)
    _emit(report.to_dict(), args.out)
    return 0


def cmd_translate(args):
    config = Config.from_file(args.config)
    tables = load_table_bundles(config.tables_path)
    lexicon, emb = load_side_inputs(config)
    params, vocab = load_model(config, args.checkpoint)
    out = translate_question(
        args.question, args.table, tables, params, vocab, config, lexicon, emb
    )
    _emit(out, args.out)
    return 0


def cmd_repl(args):
    config = Config.from_file(args.config)
    repl_translate(config, checkpoint_path=args.checkpoint)
    return 0


def cmd_synth(args):
    from .synth import write_corpus

    tables_path, split_path = write_corpus(args.out_dir, args.questions, args.tables, args.seed)
    _emit({"tables": tables_path, "split": split_path}, None)
    return 0


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="annosql")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="annotate a question file against its tables")
    p.add_argument("--tables", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--embeddings")
    p.add_argument("--trees")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_annotate)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--split", default="test", choices=["train", "dev", "test"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("translate", help="translate one question")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--question", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("repl", help="interactive: table_id<TAB>question per line")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint")
    p.set_defaults(fn=cmd_repl)

    p = sub.add_parser("synth", help="generate a WikiSQL-format fixture corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--questions", type=int, default=200)
    p.add_argument("--tables", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_synth)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
