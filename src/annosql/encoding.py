"""Serialize annotations into model token sequences and manage the shared
source/target vocabulary.

Two encodings: symbol substitution replaces each accepted span with its
symbol; symbol appending ("stack") inserts the symbol right before the span
and keeps the surface words. Header encoding appends a separator and one
g_i slot per column so unmentioned columns stay addressable.
"""

import hashlib
import sys
from collections import Counter

from .meta import read_lines
from .sqlgen import parse_symbol

SUBSTITUTE, STACK = "substitute", "stack"

PAD, UNK, BOS, EOS, SEP = "<pad>", "<unk>", "<bos>", "<eos>", "|"


def encode_question(annotation, schema, mode, headers):
    """Annotated source token strings for the sequence model.

    Substitute drops accepted spans in favor of their symbols; stack keeps
    the surface words after each symbol. With `headers`, a separator and
    g_1..g_|C| follow (each with its column words under stack). Symbol
    tokens are interned, so every question shares one "c1".
    """
    if mode not in (SUBSTITUTE, STACK):
        raise ValueError(f"unknown encoding mode {mode!r}")
    by_start = {m.span.start: m for m in annotation.accepted}
    tokens = annotation.tokens
    out = []
    i = 0
    while i < len(tokens):
        mention = by_start.get(i)
        if mention is None:
            out.append(tokens[i])
            i += 1
            continue
        out.append(sys.intern(f"{mention.family}{mention.index}"))
        if mode == STACK:
            out.extend(tokens[i : mention.span.end])
        i = mention.span.end
    if headers:
        out.append(SEP)
        for column in schema.columns:
            out.append(sys.intern(f"g{column.position + 1}"))
            if mode == STACK:
                out.extend(column.tokens)
    return out


class Vocabulary:
    """Shared source/target vocabulary with fixed ids for specials and
    annotation symbols.

    Layout: specials, then c/v/g symbol families (always present, count
    independent), then corpus words by descending frequency. Word tokens
    spelled like a symbol ("c1") are excluded so symbol ids stay disjoint.
    """

    SPECIALS = (PAD, UNK, BOS, EOS, SEP)

    def __init__(self, words, max_index):
        self.max_index = max_index
        symbols = [f"{fam}{i}" for fam in "cvg" for i in range(1, max_index + 1)]
        self.itos = list(self.SPECIALS) + symbols + list(words)
        self.stoi = {tok: i for i, tok in enumerate(self.itos)}
        if len(self.stoi) != len(self.itos):
            raise ValueError("duplicate tokens in vocabulary")
        self.pad, self.unk, self.bos, self.eos = (
            self.stoi[PAD],
            self.stoi[UNK],
            self.stoi[BOS],
            self.stoi[EOS],
        )

    def __len__(self):
        return len(self.itos)

    def encode(self, tokens):
        return [self.stoi.get(t, self.unk) for t in tokens]

    def decode(self, ids):
        return [self.itos[i] for i in ids]

    def content_hash(self):
        return hashlib.sha256("\n".join(self.itos).encode("utf-8")).hexdigest()

    def save(self, path):
        """Plain text, one token per line; the line number is the id."""
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.itos:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path):
        """The vocabulary `save` wrote; a blank or repeated line is an error
        at `path:line`, since no token is blank and each has one id."""
        seen = set()

        def parse(line):
            if not line.strip() or line in seen:
                raise ValueError(f"blank or repeated token {line!r}")
            seen.add(line)
            return line

        tokens = read_lines(path, parse)
        n = len(cls.SPECIALS)
        if tokens[:n] != list(cls.SPECIALS):
            raise ValueError(f"{path}: not a vocabulary file")
        max_index = 0
        while n + max_index < len(tokens) and tokens[n + max_index] == f"c{max_index + 1}":
            max_index += 1
        expected = [f"{fam}{i}" for fam in "cvg" for i in range(1, max_index + 1)]
        if max_index == 0 or tokens[n : n + 3 * max_index] != expected:
            raise ValueError(f"{path}: malformed symbol block")
        return cls(tokens[n + 3 * max_index :], max_index=max_index)


def build_vocab(sources, targets, min_count, max_index):
    """Vocabulary over encoded source sequences and target sketches.

    Symbols are always included regardless of count; words under
    `min_count` fall to <unk>.
    """
    sequences = list(sources) + list(targets)
    if not sequences:
        raise ValueError("empty corpus")
    counts = Counter()
    for seq in sequences:
        counts.update(seq)
    words = [
        tok
        for tok, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if n >= min_count and tok not in Vocabulary.SPECIALS and parse_symbol(tok) is None
    ]
    return Vocabulary(words, max_index=max_index)
