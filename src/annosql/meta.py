"""Per-database meta knowledge: schema, cell-value statistics, phrase
lexicon, and a word-embedding store.

Everything here is immutable after load and safe to read concurrently.
"""

import json
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .text import is_content_token, normalize, parse_number, tokenize

TEXT, REAL = "text", "real"
_SLOT_RE = re.compile("<slot>|⟨slot⟩")  # ascii and angle-bracket forms


class MetaError(ValueError):
    """Raised for malformed meta-knowledge input files."""


@dataclass(frozen=True)
class ColumnMeta:
    """One column of a table: name, type, and 0-based position."""

    name: str
    col_type: str
    position: int

    def __post_init__(self):
        if self.col_type not in (TEXT, REAL):
            raise MetaError(f"unknown column type {self.col_type!r} for {self.name!r}")
        if not tokenize(self.name):
            raise MetaError(f"column at position {self.position} has no tokens")

    @cached_property
    def tokens(self):
        return tuple(tokenize(self.name))

    @cached_property
    def content_tokens(self):
        """The name's tokens that may form a close pair: no stop words, no
        punctuation."""
        return tuple(t for t in self.tokens if is_content_token(t))

    @cached_property
    def folded(self):
        return self.name.casefold()


@dataclass(frozen=True)
class TableSchema:
    table_id: str
    columns: tuple

    def __post_init__(self):
        if not self.columns:
            raise MetaError(f"table {self.table_id!r} has no columns")
        folded = [c.folded for c in self.columns]
        if len(set(folded)) != len(folded):
            raise MetaError(f"table {self.table_id!r} has duplicate column names")

    def column_by_name(self, name):
        """Case-insensitive column lookup; None if absent."""
        want = name.casefold()
        for c in self.columns:
            if c.folded == want:
                return c
        return None


@dataclass(frozen=True)
class Table:
    """Materialized rows for one schema; cells are stored as strings."""

    schema: TableSchema
    rows: tuple

    def __post_init__(self):
        width = len(self.schema.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise MetaError(
                    f"table {self.schema.table_id!r} row {i} has {len(row)} cells, "
                    f"expected {width}"
                )

    def column_values(self, position):
        return [row[position] for row in self.rows]


@dataclass
class ValueStats:
    """The cell-value statistics of one table. `phrases`: each normalized
    cell phrase -> the tuple of the positions of the columns whose cells hold
    it; `prefixes`: every leading run of tokens of those phrases, joined the
    same way; `ranges`: each real column's position -> the (min, max) of its
    numbers, with no entry for a column that has none."""

    phrases: dict
    prefixes: frozenset
    ranges: dict
    _cell_embeds: dict = field(default_factory=dict, repr=False, compare=False)

    def cell_embeddings(self, position, emb):
        """Unit-normalized mean embedding per cell phrase of a column (cached).

        Returns an (n, dim) array, possibly with zero rows when no cell
        has embedding evidence.
        """
        key = (emb, position)  # an EmbeddingStore hashes by identity
        hit = self._cell_embeds.get(key)
        if hit is not None:
            return hit
        rows = []
        for phrase in sorted(p for p, positions in self.phrases.items() if position in positions):
            vec = emb.mean(phrase.split(" "))
            norm = 0 if vec is None else np.linalg.norm(vec)
            if norm > 0:
                rows.append(vec / norm)
        matrix = np.vstack(rows) if rows else np.zeros((0, emb.dim))
        self._cell_embeds[key] = matrix
        return matrix


def build_value_stats(table):
    """The table's phrase map, its phrase prefixes and its real columns'
    numeric ranges."""
    phrases, ranges = {}, {}
    for col in table.schema.columns:
        cells = table.column_values(col.position)
        for phrase in set(map(normalize, cells)) - {""}:
            phrases[phrase] = phrases.get(phrase, ()) + (col.position,)
        if col.col_type == REAL:
            nums = [n for n in map(parse_number, cells) if n is not None]
            if nums:
                ranges[col.position] = (min(nums), max(nums))
    prefixes = set()
    for phrase in phrases:
        words = phrase.split(" ")
        prefixes.update(" ".join(words[:k]) for k in range(1, len(words) + 1))
    return ValueStats(phrases, frozenset(prefixes), ranges)


def read_lines(path, parse):
    """`parse(line)` for every line of a text file, newline stripped.

    A KeyError, TypeError, ValueError or RecursionError (JSON nested too
    deep) out of `parse`, or a byte that is not UTF-8, becomes a MetaError
    that starts with `path:lineno: ` and names the exception type.
    """
    out = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.encode("utf-8", "surrogateescape").decode("utf-8")  # a bad byte fails
                out.append(parse(line.rstrip("\n")))
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise MetaError(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
    return out


def table_from_record(obj):
    """The Table of one decoded tables record: a dict with `id`,
    `header`, `types` and `rows`; cells become strings by `cell_str`."""
    table_id, header, types, rows = str(obj["id"]), obj["header"], obj["types"], obj["rows"]
    if not all(isinstance(v, list) for v in (header, types, rows)):
        raise TypeError("header, types and rows must be lists")
    if not all(isinstance(row, list) for row in rows):
        raise TypeError("every row must be a list")
    if len(types) != len(header):
        raise MetaError(f"table {table_id!r}: {len(header)} header names, {len(types)} types")
    columns = tuple(
        ColumnMeta(name, str(typ), pos) for pos, (name, typ) in enumerate(zip(header, types))
    )
    schema = TableSchema(table_id, columns)
    return Table(schema, tuple(tuple(cell_str(v) for v in row) for row in rows))


def load_tables(path):
    """The Tables of a JSON-lines table file, one `table_from_record` per
    non-blank line; a table id repeated on a later line is malformed."""
    seen = set()

    def parse(line):
        if not line.strip():
            return None
        table = table_from_record(json.loads(line))
        if table.schema.table_id in seen:
            raise MetaError(f"repeated table id {table.schema.table_id!r}")
        seen.add(table.schema.table_id)
        return table

    return [table for table in read_lines(path, parse) if table is not None]


def cell_str(value):
    """A cell or condition value as text; integral floats lose their ".0"."""
    if isinstance(value, str):
        return value
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


@dataclass(frozen=True)
class PhraseTemplate:
    """Token sequence with at most one wildcard slot (None entry)."""

    tokens: tuple

    def __post_init__(self):
        if all(t is None for t in self.tokens):
            raise MetaError("phrase template has no word besides its slot")
        if sum(1 for t in self.tokens if t is None) > 1:
            raise MetaError("template has more than one slot")

    @property
    def slot(self):
        return self.tokens.index(None) if None in self.tokens else None


@dataclass(frozen=True)
class PhraseLexicon:
    """Map from case-folded column name to its phrase templates."""

    by_column: dict

    def templates_for(self, column):
        return self.by_column.get(column.folded, ())


EMPTY_LEXICON = PhraseLexicon({})


def load_phrase_lexicon(path):
    """Load a lexicon file: one `column<TAB>phrase1|phrase2...` line each.

    `<slot>` (or the angle-bracket form) marks the wildcard. Lexicons are
    shared across tables, so an entry is kept whatever column it names.
    """
    by_column = {}

    def parse(line):
        if not line.strip():
            return
        if "\t" not in line:
            raise MetaError("expected column<TAB>phrases")
        column, phrases = line.split("\t", 1)
        templates = by_column.setdefault(column.strip().casefold(), set())
        for phrase in phrases.split("|"):
            phrase = phrase.strip()
            if not phrase:
                continue
            tokens = []
            for i, piece in enumerate(_SLOT_RE.split(phrase)):
                tokens += ([None] if i else []) + tokenize(piece)
            templates.add(PhraseTemplate(tuple(tokens)))

    read_lines(path, parse)
    return PhraseLexicon(
        {k: tuple(sorted(v, key=lambda t: repr(t.tokens))) for k, v in by_column.items()}
    )


class EmbeddingStore:
    """Word -> vector map with a fixed dimension; absent words return None."""

    def __init__(self, vectors, dim):
        self._vectors = vectors
        self.dim = dim

    def get(self, word):
        return self._vectors.get(word.casefold())

    def mean(self, tokens):
        """Unweighted mean vector of the present tokens, or None if none are."""
        vecs = [v for v in (self.get(t) for t in tokens) if v is not None]
        if not vecs:
            return None
        return np.mean(vecs, axis=0)


EMPTY_EMBEDDINGS = EmbeddingStore({}, 0)


def load_embeddings(path):
    """Load a GloVe-style text vector file; dimension inferred from line 1.
    The last `dim` fields of a line are the vector and all before them is
    the word, which may hold spaces. Words are case-folded, and the first
    line of a folded word keeps its vector."""
    vectors = {}
    dim = None

    def parse(line):
        nonlocal dim
        if not line.strip():
            return
        if dim is None:
            dim = len(line.split()) - 1
            if dim == 0:
                raise MetaError("no vector components")
        word, *nums = line.rsplit(maxsplit=dim)
        if len(nums) != dim:
            raise MetaError(f"expected {dim} components, got {len(nums)}")
        vector = np.asarray([float(x) for x in nums])
        if not np.isfinite(vector).all():
            raise MetaError(f"vector of {word!r} has a non-finite component")
        vectors.setdefault(word.casefold(), vector)

    read_lines(path, parse)
    return EmbeddingStore(vectors, dim or 0)


def cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def term_number(term):
    """The number a token sequence reads as, or None: only one number token,
    or "-" and one, is read, so "1 2" is not 12."""
    if len(term) == 1 or (len(term) == 2 and term[0] == "-"):
        return parse_number("".join(term))
    return None


def value_affinity(term, columns, stats, emb):
    """Scores in [0, 1], one per column of `columns`, for how likely `term`
    (a token sequence) is a value of that column.

    Exact case-folded cell matches score 1.0. Numeric terms against a real
    column score on the range check alone. Otherwise the score is the best
    cosine between the term's mean embedding and the cell values' mean
    embeddings, rescaled to [0, 1]; 0.0 with no embedding evidence. The
    phrase, the number and the term vector are computed once for all columns.
    """
    if not term:
        raise ValueError("empty term")
    exact = stats.phrases.get(" ".join(term).casefold(), ())  # casefold is context-free
    num = term_number(term)
    tvec = emb.mean(t.casefold() for t in term) if emb.dim else None
    tnorm = 0 if tvec is None else np.linalg.norm(tvec)
    unit = tvec / tnorm if tnorm != 0 else None
    scores = []
    for column in columns:
        if column.position in exact:
            scores.append(1.0)
        elif num is not None and column.col_type == REAL:
            rng = stats.ranges.get(column.position)
            scores.append(1.0 if rng is not None and rng[0] <= num <= rng[1] else 0.0)
        elif unit is None:
            scores.append(0.0)
        else:
            cells = stats.cell_embeddings(column.position, emb)
            best = float(np.max(cells @ unit)) if cells.shape[0] else -1.0
            scores.append(min(1.0, max(0.0, (best + 1.0) / 2.0)))
    return scores
