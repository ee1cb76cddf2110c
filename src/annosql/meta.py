"""Per-database meta knowledge: schema, cell-value statistics, phrase
lexicon, and a word-embedding store.

Everything here is immutable after load and safe to read concurrently.
"""

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .text import normalize, parse_number, tokenize

log = logging.getLogger(__name__)

TEXT, REAL = "text", "real"
SLOT = "<slot>"
_SLOT_SPELLINGS = {"<slot>", "⟨slot⟩"}  # ascii and angle-bracket forms


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


@dataclass(frozen=True)
class ColumnStats:
    """Distinct values, numeric range, and token counts for one column."""

    values: frozenset
    normalized: frozenset
    numeric_range: tuple | None
    token_counts: Counter


@dataclass
class ValueStats:
    """Per-column statistics of the cell values of one table."""

    per_column: dict
    _cell_embeds: dict = field(default_factory=dict, repr=False, compare=False)

    def column(self, position):
        return self.per_column[position]

    def cell_embeddings(self, position, emb):
        """Unit-normalized mean embedding per distinct cell value (cached).

        Returns an (n, dim) array, possibly with zero rows when no cell
        has embedding evidence.
        """
        key = (id(emb), position)
        hit = self._cell_embeds.get(key)
        if hit is not None:
            return hit[1]
        rows = []
        for value in sorted(self.per_column[position].values):
            vec = emb.mean(tokenize(value))
            if vec is not None:
                norm = np.linalg.norm(vec)
                if norm > 0:
                    rows.append(vec / norm)
        matrix = np.vstack(rows) if rows else np.zeros((0, emb.dim))
        self._cell_embeds[key] = (emb, matrix)  # keep emb alive so id() stays valid
        return matrix


def build_value_stats(table):
    """Collect distinct values, numeric ranges, and token counts per column."""
    per_column = {}
    for col in table.schema.columns:
        cells = table.column_values(col.position)
        values = frozenset(c.casefold() for c in cells)
        normalized = frozenset(normalize(c) for c in cells if normalize(c))
        counts = Counter(tok for c in cells for tok in tokenize(c))
        numeric_range = None
        if col.col_type == REAL:
            nums = [n for n in (parse_number(c) for c in cells) if n is not None]
            if nums:
                numeric_range = (min(nums), max(nums))
        per_column[col.position] = ColumnStats(values, normalized, numeric_range, counts)
    return ValueStats(per_column)


def load_tables(path):
    """Load a JSON-lines table file into (TableSchema, Table) pairs.

    Each line carries `id`, `header`, `types`, and `rows`.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                table_id = obj["id"]
                header = obj["header"]
                types = obj["types"]
                rows = obj["rows"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise MetaError(f"{path}: malformed line {lineno}: {exc}") from exc
            if len(types) != len(header):
                raise MetaError(f"{path}: line {lineno}: header/types length mismatch")
            try:
                columns = tuple(
                    ColumnMeta(str(name), str(typ), pos)
                    for pos, (name, typ) in enumerate(zip(header, types))
                )
                schema = TableSchema(str(table_id), columns)
            except MetaError as exc:
                raise MetaError(f"{path}: line {lineno} ({table_id}): {exc}") from exc
            cells = tuple(tuple(cell_str(v) for v in row) for row in rows)
            out.append((schema, Table(schema, cells)))
    return out


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
        if not self.tokens:
            raise MetaError("empty phrase template")
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

    def __len__(self):
        return len(self.by_column)


EMPTY_LEXICON = PhraseLexicon({})


def _split_slots(phrase):
    # normalize both slot spellings to one sentinel token before tokenizing
    for spelling in _SLOT_SPELLINGS:
        phrase = phrase.replace(spelling, " ⟨slot⟩ ")
    parts = []
    for piece in phrase.split("⟨slot⟩"):
        parts.append(tuple(tokenize(piece)))
    return parts


def load_phrase_lexicon(path, known_columns=None):
    """Load a lexicon file: one `column<TAB>phrase1|phrase2...` line each.

    `<slot>` (or the angle-bracket form) marks the wildcard. Entries naming
    columns outside `known_columns` are kept with a warning; lexicons are
    shared across tables.
    """
    by_column = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise MetaError(f"{path}: line {lineno}: expected column<TAB>phrases")
            column, phrases = line.split("\t", 1)
            key = column.strip().casefold()
            if known_columns is not None and key not in known_columns:
                log.warning("%s: line %d: column %r not in any known schema", path, lineno, column)
            templates = by_column.setdefault(key, set())
            for phrase in phrases.split("|"):
                phrase = phrase.strip()
                if not phrase:
                    continue
                pieces = _split_slots(phrase)
                tokens = []
                for i, piece in enumerate(pieces):
                    if i > 0:
                        tokens.append(None)
                    tokens.extend(piece)
                templates.add(PhraseTemplate(tuple(tokens)))
    return PhraseLexicon(
        {k: tuple(sorted(v, key=lambda t: repr(t.tokens))) for k, v in by_column.items()}
    )


class EmbeddingStore:
    """Word -> vector map with a fixed dimension; absent words return None."""

    def __init__(self, vectors, dim):
        self._vectors = vectors
        self.dim = dim

    @classmethod
    def from_dict(cls, mapping):
        vecs = {w: np.asarray(v, dtype=float) for w, v in mapping.items()}
        dims = {v.shape for v in vecs.values()}
        if len(dims) > 1:
            raise MetaError(f"inconsistent embedding dimensions: {sorted(dims)}")
        dim = next(iter(dims))[0] if dims else 0
        return cls(vecs, dim)

    def __len__(self):
        return len(self._vectors)

    def __contains__(self, word):
        return word.casefold() in self._vectors

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
    """Load a GloVe-style text vector file; dimension inferred from line 1."""
    vectors = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip().split()
            if not parts:
                continue
            word, *nums = parts
            if dim is None:
                dim = len(nums)
                if dim == 0:
                    raise MetaError(f"{path}: line {lineno}: no vector components")
            elif len(nums) != dim:
                raise MetaError(
                    f"{path}: line {lineno}: expected {dim} components, got {len(nums)}"
                )
            vectors[word.casefold()] = np.asarray([float(x) for x in nums])
    return EmbeddingStore(vectors, dim or 0)


def cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def value_affinity(term, column, stats, emb):
    """Score in [0, 1] for how likely `term` (a token sequence) is a value
    of `column`.

    Exact case-folded cell matches score 1.0. Numeric terms against a real
    column score on the range check alone. Otherwise the score is the best
    cosine between the term's mean embedding and the cell values' mean
    embeddings, rescaled to [0, 1]; 0.0 with no embedding evidence.
    """
    if not term:
        raise ValueError("empty term")
    cstats = stats.column(column.position)
    joined = " ".join(t.casefold() for t in term)
    if joined in cstats.normalized:
        return 1.0
    num = parse_number("".join(term))
    if num is not None and column.col_type == REAL:
        rng = cstats.numeric_range
        return 1.0 if rng is not None and rng[0] <= num <= rng[1] else 0.0
    if emb is None or emb.dim == 0:
        return 0.0
    tvec = emb.mean(t.casefold() for t in term)
    if tvec is None:
        return 0.0
    tnorm = np.linalg.norm(tvec)
    if tnorm == 0:
        return 0.0
    cells = stats.cell_embeddings(column.position, emb)
    if cells.shape[0] == 0:
        return 0.0
    best = float(np.max(cells @ (tvec / tnorm)))
    return min(1.0, max(0.0, (best + 1.0) / 2.0))
