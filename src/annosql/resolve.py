"""Mention resolution: pick a globally consistent subset of candidate
mentions via structural closeness and maximum bipartite matching, then
assign annotation indices.

Closeness for pruning is a function of two token positions: a
constituency tree's LCA depth, or token_closeness (negated token distance)
when there is no usable tree.
"""

import logging
from dataclasses import dataclass

from .mentions import CandidateMention, detect_column_mentions, detect_value_mentions, keep_disjoint
from .text import tokenize_with_offsets

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class Question:
    """A tokenized question with enough context to recover exact surfaces."""

    text: str
    tokens: tuple
    offsets: tuple  # flat: token i spans text[offsets[2 * i] : offsets[2 * i + 1]]

    @classmethod
    def from_text(cls, text):
        tokens, offsets = tokenize_with_offsets(text)
        return cls(text, tuple(tokens), tuple(offsets))

    def surface(self, span):
        """The question substring covering `span`, original spelling intact."""
        return self.text[self.offsets[2 * span.start] : self.offsets[2 * span.end - 1]]

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class ValueVertex:
    """All value mentions sharing one span, merged into a single vertex."""

    span: object
    mentions: tuple  # one CandidateMention per candidate column

    @property
    def score(self):
        return max(m.score for m in self.mentions)


@dataclass(frozen=True)
class MatchGraph:
    values: tuple  # ValueVertex
    columns: tuple  # CandidateMention; span None for a synthetic (unmentioned) column
    adjacency: tuple  # per value vertex: tuple of column-vertex indices


def token_closeness(i, j):
    """Closeness of two token positions without a tree: negated distance."""
    return -abs(i - j)


def _span_closeness(span_a, span_b, closeness):
    """Structural closeness of two spans: the best `closeness(i, j)` over
    their token pairs."""
    return max(
        closeness(i, j)
        for i in range(span_a.start, span_a.end)
        for j in range(span_b.start, span_b.end)
    )


def build_match_graph(values, columns, closeness):
    """Bipartite graph of value vertices vs. column-mention vertices.

    Only a value's best-closeness edges to column mentions survive, under
    `closeness(i, j)` of two token positions. Candidate columns with no
    mention get a synthetic vertex reachable only from their triggering
    value, always kept (nothing to measure against). A value's edges run
    best-scored, earliest, lowest column position first; synthetics last.
    """
    by_span = {}
    for m in values:
        by_span.setdefault(m.span, []).append(m)
    vertices = [ValueVertex(span, tuple(by_span[span])) for span in sorted(by_span)]

    col_vertices = sorted(columns, key=lambda m: (m.span.start, m.span.end, m.column.position))
    vertices_of = {}
    for ci, cv in enumerate(col_vertices):
        vertices_of.setdefault(cv.column.position, []).append(ci)
    rank = [(-cv.score, cv.span.start, cv.column.position) for cv in col_vertices]

    adjacency = []
    for vv in vertices:
        scored = [
            (_span_closeness(vv.span, col_vertices[ci].span, closeness), ci)
            for m in vv.mentions
            for ci in vertices_of.get(m.column.position, ())
        ]
        best = max((c for c, _ in scored), default=None)
        edges = sorted((ci for c, ci in scored if c == best), key=rank.__getitem__)
        for m in vv.mentions:
            if m.column.position not in vertices_of:
                col_vertices.append(CandidateMention(None, m.column, 0.0))
                edges.append(len(col_vertices) - 1)
        adjacency.append(tuple(edges))
    return MatchGraph(tuple(vertices), tuple(col_vertices), tuple(adjacency))


def kuhn_match(adjacency, left_order):
    """Maximum bipartite matching over adjacency lists (augmenting paths).

    Returns {left index: right index}. Left vertices are tried in
    `left_order`, which decides the maximum matching ties break toward.
    """
    match_right = {}
    match_left = {}

    def try_augment(u, seen):
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or try_augment(match_right[v], seen):
                match_right[v] = u
                match_left[u] = v
                return True
        return False

    for u in left_order:
        try_augment(u, set())
    return match_left


def max_bipartite_matching(graph):
    """Maximum matching on a MatchGraph; high-score, early values go first."""
    order = sorted(
        range(len(graph.values)),
        key=lambda vi: (-graph.values[vi].score, graph.values[vi].span.start),
    )
    return kuhn_match(graph.adjacency, order)


@dataclass(frozen=True, slots=True)
class ColumnBinding:
    name: str
    position: int | None  # earliest question token, None when unmentioned


@dataclass(frozen=True, slots=True)
class ValueBinding:
    surface: str
    position: int
    column: str


@dataclass(frozen=True, slots=True)
class SymbolTable:
    """Bindings for c_i / v_i symbols; g_i binds by header position."""

    columns: dict
    values: dict

    def to_dict(self):
        return {
            "columns": {
                f"c{i}": {"name": b.name, "position": b.position}
                for i, b in sorted(self.columns.items())
            },
            "values": {
                f"v{i}": {"surface": b.surface, "position": b.position, "column": b.column}
                for i, b in sorted(self.values.items())
            },
        }


@dataclass(frozen=True, slots=True)
class AcceptedMention:
    span: object
    family: str  # "c" or "v"
    index: int


@dataclass(frozen=True, slots=True)
class Annotation:
    question: Question
    accepted: tuple  # AcceptedMention, sorted by span
    symbols: SymbolTable

    @property
    def tokens(self):
        return self.question.tokens


def assign_indices(graph, matching, question):
    """Turn a matching into an Annotation with 1-based shared indices.

    Matched pairs share an index; unmatched mentions get their own. Indices
    follow the earliest question position of each group's earliest accepted
    mention (an unmentioned matched column inherits its value's position).
    Overlapping accepted spans keep the higher-score, longer, earlier one,
    then a column's span before a value's.
    """
    # a group: (column vertex with a span or None, value vertex or None, its
    # column, whether it binds the column); each vertex is in one group
    groups = []
    for vi, ci in sorted(matching.items()):
        cv = graph.columns[ci]
        groups.append((cv if cv.span is not None else None, graph.values[vi], cv.column, True))
    matched = set(matching.values())
    for ci, cv in enumerate(graph.columns):
        if ci not in matched and cv.span is not None:
            groups.append((cv, None, cv.column, True))
    for vi, vv in enumerate(graph.values):
        if vi not in matching:
            best = max(vv.mentions, key=lambda m: (m.score, -m.column.position))
            groups.append((None, vv, best.column, False))

    parts = [part for group in groups for part in group[:2] if part is not None]
    parts.sort(key=lambda p: (-p.score, -len(p.span), p.span.start, isinstance(p, ValueVertex)))
    kept = {id(part) for part in keep_disjoint(parts)}
    final = []
    for col, value, column, binds in groups:
        col = col if id(col) in kept else None
        value = value if id(value) in kept else None
        spans = [part.span for part in (col, value) if part is not None]
        if spans:
            final.append((min(s.start for s in spans), col, value, column, binds))

    final.sort(key=lambda item: item[0])
    columns, values, accepted = {}, {}, []
    for index, (_position, col, value, column, binds) in enumerate(final, start=1):
        if binds:
            columns[index] = ColumnBinding(column.name, col.span.start if col is not None else None)
            if col is not None:
                accepted.append(AcceptedMention(col.span, "c", index))
        if value is not None:
            values[index] = ValueBinding(
                question.surface(value.span), value.span.start, column.name
            )
            accepted.append(AcceptedMention(value.span, "v", index))

    accepted.sort(key=lambda m: (m.span.start, m.span.end))
    return Annotation(question, tuple(accepted), SymbolTable(columns, values))


def annotate(question_text, schema, stats, lexicon, emb, tree, config):
    """Full annotation pipeline: detect, prune, match, and index, under the
    detection thresholds of `config`.

    `tree` may be a ConstituencyTree; when it is None, token_closeness is
    used as the fallback so pruning still applies. A tree whose
    leaf count disagrees with the tokenization is ignored.
    """
    question = Question.from_text(question_text)
    closeness = token_closeness
    if tree is not None:
        if len(tree) == len(question):
            closeness = tree.lca_depth
        else:
            log.warning(
                "parse tree has %d leaves for %d tokens; falling back to token distance",
                len(tree),
                len(question),
            )
    col_mentions = detect_column_mentions(question.tokens, schema, lexicon, emb, config)
    val_mentions = detect_value_mentions(question.tokens, schema, stats, emb, config, col_mentions)
    graph = build_match_graph(val_mentions, col_mentions, closeness)
    matching = max_bipartite_matching(graph)
    return assign_indices(graph, matching, question)
