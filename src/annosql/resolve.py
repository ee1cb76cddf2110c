"""Mention resolution: pick a globally consistent subset of candidate
mentions via structural closeness and maximum bipartite matching, then
assign annotation indices.

The closeness source for pruning is either a constituency tree (LCA depth)
or the TOKEN_DISTANCE fallback (negated token distance).
"""

import logging
from dataclasses import dataclass

from .mentions import detect_column_mentions, detect_value_mentions
from .text import tokenize_with_offsets

log = logging.getLogger(__name__)

TOKEN_DISTANCE = "token-distance"


@dataclass(frozen=True)
class Question:
    """A tokenized question with enough context to recover exact surfaces."""

    text: str
    tokens: tuple
    offsets: tuple

    @classmethod
    def from_text(cls, text):
        tokens, offsets = tokenize_with_offsets(text)
        return cls(text, tuple(tokens), tuple(offsets))

    def surface(self, span):
        """The question substring covering `span`, original spelling intact."""
        return self.text[self.offsets[span.start][0] : self.offsets[span.end - 1][1]]

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class ValueVertex:
    """All value mentions sharing one span, merged into a single vertex."""

    span: object
    mentions: tuple  # CandidateMention per candidate column

    @property
    def score(self):
        return max(m.score for m in self.mentions)

    @property
    def columns(self):
        seen, out = set(), []
        for m in self.mentions:
            if m.column.position not in seen:
                seen.add(m.column.position)
                out.append(m.column)
        return out


@dataclass(frozen=True)
class ColumnVertex:
    column: object  # ColumnMeta
    span: object = None  # None for a synthetic (unmentioned) column
    score: float = 0.0

    @property
    def synthetic(self):
        return self.span is None


@dataclass(frozen=True)
class MatchGraph:
    values: tuple  # ValueVertex
    columns: tuple  # ColumnVertex
    adjacency: tuple  # per value vertex: tuple of column-vertex indices


def _span_closeness(span_a, span_b, closeness_source):
    """Structural closeness of two spans: max LCA depth over their token
    pairs, or max negated token distance under the TOKEN_DISTANCE fallback."""
    best = None
    for i in range(span_a.start, span_a.end):
        for j in range(span_b.start, span_b.end):
            c = (
                -abs(i - j)
                if closeness_source == TOKEN_DISTANCE
                else closeness_source.lca_depth(i, j)
            )
            if best is None or c > best:
                best = c
    return best


def build_match_graph(values, columns, closeness_source):
    """Bipartite graph of value vertices vs. column-mention vertices.

    Only a value's best-closeness edges to column mentions survive.
    Candidate columns with no mention get a synthetic vertex reachable only
    from their triggering value, always kept (nothing to measure against).
    """
    vertices = []
    by_span = {}
    for m in values:
        by_span.setdefault(m.span, []).append(m)
    for span in sorted(by_span):
        vertices.append(ValueVertex(span, tuple(by_span[span])))

    col_vertices = [
        ColumnVertex(m.column, m.span, m.score)
        for m in sorted(columns, key=lambda m: (m.span.start, m.span.end, m.column.position))
    ]
    vertices_of = {}
    for ci, cv in enumerate(col_vertices):
        vertices_of.setdefault(cv.column.position, []).append(ci)

    adjacency = []
    for vv in vertices:
        scored = []
        synthetic_cols = []
        for col in vv.columns:
            if col.position in vertices_of:
                for ci in vertices_of[col.position]:
                    closeness = _span_closeness(vv.span, col_vertices[ci].span, closeness_source)
                    scored.append((ci, closeness))
            else:
                synthetic_cols.append(col)
        edges = []
        if scored:
            best = max(c for _, c in scored)
            edges = [ci for ci, c in scored if c == best]
        for col in synthetic_cols:
            col_vertices.append(ColumnVertex(col))
            edges.append(len(col_vertices) - 1)
        # mentioned targets first (score desc, position asc), synthetics last
        edges.sort(
            key=lambda ci: (
                col_vertices[ci].synthetic,
                -col_vertices[ci].score,
                col_vertices[ci].span.start if col_vertices[ci].span else 0,
                col_vertices[ci].column.position,
            )
        )
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


@dataclass(frozen=True)
class ColumnBinding:
    name: str
    position: int | None  # earliest question token, None when unmentioned


@dataclass(frozen=True)
class ValueBinding:
    surface: str
    position: int
    column: str


@dataclass(frozen=True)
class SymbolTable:
    """Bindings for c_i / v_i symbols; g_i binds by header position."""

    columns: dict
    values: dict

    def column_name(self, index):
        return self.columns[index].name

    def value_surface(self, index):
        return self.values[index].surface

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


@dataclass(frozen=True)
class AcceptedMention:
    span: object
    family: str  # "c" or "v"
    index: int


@dataclass(frozen=True)
class Annotation:
    question: Question
    accepted: tuple  # AcceptedMention, sorted by span
    symbols: SymbolTable

    @property
    def tokens(self):
        return self.question.tokens


@dataclass
class _Group:
    """One annotation group: a matched (column, value) pair or a lone mention."""

    column: object  # ColumnMeta
    col_span: object = None
    col_score: float = 0.0
    value: object = None  # ValueVertex
    paired: bool = False  # True when built from a matching edge
    col_alive: bool = True
    val_alive: bool = True


def assign_indices(graph, matching, question):
    """Turn a matching into an Annotation with 1-based shared indices.

    Matched pairs share an index; unmatched mentions get their own. Indices
    follow the earliest question position of each group's earliest accepted
    mention (an unmentioned matched column inherits its value's position).
    Overlapping accepted spans keep the higher-score, longer, earlier one.
    """
    groups = []
    for vi in sorted(matching):
        cv = graph.columns[matching[vi]]
        groups.append(
            _Group(
                column=cv.column,
                col_span=cv.span,
                col_score=cv.score,
                value=graph.values[vi],
                paired=True,
            )
        )
    matched_cols = set(matching.values())
    for ci, cv in enumerate(graph.columns):
        if ci not in matched_cols and not cv.synthetic:
            groups.append(_Group(column=cv.column, col_span=cv.span, col_score=cv.score))
    for vi, vv in enumerate(graph.values):
        if vi not in matching:
            best = max(vv.mentions, key=lambda m: (m.score, -m.column.position))
            groups.append(_Group(column=best.column, value=vv))

    # resolve overlaps among would-be accepted spans
    units = []
    for g in groups:
        if g.col_span is not None:
            units.append((g.col_score, len(g.col_span), g.col_span, g, "col"))
        if g.value is not None:
            units.append((g.value.score, len(g.value.span), g.value.span, g, "val"))
    kept_spans = []
    units.sort(key=lambda u: (-u[0], -u[1], u[2].start, u[4]))
    for _score, _length, span, g, role in units:
        if any(span.overlaps(k) for k in kept_spans):
            if role == "col":
                g.col_alive = False
            else:
                g.val_alive = False
        else:
            kept_spans.append(span)

    final = []
    for g in groups:
        col_span = g.col_span if g.col_alive else None
        value = g.value if g.val_alive else None
        if col_span is None and value is None:
            continue
        spans = [s for s in (col_span, value.span if value is not None else None) if s is not None]
        position = min(s.start for s in spans)
        binds_column = col_span is not None or (g.paired and value is not None)
        final.append((position, col_span, value, binds_column, g.column))

    final.sort(key=lambda item: item[0])
    columns, values, accepted = {}, {}, []
    for index, (position, col_span, value, binds_column, column) in enumerate(final, start=1):
        if binds_column:
            columns[index] = ColumnBinding(
                column.name, col_span.start if col_span is not None else None
            )
            if col_span is not None:
                accepted.append(AcceptedMention(col_span, "c", index))
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

    `tree` may be a ConstituencyTree; when it is None, token distance is
    used as the closeness fallback so pruning still applies. A tree whose
    leaf count disagrees with the tokenization is ignored.
    """
    question = Question.from_text(question_text)
    closeness = TOKEN_DISTANCE
    if tree is not None:
        if len(tree) == len(question):
            closeness = tree
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
