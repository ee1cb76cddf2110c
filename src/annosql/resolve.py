"""Mention resolution: pick a globally consistent subset of candidate
mentions via structural closeness and maximum bipartite matching, then
assign annotation indices.

Closeness for pruning is a function of two token positions: a
constituency tree's LCA depth, or token_closeness (negated token distance)
when there is no usable tree.
"""

import logging
from dataclasses import dataclass

from .mentions import CandidateMention, detect_column_mentions, detect_value_mentions
from .text import tokenize_with_offsets

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class ValueVertex:
    """All value mentions sharing one span, merged into a single vertex."""

    span: object
    mentions: tuple  # one CandidateMention per candidate column
    score: float  # the best mention's


@dataclass(frozen=True, slots=True)
class MatchGraph:
    values: tuple  # ValueVertex
    columns: tuple  # CandidateMention; span None for a synthetic (unmentioned) column
    adjacency: tuple  # per value vertex: tuple of column-vertex indices


def token_closeness(i, j):
    """Closeness of two token positions without a tree: negated distance."""
    return -abs(i - j)


def _span_closeness(a, b, closeness):
    """Structural closeness of two spans: the best `closeness(i, j)` over
    their token pairs. Neither closeness function ranks a pair above a pair
    it encloses (a subtree's leaves are contiguous), so that is the facing
    ends of disjoint spans, or a shared token with itself."""
    if a.end <= b.start:
        return closeness(a.end - 1, b.start)
    if b.end <= a.start:
        return closeness(a.start, b.end - 1)
    return max(closeness(k, k) for k in range(max(a.start, b.start), min(a.end, b.end)))


def build_match_graph(values, columns, closeness):
    """Bipartite graph of value vertices vs. column-mention vertices.

    Only a value's best-closeness edges to column mentions survive, under
    `closeness(i, j)` of two token positions. Candidate columns with no
    mention get a synthetic vertex reachable only from their triggering
    value, always kept (nothing to measure against). A value's edges run
    best-scored, earliest, lowest column position first; synthetics last.
    """
    by_span = {}  # (start, end) -> the value mentions on that span
    for m in values:
        by_span.setdefault((m.span.start, m.span.end), []).append(m)
    vertices = tuple(
        ValueVertex(ms[0].span, tuple(ms), max(m.score for m in ms)) for _, ms in sorted(by_span.items())
    )
    cols = sorted(columns, key=lambda m: (m.span.start, m.span.end, m.column.position))
    vertices_of = {}
    for ci, cv in enumerate(cols):
        vertices_of.setdefault(cv.column.position, []).append(ci)

    adjacency = []
    for vv in vertices:
        best, edges, synthetic = None, [], []
        for m in vv.mentions:
            targets = vertices_of.get(m.column.position)
            if targets is None:
                cols.append(CandidateMention(None, m.column, 0.0))
                synthetic.append(len(cols) - 1)
                continue
            for ci in targets:
                c = _span_closeness(vv.span, cols[ci].span, closeness)
                if best is None or c > best:
                    best, edges = c, [ci]
                elif c == best:
                    edges.append(ci)
        if len(edges) > 1:
            edges.sort(key=lambda ci: (-cols[ci].score, cols[ci].span.start, cols[ci].column.position))
        adjacency.append(tuple(edges + synthetic))
    return MatchGraph(vertices, tuple(cols), tuple(adjacency))


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
    values = graph.values
    order = range(len(values))
    if len(values) > 1:
        order = sorted(order, key=lambda vi: (-values[vi].score, values[vi].span.start))
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
    tokens: tuple  # the question's case-folded tokens
    accepted: tuple  # AcceptedMention, sorted by span
    symbols: SymbolTable


def assign_indices(graph, matching, text, offsets):
    """The accepted mentions and the symbol table of a matching, with
    1-based shared indices.

    Matched pairs share an index; unmatched mentions get their own. Indices
    follow the earliest question position of each group's earliest accepted
    mention (an unmentioned matched column inherits its value's position).
    Overlapping accepted spans keep the higher-score, longer, earlier one,
    then a column's span before a value's. A value's surface is the text
    its span covers, original spelling intact: token i spans
    text[offsets[2 * i] : offsets[2 * i + 1]].
    """
    # a group: [column vertex with a span or None, value vertex or None, its
    # column, whether it binds the column]; each vertex is in one group
    groups = []
    for vi, ci in sorted(matching.items()):
        cv = graph.columns[ci]
        groups.append([cv if cv.span is not None else None, graph.values[vi], cv.column, True])
    matched = set(matching.values())
    for ci, cv in enumerate(graph.columns):
        if ci not in matched and cv.span is not None:
            groups.append([cv, None, cv.column, True])
    for vi, vv in enumerate(graph.values):
        if vi not in matching:
            best = max(vv.mentions, key=lambda m: (m.score, -m.column.position))
            groups.append([None, vv, best.column, False])

    parts = []  # (start, end, group index, slot) of each vertex with a span
    for gi, (col, value, _column, _binds) in enumerate(groups):
        if col is not None:
            parts.append((col.span.start, col.span.end, gi, 0))
        if value is not None:
            parts.append((value.span.start, value.span.end, gi, 1))
    parts.sort()
    if any(b[0] < a[1] for a, b in zip(parts, parts[1:])):  # some overlap; ties stay in group order
        kept = []
        for p in sorted(parts, key=lambda p: (-groups[p[2]][p[3]].score, p[0] - p[1], p[0], p[3])):
            if any(p[0] < end and start < p[1] for start, end, _gi, _slot in kept):
                groups[p[2]][p[3]] = None
            else:
                kept.append(p)
        parts = sorted(kept)

    # indices follow each group's earliest kept part
    columns, values, accepted, index_of = {}, {}, [], {}
    for _start, _end, gi, slot in parts:
        col, value, column, binds = groups[gi]
        index = index_of.get(gi)
        if index is None:
            index = index_of[gi] = len(index_of) + 1
            if binds:
                columns[index] = ColumnBinding(column.name, None if col is None else col.span.start)
            if value is not None:
                surface = text[offsets[2 * value.span.start] : offsets[2 * value.span.end - 1]]
                values[index] = ValueBinding(surface, value.span.start, column.name)
        accepted.append(AcceptedMention(groups[gi][slot].span, "cv"[slot], index))
    return tuple(accepted), SymbolTable(columns, values)


def annotate(question_text, schema, stats, lexicon, emb, tree, config):
    """Full annotation pipeline: detect, prune, match, and index, under the
    detection thresholds of `config`.

    `tree` may be a ConstituencyTree; when it is None, token_closeness is
    used as the fallback so pruning still applies. A tree whose
    leaf count disagrees with the tokenization is ignored.
    """
    tokens, offsets = tokenize_with_offsets(question_text)
    closeness = token_closeness
    if tree is not None:
        if len(tree) == len(tokens):
            closeness = tree.lca_depth
        else:
            log.warning(
                "parse tree has %d leaves for %d tokens; falling back to token distance",
                len(tree),
                len(tokens),
            )
    col_mentions = detect_column_mentions(tokens, schema, lexicon, emb, config)
    val_mentions = detect_value_mentions(tokens, schema, stats, emb, config, col_mentions)
    graph = build_match_graph(val_mentions, col_mentions, closeness)
    matching = max_bipartite_matching(graph)
    return Annotation(tuple(tokens), *assign_indices(graph, matching, question_text, offsets))
