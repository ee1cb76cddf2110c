import hashlib
import json
import random
import re

import pytest

from annosql.encoding import encode_question
from annosql.harness import Config
from annosql.mentions import CandidateMention, Span, detect_column_mentions, detect_value_mentions
from annosql.meta import (
    EMPTY_EMBEDDINGS,
    EMPTY_LEXICON,
    MetaError,
    PhraseLexicon,
    PhraseTemplate,
    Table,
    build_value_stats,
)
from annosql.resolve import (
    Question,
    _span_closeness,
    annotate,
    assign_indices,
    build_match_graph,
    kuhn_match,
    max_bipartite_matching,
    token_closeness,
)
from annosql.synth import generate_corpus
from annosql.trees import TreeParseError, load_trees, parse_bracketed
from annosql.text import tokenize

from support import bracketed, embedding_store, make_schema, matching_oracle, tree_tokens

CONFIG = Config()

BOXSCORE_QUESTION = "for which player his rebounds is 2 and points is 3 ?"
BOXSCORE_TREE = (
    "(S (PP (IN for) (NP (WDT which) (NN player)))"
    " (S (NP (PRP$ his) (NNS rebounds)) (VP (VBZ is) (NP (CD 2))))"
    " (CC and)"
    " (S (NP (NNS points)) (VP (VBZ is) (NP (CD 3))))"
    " (. ?))"
)


@pytest.fixture
def boxscore():
    schema = make_schema(
        "boxscore", [("player", "text"), ("rebounds", "real"), ("points", "real")]
    )
    table = Table(
        schema,
        (("LeBron James", "2", "9"), ("Kobe Bryant", "7", "3"), ("Tim Duncan", "11", "1")),
    )
    tree = parse_bracketed(BOXSCORE_TREE)
    return schema, table, build_value_stats(table), tree


def test_parse_bracketed_leaves_align(boxscore):
    _schema, _table, _stats, tree = boxscore
    assert tree_tokens(tree) == tokenize(BOXSCORE_QUESTION)


def test_lca_depth_self_is_leaf_depth():
    tree = parse_bracketed("(S (NP (DT the) (NN dog)) (VP barks))")
    # "the" sits under S(0) -> NP(1) -> DT(2) -> leaf(3)
    assert tree.lca_depth(0, 0) == 3
    assert tree.lca_depth(0, 1) == 1  # NP
    assert tree.lca_depth(0, 2) == 0  # root


def test_lca_depth_root_split():
    tree = parse_bracketed("(S (A x) (B y))")
    assert tree.lca_depth(0, 1) == 0


def test_lca_depth_out_of_range():
    tree = parse_bracketed("(S (A x) (B y))")
    with pytest.raises(IndexError):
        tree.lca_depth(0, 5)


def test_lca_depth_boxscore_pairs(boxscore):
    _schema, _table, _stats, tree = boxscore
    toks = tree_tokens(tree)
    rebounds, points = toks.index("rebounds"), toks.index("points")
    two, three = toks.index("2"), toks.index("3")
    assert tree.lca_depth(rebounds, two) > tree.lca_depth(points, two)
    assert tree.lca_depth(points, three) > tree.lca_depth(rebounds, three)


def test_structural_closeness_singleton_equals_lca(boxscore):
    schema, _table, _stats, tree = boxscore
    col = CandidateMention(Span(4, 5), schema.columns[1], 1.0)
    val = CandidateMention(Span(6, 7), schema.columns[1], 1.0)
    assert _span_closeness(val.span, col.span, tree.lca_depth) == tree.lca_depth(6, 4)


def test_structural_closeness_root_only():
    tree = parse_bracketed("(S a b c d)")
    col = CandidateMention(Span(0, 1), None, 1.0)
    val = CandidateMention(Span(3, 4), None, 1.0)
    assert _span_closeness(val.span, col.span, tree.lca_depth) == 0


def test_structural_closeness_token_distance_fallback():
    col = CandidateMention(Span(0, 2), None, 1.0)
    val = CandidateMention(Span(5, 6), None, 1.0)
    assert _span_closeness(val.span, col.span, token_closeness) == -4  # closest pair: 1 vs 5


def test_build_match_graph_tree_prunes_to_nested_pairs(boxscore):
    schema, _table, stats, tree = boxscore
    tokens = tokenize(BOXSCORE_QUESTION)
    cols = detect_column_mentions(tokens, schema, EMPTY_LEXICON, EMPTY_EMBEDDINGS, CONFIG)
    vals = detect_value_mentions(tokens, schema, stats, EMPTY_EMBEDDINGS, CONFIG, cols)
    graph = build_match_graph(vals, cols, tree.lca_depth)
    edges = set()
    for vi, targets in enumerate(graph.adjacency):
        for ci in targets:
            edges.add((tokens[graph.values[vi].span.start], graph.columns[ci].column.name))
    assert edges == {("2", "rebounds"), ("3", "points")}


def test_build_match_graph_synthetic_for_unmentioned(townlands):
    schema, _table, stats, lexicon, question = townlands
    tokens = tokenize(question)
    cols = detect_column_mentions(tokens, schema, lexicon, EMPTY_EMBEDDINGS, CONFIG)
    vals = detect_value_mentions(tokens, schema, stats, EMPTY_EMBEDDINGS, CONFIG, cols)
    graph = build_match_graph(vals, cols, token_closeness)
    mayo = next(vi for vi, vv in enumerate(graph.values) if tokens[vv.span.start] == "mayo")
    [target] = graph.adjacency[mayo]
    assert graph.columns[target].span is None
    assert graph.columns[target].column.name == "County"


def test_kuhn_single_edge_and_empty():
    assert kuhn_match([[0]], [0]) == {0: 0}
    assert kuhn_match([], []) == {}
    assert kuhn_match([[], []], [0, 1]) == {}


def test_kuhn_k22_example():
    # edges {(v1,c1),(v1,c2),(v2,c1)}: the only size-2 matching is v1-c2, v2-c1
    match = kuhn_match([[0, 1], [0]], [0, 1])
    assert match == {0: 1, 1: 0}


def test_mbm_matches_bruteforce_on_random_graphs():
    rng = random.Random(99)
    for _ in range(300):
        n_left, n_right = rng.randint(0, 6), rng.randint(1, 6)
        adjacency = [
            tuple(sorted(rng.sample(range(n_right), rng.randint(0, n_right))))
            for _ in range(n_left)
        ]
        got = len(kuhn_match(adjacency, range(n_left)))
        assert got == matching_oracle(tuple(adjacency), n_right)


def test_isolated_vertex_never_changes_matching():
    rng = random.Random(3)
    for _ in range(100):
        n_left, n_right = rng.randint(1, 5), rng.randint(1, 5)
        adjacency = [
            tuple(sorted(rng.sample(range(n_right), rng.randint(0, n_right))))
            for _ in range(n_left)
        ]
        base = kuhn_match(adjacency, range(n_left))
        with_isolated = kuhn_match(adjacency + [()], range(n_left + 1))
        assert with_isolated == base


def test_assign_indices_film_awards(film_awards):
    schema, _table, stats, lexicon, question = film_awards
    ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, CONFIG)
    syms = ann.symbols
    assert syms.columns[1].name == "Film_Name"
    assert syms.columns[2].name == "Director"
    assert syms.columns[3].name == "Actor"
    assert syms.values[2].surface == "Jerzy Antczak"
    assert syms.values[3].surface == "Piotr Adamczyk"
    assert 1 not in syms.values  # select column has no paired value


def test_assign_indices_townlands(townlands):
    schema, _table, stats, lexicon, question = townlands
    ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, CONFIG)
    syms = ann.symbols
    assert syms.columns[1].name == "Population"
    assert syms.columns[2] == type(syms.columns[2])("County", None)  # unmentioned
    assert syms.columns[3].name == "English_Name"
    assert syms.values[2].surface == "Mayo"
    assert syms.values[3].surface == "Carrowteige"


def test_assign_indices_empty():
    schema = make_schema("t", [("quarterly revenue", "real")])
    stats = build_value_stats(Table(schema, ()))
    question = "does the moon orbit anything ?"
    ann = annotate(question, schema, stats, EMPTY_LEXICON, EMPTY_EMBEDDINGS, None, CONFIG)
    assert ann.symbols.columns == {}
    assert ann.symbols.values == {}
    assert ann.accepted == ()


def test_assign_indices_shared_and_ordered(boxscore):
    schema, _table, stats, tree = boxscore
    ann = annotate(BOXSCORE_QUESTION, schema, stats, EMPTY_LEXICON, EMPTY_EMBEDDINGS, tree, CONFIG)
    syms = ann.symbols
    # player mentioned first -> c1; (rebounds, 2) -> c2/v2; (points, 3) -> c3/v3
    assert syms.columns[1].name == "player"
    assert (syms.columns[2].name, syms.values[2].surface) == ("rebounds", "2")
    assert (syms.columns[3].name, syms.values[3].surface) == ("points", "3")
    indices = sorted(set(syms.columns) | set(syms.values))
    assert indices == list(range(1, len(indices) + 1))


def test_accepted_spans_never_overlap(film_awards, townlands, boxscore):
    cases = []
    for schema, _table, stats, lexicon, question in (film_awards, townlands):
        cases.append((question, schema, stats, lexicon, None))
    schema3, _t3, stats3, tree3 = boxscore
    cases.append((BOXSCORE_QUESTION, schema3, stats3, EMPTY_LEXICON, tree3))
    for question, schema, stats, lexicon, tree in cases:
        ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, tree, CONFIG)
        spans = [m.span for m in ann.accepted]
        for i, a in enumerate(spans):
            for b in spans[i + 1 :]:
                assert not a.overlaps(b)


def test_assign_indices_direct(townlands):
    schema, _table, stats, lexicon, question = townlands
    q = Question.from_text(question)
    cols = detect_column_mentions(q.tokens, schema, lexicon, EMPTY_EMBEDDINGS, CONFIG)
    vals = detect_value_mentions(q.tokens, schema, stats, EMPTY_EMBEDDINGS, CONFIG, cols)
    graph = build_match_graph(vals, cols, token_closeness)
    matching = max_bipartite_matching(graph)
    ann = assign_indices(graph, matching, q)
    assert ann.symbols.columns[2].name == "County"
    assert ann.symbols.columns[2].position is None


def test_annotate_deterministic(townlands):
    schema, _table, stats, lexicon, question = townlands
    a = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, CONFIG)
    b = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, None, CONFIG)
    assert a.symbols.to_dict() == b.symbols.to_dict()
    assert a.accepted == b.accepted


def test_tree_overrides_token_distance_tie():
    """When token distance ties between two candidate columns, the
    constituency tree decides the pairing."""
    schema = make_schema("t", [("points", "real"), ("rebounds", "real")])
    table = Table(schema, (("2", "2"), ("9", "7")))
    stats = build_value_stats(table)
    question = "points 2 rebounds"
    tree = parse_bracketed("(S (A points) (B (C 2) (D rebounds)))")

    flat = annotate(question, schema, stats, EMPTY_LEXICON, EMPTY_EMBEDDINGS, None, CONFIG)
    assert flat.symbols.values[1].column == "points"  # tie broken by earlier mention

    grouped = annotate(question, schema, stats, EMPTY_LEXICON, EMPTY_EMBEDDINGS, tree, CONFIG)
    paired = next(
        grouped.symbols.values[i].column
        for i in grouped.symbols.values
    )
    assert paired == "rebounds"  # the tree nests 2 with rebounds


def test_annotate_mismatched_tree_falls_back(townlands, caplog):
    schema, _table, stats, lexicon, question = townlands
    short_tree = parse_bracketed("(S (A x) (B y))")
    with caplog.at_level("WARNING"):
        ann = annotate(question, schema, stats, lexicon, EMPTY_EMBEDDINGS, short_tree, CONFIG)
    assert ann.symbols.columns[1].name == "Population"
    assert any("falling back" in rec.message for rec in caplog.records)


def test_load_trees_blank_lines(tmp_path):
    path = tmp_path / "trees.txt"
    path.write_text("(S (A x) (B y))\n\n(S z)\n")
    trees = load_trees(str(path))
    assert len(trees) == 3
    assert trees[1] is None
    assert tree_tokens(trees[0]) == ["x", "y"]


def test_load_trees_nested_5000_deep(tmp_path):
    """Nesting depth is not limited: a 5000-deep line loads (its singleton
    wrappers unwrap down to the last node above the leaf), and the same
    line with one bracket missing fails naming line 2."""
    path = tmp_path / "trees.txt"
    deep = "(A " * 5000 + "x" + ")" * 5000
    path.write_text(f"(S (A x) (B y))\n{deep}\n")
    tree = load_trees(str(path))[1]
    assert tree_tokens(tree) == ["x"]
    assert tree.lca_depth(0, 0) == 1
    path.write_text(f"(S (A x) (B y))\n{deep[:-1]}\n")
    with pytest.raises(MetaError, match=f"^{re.escape(str(path))}:2: TreeParseError: unbalanced brackets$"):
        load_trees(str(path))


def test_singleton_wrapper_unwraps():
    wrapped, bare = parse_bracketed("(TOP (S (A x) (B y)))"), parse_bracketed("(S (A x) (B y))")
    pairs = [(0, 0), (0, 1), (1, 1)]
    assert [wrapped.lca_depth(i, j) for i, j in pairs] == [bare.lca_depth(i, j) for i, j in pairs] == [2, 0, 2]


def test_contentless_node_is_a_leaf():
    tree = parse_bracketed("(S (NN) (A x))")
    assert tree_tokens(tree) == ["NN", "x"]
    assert [tree.lca_depth(0, 0), tree.lca_depth(0, 1), tree.lca_depth(1, 1)] == [1, 0, 2]


@pytest.mark.parametrize(
    "line, message",
    [
        ("   ", "empty tree line"),
        ("S (A x))", "expected '(' at token 0"),
        ("(S (A x) ())", "missing label at token 7"),
        ("(S (A x) (B y)", "unbalanced brackets"),
        ("(S (A x)) (B y)", "trailing content after tree"),
    ],
    ids=["empty", "no-open-paren", "missing-label", "unbalanced", "trailing"],
)
def test_tree_parse_errors(line, message):
    with pytest.raises(TreeParseError, match=f"^{re.escape(message)}$"):
        parse_bracketed(line)


def _drawn_bracketing(rng, path=(), depth=0):
    """(bracketed text, [(token, child-index path from the root)]) of a
    random n-ary tree; the root has at least two children, so nothing is
    unwrapped, and a node may be a bare token or a content-less "(NN)"."""
    kids, leaves = [], []
    for k in range(rng.randint(2 if depth == 0 else 1, 4)):
        roll = rng.random()
        if depth >= 5 or roll < 0.4:
            token = f"w{len(leaves)}"
            kids.append(token)
            leaves.append((token, path + (k,)))
        elif roll < 0.5:
            kids.append("(NN)")
            leaves.append(("NN", path + (k,)))
        else:
            text, below = _drawn_bracketing(rng, path + (k,), depth + 1)
            kids.append(text)
            leaves += below
    return f"(X{depth} {' '.join(kids)})", leaves


def test_drawn_bracketings_match_child_index_paths():
    rng = random.Random(41)
    for _ in range(300):
        text, leaves = _drawn_bracketing(rng)
        if rng.random() < 0.3:
            text = f"(TOP {text})"
        tree = parse_bracketed(text)
        assert tree_tokens(tree) == [token for token, _ in leaves]
        for i, (_, pi) in enumerate(leaves):
            for j, (_, pj) in enumerate(leaves):
                common = next((d for d, (a, b) in enumerate(zip(pi, pj)) if a != b), min(len(pi), len(pj)))
                assert tree.lca_depth(i, j) == common


def test_question_surface_preserves_original_text():
    q = Question.from_text("Which film stars Chopin: Desire for Love ?")
    span = Span(3, 8)
    assert q.surface(span) == "Chopin: Desire for Love"


def random_tree(tokens, rng):
    """A seeded random binary bracketing of `tokens`, parsed."""
    return parse_bracketed(bracketed(tokens, rng))


ANNOTATION_DIGEST = "81701b7202ed9e03f283a5d7a5bde715e65ae11fa51c6e399d9e315384b1f3dd"


def test_annotation_digest_with_trees_lexicon_embeddings():
    """Annotation of a synth corpus under every mix of closeness source
    (token distance or a random tree), side inputs (none, or a lexicon and
    random embeddings) and thresholds hashes to a stored digest, so a change
    to resolution that alters any annotation shows here."""
    examples, tables, _records = generate_corpus(60, 8, 29, Config())
    rng = random.Random(29)
    words = sorted({tok for ex in examples for tok in tokenize(ex.question)})
    emb = embedding_store({w: [rng.uniform(-1.0, 1.0) for _ in range(8)] for w in words})
    lexicon = PhraseLexicon(
        {
            "points": (PhraseTemplate(("highest",)),),
            "player": (PhraseTemplate(("who", "has", "a", None)),),
        }
    )
    trees = [random_tree(tokenize(ex.question), rng) for ex in examples]
    loose = Config(tau_ed=0.7, tau_sim=0.4, theta_val=0.3)
    digest = hashlib.sha256()
    for ex, tree in zip(examples, trees):
        bundle = tables[ex.table_id]
        for use_tree in (None, tree):
            for lex, vectors in ((EMPTY_LEXICON, EMPTY_EMBEDDINGS), (lexicon, emb)):
                for config in (Config(), loose):
                    ann = annotate(
                        ex.question, bundle.schema, bundle.stats, lex, vectors, use_tree, config
                    )
                    accepted = [(m.span.start, m.span.end, m.family, m.index) for m in ann.accepted]
                    encoded = encode_question(ann, bundle.schema, "stack", True)
                    record = [ann.symbols.to_dict(), accepted, encoded]
                    digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == ANNOTATION_DIGEST
