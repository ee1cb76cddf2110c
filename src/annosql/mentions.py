"""Candidate mention detection: column mentions via closeness coverage and
phrase templates, value mentions via cell-value affinity.

All functions are pure over immutable inputs; detection over a corpus can
run in parallel per question.
"""

from dataclasses import dataclass
from functools import lru_cache

from .meta import cosine, term_number, value_affinity
from .text import is_content_token


@dataclass(frozen=True, order=True, slots=True)
class Span:
    """Half-open token interval [start, end) over the question."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def __len__(self):
        return self.end - self.start

    def overlaps(self, other):
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True, slots=True)
class CandidateMention:
    span: Span
    column: object  # ColumnMeta; for a value, the column it likely belongs to
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


def keep_disjoint(items):
    """The items (anything with a `.span`), in priority order, whose span
    overlaps no item kept before them."""
    kept = []
    for item in items:
        if not any(item.span.overlaps(k.span) for k in kept):
            kept.append(item)
    return kept


@lru_cache(maxsize=1 << 14)  # bounded: a long repl session keeps meeting new words
def edit_closeness(x, y):
    """Levenshtein distance over the longer length, in [0, 1] (memoized)."""
    if not x or not y:
        raise ValueError("edit_closeness requires non-empty strings")
    if x == y:
        return 0.0
    prev = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        cur = [i]
        for j, cy in enumerate(y, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (cx != cy)))
        prev = cur
    return prev[-1] / max(len(x), len(y))


def embedding_closeness(x, y, emb):
    """0.5 * (1 - cosine) of the two word vectors, or None if either is missing."""
    if not emb.dim:
        return None
    vx, vy = emb.get(x), emb.get(y)
    if vx is None or vy is None:
        return None
    return 0.5 * (1.0 - cosine(vx, vy))


def words_close(x, y, emb, tau_ed, tau_sim):
    """Close iff either metric is under its threshold."""
    if edit_closeness(x, y) < tau_ed:
        return True
    sem = embedding_closeness(x, y, emb)
    return sem is not None and sem < tau_sim


def _close_rows(content, column, emb, config):
    """Per question position: the set of column-word indices it is close to.

    `content` holds each question token, or None for a stop word or
    punctuation token: those never form pairs, on either side.
    """
    ctoks = column.content_tokens
    rows = []
    for tok in content:
        if tok is None:
            rows.append(frozenset())
            continue
        rows.append(
            frozenset(
                j
                for j, c in enumerate(ctoks)
                if words_close(tok, c, emb, config.tau_ed, config.tau_sim)
            )
        )
    return rows


def _coverage_mention(content, column, emb, config):
    """The shortest span that covers every column word the question covers;
    ties go to more close pairs, then to the earlier start.

    Coverage counts column words, not pairs: "play" pairing with column
    "player" must not stretch a mention that already covers the word.
    """
    rows = _close_rows(content, column, emb, config)
    total = frozenset().union(*rows)
    if not total:
        return None
    best = None
    for a, row in enumerate(rows):
        if not row:
            continue  # the span from the next close token covers as much, and is shorter
        covered = set()
        for b in range(a, len(rows)):
            covered |= rows[b]
            if covered == total:
                break
        else:
            break  # later starts have even less material
        key = (b + 1 - a, -sum(len(r) for r in rows[a : b + 1]), a)
        if best is None or key < best:
            best = key
    length, neg_pairs, a = best
    score = min(1.0, -neg_pairs / len(column.tokens))
    return CandidateMention(Span(a, a + length), column, score)


def _match_template_at(template, qtokens, start):
    """Try to match `template` at token `start`.

    Returns (match_end, literal_span) or None. The slot matches a run of 1-4
    tokens, shortest first; the literal span leaves out an edge slot, so its
    tokens stay available as a value mention.
    """
    toks, slot = template.tokens, template.slot
    before, after = (toks, ()) if slot is None else (toks[:slot], toks[slot + 1 :])
    gap_start = start + len(before)
    if tuple(qtokens[start:gap_start]) != before:
        return None
    for gap in (0,) if slot is None else range(1, 5):
        rest = gap_start + gap
        end = rest + len(after)
        if end > len(qtokens):
            break
        if tuple(qtokens[rest:end]) == after:
            return end, Span(start if before else rest, end if after else gap_start)
    return None


def _lexicon_mentions(qtokens, column, lexicon):
    out = []
    seen = set()
    for template in lexicon.templates_for(column):
        pos = 0
        while pos < len(qtokens):
            hit = _match_template_at(template, qtokens, pos)
            if hit is None:
                pos += 1
                continue
            end, span = hit
            if span not in seen:
                seen.add(span)
                out.append(CandidateMention(span, column, 1.0))
            pos = end
    return out


def detect_column_mentions(qtokens, schema, lexicon, emb, config):
    """Candidate column mentions: per column, its template hits plus its
    shortest covering span, under `config`'s tau_ed and tau_sim.

    When a coverage span overlaps a template hit for the same column, the
    template wins; curated phrases are higher precision.
    """
    content = [tok if is_content_token(tok) else None for tok in qtokens]
    mentions = []
    for column in schema.columns:
        lex = _lexicon_mentions(qtokens, column, lexicon)
        cov = _coverage_mention(content, column, emb, config)
        if cov is not None and not any(cov.span.overlaps(m.span) for m in lex):
            lex.append(cov)
        mentions.extend(sorted(lex, key=lambda m: (m.span.start, m.span.end)))
    return mentions


def _evidence_ends(qtokens, start, first, last, stats):
    """The ends in [first, last] of the spans from `start` that can score
    above 0 without word vectors: exact cell phrases, and the spans that
    read as a number. The walk stops after the first span that is no prefix
    of a cell phrase: no longer span is then a phrase, nor a number unless
    the span is "-" alone."""
    for end in range(start + 1, last + 1):
        term = qtokens[start:end]
        key = " ".join(term).casefold()
        if end >= first and (key in stats.phrases or term_number(term) is not None):
            yield end
        if key not in stats.prefixes and key != "-":
            return


def detect_value_mentions(qtokens, schema, stats, emb, config, column_mentions):
    """Candidate value mentions of up to `config.max_value_span` tokens for
    every column whose affinity clears `config.theta_val`.

    Spans fully inside an already-accepted column mention are skipped; for
    one column, only maximal-length spans survive among overlapping hits.
    A span may yield mentions for several columns; resolution arbitrates.
    Without word vectors only the spans with exact or numeric evidence are
    scored; with them, any span can score by cosine, so every span is.
    """
    n = len(qtokens)
    reach = [0] * n  # per start: the furthest end of a column mention covering it
    for m in column_mentions:
        for pos in range(m.span.start, m.span.end):
            reach[pos] = max(reach[pos], m.span.end)
    columns, theta = schema.columns, config.theta_val
    walk = not emb.dim
    per_column = {c.position: [] for c in columns}
    for start in range(n):
        first, last = max(start, reach[start]) + 1, min(start + config.max_value_span, n)
        ends = _evidence_ends(qtokens, start, first, last, stats) if walk else range(first, last + 1)
        for end in ends:
            scores = value_affinity(qtokens[start:end], columns, stats, emb)
            if max(scores) <= theta:
                continue
            span = Span(start, end)
            for column, score in zip(columns, scores):
                if score > theta:
                    per_column[column.position].append(CandidateMention(span, column, score))
    out = []
    for found in per_column.values():
        out += keep_disjoint(sorted(found, key=lambda m: (-len(m.span), -m.score, m.span.start)))
    out.sort(key=lambda m: (m.span.start, m.span.end, m.column.position))
    return out
