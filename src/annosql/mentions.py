"""Candidate mention detection: column mentions via closeness coverage and
phrase templates, value mentions via cell-value affinity.

All functions are pure over immutable inputs; detection over a corpus can
run in parallel per question.
"""

from dataclasses import dataclass
from functools import lru_cache

from .meta import cosine, term_number, value_affinity
from .text import is_content_token, parse_number


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


def _coverage_mention(content, column, emb, config):
    """The shortest span that covers every column word the question covers;
    ties go to more close pairs, then to the earlier start.

    Coverage counts column words, not pairs: "play" pairing with column
    "player" must not stretch a mention that already covers the word.
    `content` holds the (position, token) of each question token that may
    form a pair: stop words and punctuation never do, on either side. Only
    a position close to some column word starts or ends the span: trimming
    one that pairs with nothing covers as much and is shorter.
    """
    close = {}  # question position -> the indices of the column words it is close to
    for j, word in enumerate(column.content_tokens):
        for pos, tok in content:
            if words_close(tok, word, emb, config.tau_ed, config.tau_sim):
                close.setdefault(pos, set()).add(j)
    pairs = sorted(close.items())
    total = set().union(*close.values())
    best = None
    for i, (a, _words) in enumerate(pairs):
        covered, n_pairs = set(), 0
        for b, words in pairs[i:]:
            covered |= words
            n_pairs += len(words)
            if covered == total:
                break
        else:
            break  # later starts have even less material
        key = (b + 1 - a, -n_pairs, a)
        if best is None or key < best:
            best = key
    if best is None:
        return None
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
    content = [(pos, tok) for pos, tok in enumerate(qtokens) if is_content_token(tok)]
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


def _may_open_evidence(qtokens, start, first, stats):
    """False when `_evidence_ends` yields nothing from `start`, read off its
    first step alone: the token is no cell-phrase prefix, nor "-", and no
    number (which starts with a digit) that could end a span at or after `first`."""
    key = qtokens[start].casefold()
    if key in stats.prefixes or key == "-":
        return True
    return start + 1 >= first and key[:1].isdecimal() and parse_number(qtokens[start]) is not None


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
    # per start: the least end of a span from it that no column mention contains
    firsts = list(range(1, n + 1))
    for m in column_mentions:
        for pos in range(m.span.start, m.span.end):
            firsts[pos] = max(firsts[pos], m.span.end + 1)
    columns, theta = schema.columns, config.theta_val
    found = {}  # column position -> its candidate mentions
    for start, first in enumerate(firsts):
        if not emb.dim and not _may_open_evidence(qtokens, start, first, stats):
            continue
        last = min(start + config.max_value_span, n)
        ends = range(first, last + 1) if emb.dim else _evidence_ends(qtokens, start, first, last, stats)
        for end in ends:
            scores = value_affinity(qtokens[start:end], columns, stats, emb)
            if max(scores) <= theta:
                continue
            span = Span(start, end)
            for column, score in zip(columns, scores):
                if score > theta:
                    found.setdefault(column.position, []).append(CandidateMention(span, column, score))
    out = []
    for hits in found.values():
        kept = []  # longest first, then best-scored, then earliest; none overlapping
        for m in sorted(hits, key=lambda m: (-len(m.span), -m.score, m.span.start)):
            if not any(m.span.overlaps(k.span) for k in kept):
                kept.append(m)
        out += kept
    out.sort(key=lambda m: (m.span.start, m.span.end, m.column.position))
    return out
