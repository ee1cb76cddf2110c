"""Tokenization and small text utilities shared across the pipeline.

Token boundaries are the contract everything else (spans, annotations,
surfaces) is built on, so the tokenizer lives in one place.
"""

import math
import re
import sys

# Order matters: numbers with interior , or . stay one token ("1,225"),
# then letter runs (underscore is a separator so "Film_Name" splits),
# then any leftover non-space character on its own.
_TOKEN_RE = re.compile(r"\d+(?:[.,]\d+)*|[^\W\d_]+|[^\w\s]")
_DIGIT_RE = re.compile(r"\d")  # any Unicode decimal digit, as float() reads them

STOP_WORDS = frozenset(
    """a an the of in on at by for to from is are was were be been being
    did do does and or with as his her its their this that these those
    what which who whom whose how when where why""".split()
)


def tokenize(text):
    """Case-folded tokens of `text`, interned: every question that uses a
    word holds the one string."""
    return [sys.intern(t.casefold()) for t in _TOKEN_RE.findall(text)]


def tokenize_with_offsets(text):
    """(interned case-folded tokens, flat char offsets): token i spans
    text[offsets[2 * i] : offsets[2 * i + 1]]."""
    folded, offsets = [], []
    for m in _TOKEN_RE.finditer(text):
        folded.append(sys.intern(m.group().casefold()))
        offsets += m.span()
    return folded, offsets


def parse_number(text):
    """Finite decimal value of `text` after stripping commas, or None; "nan"
    and "inf" are not numbers."""
    s = text.strip().replace(",", "")
    if not _DIGIT_RE.search(s):
        return None  # float() takes no digit-free text but the non-finite "nan" and "inf"
    try:
        value = float(s)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def normalize(text):
    """Canonical phrase form: case-folded tokens joined by single spaces."""
    return " ".join(tokenize(text))


def is_content_token(tok):
    """True for tokens eligible to form a close pair (no stop words, no punctuation)."""
    return tok not in STOP_WORDS and (tok.isalnum() or any(c.isalnum() for c in tok))
