"""Annotated SQL sketches, symbol resolution, canonical forms, and a mini
execution engine for single-table conjunctive queries.

The sketch grammar matches WikiSQL: an optional aggregate, one select
target, and zero or more AND-ed conditions with ops {=, >, <}. Literal
values are carried unquoted everywhere; the serializer adds quotes, so
quoting never needs normalizing elsewhere.
"""

import operator
import re
from dataclasses import dataclass
from functools import lru_cache

from .meta import REAL
from .text import normalize, parse_number

# a tuple's index is the element's WikiSQL integer code
AGGREGATES = ("", "MAX", "MIN", "COUNT", "SUM", "AVG")
OPS = ("=", ">", "<")
RESULT_TOL = 1e-9  # the relative tolerance of result_equal's numbers

_SYMBOL_RE = re.compile(r"^([cvg])([1-9][0-9]*)$")


class SketchParseError(ValueError):
    """Raised when a decoded token sequence is not a valid sketch."""


class SymbolResolutionError(KeyError):
    """Raised when a sketch references a symbol with no binding."""


class AlignmentError(ValueError):
    """Raised when a gold query cannot be expressed over an annotation."""


@dataclass(frozen=True, slots=True)
class SqlSymbol:
    family: str  # "c", "v", or "g"
    index: int

    def __post_init__(self):
        if self.family not in ("c", "v", "g") or self.index < 1:
            raise ValueError(f"bad symbol {self.family}{self.index}")

    def __str__(self):
        return f"{self.family}{self.index}"


@lru_cache(maxsize=1 << 12)  # bounded: symbol-like words in a corpus are keys too
def _symbol(family, index):
    """The shared SqlSymbol of (family, index): every sketch holds one `c1`."""
    return SqlSymbol(family, index)


def parse_symbol(token):
    m = _SYMBOL_RE.match(token)
    return _symbol(m.group(1), int(m.group(2))) if m else None


@dataclass(frozen=True, slots=True)
class AnnotatedSqlAst:
    agg: str
    select: SqlSymbol
    conds: tuple  # (SqlSymbol c/g, op, SqlSymbol v)

    def __post_init__(self):
        if self.agg not in AGGREGATES:
            raise ValueError(f"unknown aggregate {self.agg!r}")
        if self.select.family == "v":
            raise ValueError("select target must be a column symbol")
        for col, op, val in self.conds:
            if col.family == "v" or val.family != "v" or op not in OPS:
                raise ValueError(f"bad condition ({col}, {op}, {val})")


def sketch_tokens(ast):
    """Model-facing token sequence (lowercase keywords and symbols)."""
    toks = []
    if ast.agg:
        toks.append(ast.agg.lower())
    toks += ["select", str(ast.select)]
    if ast.conds:
        toks.append("where")
        for i, (col, op, val) in enumerate(ast.conds):
            if i:
                toks.append("and")
            toks += [str(col), op, str(val)]
    return toks


_KEYWORDS = frozenset(["select", "where", "and"] + [a.lower() for a in AGGREGATES if a])


def serialize_sketch(ast):
    """Display form, e.g. "SELECT c1 WHERE c2 = v2 AND c3 = v3"."""
    return " ".join(t.upper() if t in _KEYWORDS else t for t in sketch_tokens(ast))


def parse_annotated_sql(tokens):
    """Parse decoder output into an AST; raises SketchParseError otherwise.

    Only the layout is read here: an optional aggregate, `select` and its
    target, then conditions of three tokens, the first after `where` and
    each other after `and`. AnnotatedSqlAst checks the aggregate, the symbol
    families and the operators.
    """
    toks = [t.casefold() for t in tokens]
    agg, body = ("", toks) if toks[:1] == ["select"] else (toks[0].upper() if toks else "", toks[1:])
    # body: select S (where|and C op V)*, so the symbols sit at the odd places
    n, extra = divmod(len(body) - 2, 4)
    symbols = [parse_symbol(t) for t in body[1::2]]
    if extra or body[0] != "select" or body[2::4] != ["where", *["and"] * n][:n] or None in symbols:
        raise SketchParseError(f"not a sketch: {toks}")
    try:
        return AnnotatedSqlAst(agg, symbols[0], tuple(zip(symbols[1::2], body[4::4], symbols[2::2])))
    except ValueError as exc:
        raise SketchParseError(f"{exc} in {toks}") from exc


@dataclass(frozen=True, slots=True)
class ConcreteSql:
    agg: str
    select: str
    conds: tuple  # (column name, op, literal string)
    table_id: str | None = None

    def __post_init__(self):
        if self.agg not in AGGREGATES:
            raise ValueError(f"unknown aggregate {self.agg!r}")


def serialize_sql(sql):
    """Bit-exact concrete serialization with uniformly quoted literals."""
    target = f"{sql.agg}({sql.select})" if sql.agg else sql.select
    out = f"SELECT {target} FROM {sql.table_id or 't'}"
    if sql.conds:
        clauses = []
        for col, op, val in sql.conds:
            quoted = "'" + val.replace("'", "''") + "'"
            clauses.append(f"{col} {op} {quoted}")
        out += " WHERE " + " AND ".join(clauses)
    return out


def sql_tokens(sql):
    """Structural token list used for logical-form comparison."""
    toks = ["select"]
    if sql.agg:
        toks.append(sql.agg.lower())
    toks.append(sql.select)
    for col, op, val in sql.conds:
        toks += ["where", col, op, val]
    return toks


def resolve_symbols(ast, symtab, schema):
    """Deterministically rewrite a sketch into concrete SQL.

    c_i takes the symbol table's column binding (also when the column was
    never mentioned), g_i binds by header position, v_i takes the literal
    question surface.
    """

    def column_of(sym):
        if sym.family == "c":
            if sym.index not in symtab.columns:
                raise SymbolResolutionError(f"unbound symbol {sym}")
            return symtab.columns[sym.index].name
        if sym.index > len(schema.columns):
            raise SymbolResolutionError(f"header symbol {sym} beyond schema")
        return schema.columns[sym.index - 1].name

    def value_of(sym):
        if sym.index not in symtab.values:
            raise SymbolResolutionError(f"unbound symbol {sym}")
        return symtab.values[sym.index].surface

    conds = tuple((column_of(c), op, value_of(v)) for c, op, v in ast.conds)
    return ConcreteSql(ast.agg, column_of(ast.select), conds, schema.table_id)


def canonicalize(sql):
    """Canonical form for query-match comparison.

    Case-folds identifiers and literals (execution compares text values
    case-insensitively, so this cannot create false positives) and sorts
    conditions; the table id is dropped. Idempotent.
    """
    conds = tuple(sorted((c.casefold().strip(), op, v.casefold().strip()) for c, op, v in sql.conds))
    return ConcreteSql(sql.agg, sql.select.casefold().strip(), conds, None)


@dataclass(frozen=True)
class ResultSet:
    values: tuple
    flagged: bool = False


_COMPARE = {"=": operator.eq, ">": operator.gt, "<": operator.lt}


def _rows_matching(sql, table):
    """The rows meeting every condition, or None when a condition cannot
    apply: an unknown column, or an order comparison on text."""
    rows = list(table.rows)
    for col, op, val in sql.conds:
        column = table.schema.column_by_name(col)
        if column is None:
            return None
        pos = column.position
        num = parse_number(val) if column.col_type == REAL else None
        if num is None:
            if op != "=":
                return None
            want = val.strip().casefold()
            rows = [r for r in rows if r[pos].strip().casefold() == want]
        else:
            cells = ((r, parse_number(r[pos])) for r in rows)
            rows = [r for r, cell in cells if cell is not None and _COMPARE[op](cell, num)]
    return rows


def execute(sql, table):
    """Run a concrete query over an in-memory table.

    Text equality is trimmed and case-insensitive; real columns compare
    numerically. COUNT of an empty set is 0; other aggregates of an empty
    set yield an empty result. Type errors flag an empty result instead of
    raising.
    """
    schema = table.schema
    target = schema.column_by_name(sql.select)
    if target is None:
        return ResultSet((), flagged=True)
    rows = _rows_matching(sql, table)
    if rows is None:
        return ResultSet((), flagged=True)
    cells = [r[target.position] for r in rows]
    if not sql.agg:
        return ResultSet(tuple(cells))
    if sql.agg == "COUNT":
        return ResultSet((len(cells),))
    if target.col_type != REAL:
        return ResultSet((), flagged=True)
    nums = [n for n in (parse_number(c) for c in cells) if n is not None]
    if not nums:
        return ResultSet(())
    if sql.agg == "MAX":
        return ResultSet((max(nums),))
    if sql.agg == "MIN":
        return ResultSet((min(nums),))
    if sql.agg == "SUM":
        return ResultSet((sum(nums),))
    return ResultSet((sum(nums) / len(nums),))  # AVG


def _comparable(value):
    if isinstance(value, str):
        num = parse_number(value)
        if num is not None:
            return ("num", num)
        return ("str", value.strip().casefold())
    return ("num", float(value))


def result_equal(a, b):
    """Order-insensitive result comparison with numeric tolerance."""
    va = sorted(_comparable(v) for v in a.values)
    vb = sorted(_comparable(v) for v in b.values)
    if len(va) != len(vb):
        return False
    for (ka, xa), (kb, xb) in zip(va, vb):
        if ka != kb:
            return False
        if ka == "num":
            if not abs(xa - xb) <= RESULT_TOL * max(1.0, abs(xa), abs(xb)):  # NaN is equal to nothing
                return False
        elif xa != xb:
            return False
    return True


def _values_match(surface, gold_value):
    if normalize(surface) == normalize(gold_value):
        return True
    a, b = parse_number(surface), parse_number(gold_value)
    return a is not None and b is not None and a == b


def align_gold_sql(gold, annotation, schema, max_index):
    """Express a gold concrete query over an annotation's symbols.

    Mention symbols are preferred over header symbols; a gold value with no
    matching v binding, or a symbol index above `max_index`, makes the
    example unalignable (reported by raising AlignmentError so callers can
    count coverage).
    """
    symtab = annotation.symbols

    def column_symbol(name):
        want = name.casefold()
        for i in sorted(symtab.columns):
            if symtab.columns[i].name.casefold() == want:
                return _symbol("c", i)
        column = schema.column_by_name(name)
        if column is None:
            raise AlignmentError(f"gold column {name!r} not in schema")
        return _symbol("g", column.position + 1)

    def condition_symbols(col, value):
        want = col.casefold()
        matches = [i for i in sorted(symtab.values) if _values_match(symtab.values[i].surface, value)]
        if not matches:
            raise AlignmentError(f"gold value {value!r} has no annotated mention")
        for i in matches:
            bound = symtab.columns.get(i)
            if bound is not None and bound.name.casefold() == want:
                return _symbol("c", i), _symbol("v", i)
        return column_symbol(col), _symbol("v", matches[0])

    conds = []
    for col, op, value in gold.conds:
        csym, vsym = condition_symbols(col, value)
        conds.append((csym, op, vsym))
    ast = AnnotatedSqlAst(gold.agg, column_symbol(gold.select), tuple(conds))
    for sym in [ast.select] + [s for c in ast.conds for s in (c[0], c[2])]:
        if sym.index > max_index:
            raise AlignmentError(f"symbol {sym} beyond the index cap")
    return ast
