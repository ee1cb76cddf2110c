"""Seeded generator of WikiSQL-format fixture corpora.

Produces `*.tables.jsonl` tables and question/sql records whose mentions
are detectable by the annotation pipeline, so smoke training and the
overfit acceptance run have data even on machines without the real corpus.
"""

import json
import random

from .harness import Config, Example, TableBundle, gold_from_wikisql, prepare_examples
from .meta import ColumnMeta, Table, TableSchema, build_value_stats
from .sqlgen import AGGREGATES, OPS

FIRST = (
    "Magic Ada Grace Alan Rosa Leo Ella Omar Ivy Hugo Nina Ravi Mia Kofi "
    "Lena Axel Tara Finn Zoe Emil Sara Luca Wren Idris Vera Otto"
).split()
LAST = (
    "Johnson Okafor Silva Tanaka Novak Haines Ortiz Bell Mensah Marek "
    "Keller Diaz Moreau Lindgren Costa Farah Brandt Iversen Quinn Sato"
).split()
TEAMS = (
    "Red Hawks|Blue Owls|Green Foxes|Silver Wolves|Golden Bears|Black Swans|"
    "Iron Rams|Crimson Cranes|Amber Lions|Jade Tigers|Copper Eagles|Ivory Seals"
).split("|")
CITIES = (
    "Springfield|Riverton|Lakewood|Fairview|Ashford|Brookhaven|Maplewood|"
    "Clearwater|Harborview|Stonebridge|Elmhurst|Granville"
).split("|")
COUNTRIES = "Norway|Ghana|Chile|Japan|Poland|Canada|Kenya|Portugal|Vietnam|Uruguay".split("|")
VENUES = (
    "North Arena|Union Field|Harbor Dome|Central Park Grounds|Summit Hall|"
    "Meadow Stadium|Pioneer Court|Liberty Gym"
).split("|")


def _person(rng):
    return f"{rng.choice(FIRST)} {rng.choice(LAST)}"


ARCHETYPES = [
    ("Player", "text", _person),
    ("Coach", "text", _person),
    ("Team", "text", lambda rng: rng.choice(TEAMS)),
    ("City", "text", lambda rng: rng.choice(CITIES)),
    ("Country", "text", lambda rng: rng.choice(COUNTRIES)),
    ("Venue", "text", lambda rng: rng.choice(VENUES)),
    ("Points", "real", lambda rng: str(rng.randint(2, 120))),
    ("Rank", "real", lambda rng: str(rng.randint(1, 20))),
    ("Year", "real", lambda rng: str(rng.randint(1990, 2023))),
    ("Wins", "real", lambda rng: str(rng.randint(0, 82))),
    ("Goals", "real", lambda rng: str(rng.randint(0, 50))),
    ("Attendance", "real", lambda rng: str(rng.randint(120, 9800))),
]


def make_table(rng, table_id):
    """Random 3-5 column table with 4-8 rows and both column types."""
    while True:
        cols = rng.sample(ARCHETYPES, rng.randint(3, 5))
        types = {t for _, t, _ in cols}
        if types == {"text", "real"}:
            break
    columns = tuple(
        ColumnMeta(name, col_type, pos) for pos, (name, col_type, _) in enumerate(cols)
    )
    schema = TableSchema(table_id, columns)
    rows = []
    for _ in range(rng.randint(4, 8)):
        rows.append(tuple(gen(rng) for _, _, gen in cols))
    return schema, Table(schema, tuple(rows))


def _value_unique_to_column(table, position, value):
    """True when the value string appears in no other column of the table."""
    folded = value.casefold()
    for col in table.schema.columns:
        if col.position == position:
            continue
        if any(cell.casefold() == folded for cell in table.column_values(col.position)):
            return False
    return True


def _pick_cond(rng, table, want_type=None, exclude=()):
    candidates = [
        c
        for c in table.schema.columns
        if (want_type is None or c.col_type == want_type) and c.position not in exclude
    ]
    rng.shuffle(candidates)
    for col in candidates:
        cells = list(dict.fromkeys(table.column_values(col.position)))
        rng.shuffle(cells)
        for cell in cells:
            if _value_unique_to_column(table, col.position, cell):
                return col, cell
    return None


# WikiSQL codes: the index of an aggregate in AGGREGATES, of an operator in OPS
NO_AGG = AGGREGATES.index("")
EQ = OPS.index("=")


def make_question(rng, schema, table):
    """One (question, wikisql sql dict) for the table, or None to retry."""
    text_cols = [c for c in schema.columns if c.col_type == "text"]
    real_cols = [c for c in schema.columns if c.col_type == "real"]
    kinds = ["plain", "plain", "two_conds", "count", "max", "min", "sum", "avg",
             "greater", "less", "who", "all"]
    kind = rng.choice(kinds)

    def cond_for(sel, want_type=None):
        return _pick_cond(rng, table, want_type, exclude=(sel.position,))

    if kind == "all":
        sel = rng.choice(schema.columns)
        q = f"What are all the {sel.name.lower()} ?"
        return q, {"sel": sel.position, "agg": NO_AGG, "conds": []}
    if kind == "who":
        people = [c for c in text_cols if c.name in ("Player", "Coach")]
        if not people:
            return None
        sel = rng.choice(people)
        cond = cond_for(sel)
        if cond is None:
            return None
        col, val = cond
        q = f"Who has a {col.name.lower()} of {val} ?"
        return q, {"sel": sel.position, "agg": NO_AGG, "conds": [[col.position, EQ, val]]}
    if kind in ("max", "min", "sum", "avg"):
        if not real_cols:
            return None
        sel = rng.choice(real_cols)
        cond = cond_for(sel)
        if cond is None:
            return None
        col, val = cond
        word = {"max": "highest", "min": "lowest", "sum": "total", "avg": "average"}[kind]
        agg = AGGREGATES.index(kind.upper())
        q = f"What is the {word} {sel.name.lower()} when the {col.name.lower()} is {val} ?"
        return q, {"sel": sel.position, "agg": agg, "conds": [[col.position, EQ, val]]}
    if kind == "count":
        cond = _pick_cond(rng, table)
        if cond is None:
            return None
        col, val = cond
        q = f"How many rows have a {col.name.lower()} of {val} ?"
        agg = AGGREGATES.index("COUNT")
        return q, {"sel": col.position, "agg": agg, "conds": [[col.position, EQ, val]]}
    if kind in ("greater", "less"):
        sel = rng.choice(schema.columns)
        cond = cond_for(sel, want_type="real")
        if cond is None:
            return None
        col, val = cond
        cmp_word, op = ("more", OPS.index(">")) if kind == "greater" else ("less", OPS.index("<"))
        q = f"What is the {sel.name.lower()} when the {col.name.lower()} is {cmp_word} than {val} ?"
        return q, {"sel": sel.position, "agg": NO_AGG, "conds": [[col.position, op, val]]}
    if kind == "two_conds":
        sel = rng.choice(schema.columns)
        first = cond_for(sel)
        if first is None:
            return None
        col1, val1 = first
        second = _pick_cond(rng, table, exclude=(sel.position, col1.position))
        if second is None:
            return None
        col2, val2 = second
        q = (
            f"What is the {sel.name.lower()} when the {col1.name.lower()} is {val1} "
            f"and the {col2.name.lower()} is {val2} ?"
        )
        return q, {
            "sel": sel.position,
            "agg": NO_AGG,
            "conds": [[col1.position, EQ, val1], [col2.position, EQ, val2]],
        }
    # plain: one equality condition
    sel = rng.choice(schema.columns)
    cond = cond_for(sel)
    if cond is None:
        return None
    col, val = cond
    q = f"What is the {sel.name.lower()} when the {col.name.lower()} is {val} ?"
    return q, {"sel": sel.position, "agg": NO_AGG, "conds": [[col.position, EQ, val]]}


def generate_corpus(n_questions, n_tables, seed, config):
    """Aligned fixture corpus: (examples, tables dict, records).

    Every returned example annotates and aligns under `config`; candidates
    that fail are discarded. `records` carry the WikiSQL-shaped dicts for
    serialization.
    """
    rng = random.Random(seed)
    tables = {}
    bundles = {}
    for i in range(n_tables):
        schema, table = make_table(rng, f"synth-{i}")
        tables[schema.table_id] = (schema, table)
        bundles[schema.table_id] = TableBundle(schema, table, build_value_stats(table))
    examples, records = [], []
    seen = set()
    attempts = 0
    while len(examples) < n_questions:
        attempts += 1
        if attempts > n_questions * 200:
            raise RuntimeError("fixture generator failed to converge")
        table_id = f"synth-{rng.randrange(n_tables)}"
        schema, table = tables[table_id]
        made = make_question(rng, schema, table)
        if made is None:
            continue
        question, sql_obj = made
        if (table_id, question) in seen:
            continue
        gold = gold_from_wikisql(sql_obj, schema, table_id)
        ex = Example(question, table_id, gold)
        prepare_examples([ex], bundles, config)
        if ex.aligned is None:
            continue
        seen.add((table_id, question))
        examples.append(ex)
        records.append({"question": question, "table_id": table_id, "sql": sql_obj})
    return examples, bundles, records


def write_corpus(out_dir, n_questions, n_tables, seed):
    """Write tables.jsonl and train.jsonl fixtures whose questions align under
    the default Config; returns their paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    _examples, bundles, records = generate_corpus(n_questions, n_tables, seed, Config())
    tables_path = os.path.join(out_dir, "tables.jsonl")
    split_path = os.path.join(out_dir, "train.jsonl")
    with open(tables_path, "w", encoding="utf-8") as fh:
        for table_id in sorted(bundles):
            bundle = bundles[table_id]
            fh.write(
                json.dumps(
                    {
                        "id": table_id,
                        "header": [c.name for c in bundle.schema.columns],
                        "types": [c.col_type for c in bundle.schema.columns],
                        "rows": [list(r) for r in bundle.table.rows],
                    }
                )
                + "\n"
            )
    with open(split_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return tables_path, split_path
