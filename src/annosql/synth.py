"""Seeded generator of WikiSQL-format fixture corpora.

Produces `*.tables.jsonl` tables and question/sql records whose mentions
are detectable by the annotation pipeline, so smoke training and the
overfit acceptance run have data even on machines without the real corpus.
"""

import json
import os
import random

from .harness import Config, Example, gold_from_wikisql, prepare_examples, table_bundles
from .meta import table_from_record
from .sqlgen import AGGREGATES, OPS
from .text import normalize

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
    """Random 3-5 column table with 4-8 rows and both column types, as the
    Table that the loader makes of its tables record."""
    while True:
        cols = rng.sample(ARCHETYPES, rng.randint(3, 5))
        types = [t for _, t, _ in cols]
        if set(types) == {"text", "real"}:
            break
    rows = [[gen(rng) for _, _, gen in cols] for _ in range(rng.randint(4, 8))]
    header = [name for name, _, _ in cols]
    return table_from_record({"id": table_id, "header": header, "types": types, "rows": rows})


def _pick_cond(rng, bundle, want_type, exclude):
    """A (column, cell) of the bundle's table, not in `exclude` and of
    `want_type` unless None, whose phrase is a cell of no other column, as
    annotation reads the phrase map; None if there is none."""
    candidates = [
        c
        for c in bundle.schema.columns
        if (want_type is None or c.col_type == want_type) and c.position not in exclude
    ]
    rng.shuffle(candidates)
    for col in candidates:
        cells = list(dict.fromkeys(bundle.table.column_values(col.position)))
        rng.shuffle(cells)
        for cell in cells:
            if bundle.stats.phrases.get(normalize(cell)) == (col.position,):
                return col, cell
    return None


# the columns a question kind draws its select column from
POOLS = {
    "any": lambda col: True,
    "real": lambda col: col.col_type == "real",
    "person": lambda col: col.name in ("Player", "Coach"),
}
# kind -> (select pool, aggregate, (column type or None, operator) per
# condition, question template). The pool "condition" selects the
# condition's column. In a template, s is the select column's name, c0 and
# c1 the conditions' column names (all lowercased), v0 and v1 their values.
KINDS = {
    "plain": ("any", "", [(None, "=")], "What is the {s} when the {c0} is {v0} ?"),
    "two_conds": (
        "any", "", [(None, "="), (None, "=")],
        "What is the {s} when the {c0} is {v0} and the {c1} is {v1} ?",
    ),
    "count": ("condition", "COUNT", [(None, "=")], "How many rows have a {c0} of {v0} ?"),
    "max": ("real", "MAX", [(None, "=")], "What is the highest {s} when the {c0} is {v0} ?"),
    "min": ("real", "MIN", [(None, "=")], "What is the lowest {s} when the {c0} is {v0} ?"),
    "sum": ("real", "SUM", [(None, "=")], "What is the total {s} when the {c0} is {v0} ?"),
    "avg": ("real", "AVG", [(None, "=")], "What is the average {s} when the {c0} is {v0} ?"),
    "greater": ("any", "", [("real", ">")], "What is the {s} when the {c0} is more than {v0} ?"),
    "less": ("any", "", [("real", "<")], "What is the {s} when the {c0} is less than {v0} ?"),
    "who": ("person", "", [(None, "=")], "Who has a {c0} of {v0} ?"),
    "all": ("any", "", [], "What are all the {s} ?"),
}
# plain is drawn twice as often as each other kind; this list's order fixes
# the corpus that a seed gives
_DRAWS = ["plain", *KINDS]


def make_question(rng, bundle):
    """One (question, wikisql sql dict) for the bundle's table, or None to retry."""
    pool, agg, wanted, template = KINDS[rng.choice(_DRAWS)]
    exclude, conds, words = [], [], {}
    if pool != "condition":
        choices = [c for c in bundle.schema.columns if POOLS[pool](c)]
        if not choices:
            return None
        sel = rng.choice(choices)
        exclude.append(sel.position)
    for i, (want_type, op) in enumerate(wanted):
        picked = _pick_cond(rng, bundle, want_type, exclude)
        if picked is None:
            return None
        col, val = picked
        exclude.append(col.position)
        conds.append([col.position, OPS.index(op), val])
        words[f"c{i}"], words[f"v{i}"] = col.name.lower(), val
    if pool == "condition":
        sel = col
    question = template.format(s=sel.name.lower(), **words)
    return question, {"sel": sel.position, "agg": AGGREGATES.index(agg), "conds": conds}


def generate_corpus(n_questions, n_tables, seed, config):
    """Aligned fixture corpus: (examples, tables dict, records).

    Every returned example annotates and aligns under `config`; candidates
    that fail are discarded. `records` carry the WikiSQL-shaped dicts for
    serialization.
    """
    rng = random.Random(seed)
    bundles = table_bundles(make_table(rng, f"synth-{i}") for i in range(n_tables))
    examples, records = [], []
    seen = set()
    attempts = 0
    while len(examples) < n_questions:
        attempts += 1
        if attempts > n_questions * 200:
            raise RuntimeError("fixture generator failed to converge")
        table_id = f"synth-{rng.randrange(n_tables)}"
        bundle = bundles[table_id]
        made = make_question(rng, bundle)
        if made is None:
            continue
        question, sql_obj = made
        if (table_id, question) in seen:
            continue
        ex = Example(question, table_id, gold_from_wikisql(sql_obj, bundle.schema, table_id))
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
    os.makedirs(out_dir, exist_ok=True)
    _examples, bundles, records = generate_corpus(n_questions, n_tables, seed, Config())
    tables = []
    for table_id in sorted(bundles):
        schema, table = bundles[table_id].schema, bundles[table_id].table
        tables.append(
            {
                "id": table_id,
                "header": [c.name for c in schema.columns],
                "types": [c.col_type for c in schema.columns],
                "rows": [list(r) for r in table.rows],
            }
        )
    paths = os.path.join(out_dir, "tables.jsonl"), os.path.join(out_dir, "train.jsonl")
    for path, lines in zip(paths, (tables, records)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(line) + "\n" for line in lines)
    return paths
