import pytest

from annosql.meta import (
    PhraseLexicon,
    PhraseTemplate,
    Table,
    build_value_stats,
)

from support import embedding_store, make_schema


@pytest.fixture
def film_awards():
    """Film-nomination table whose question paraphrases two column names."""
    schema = make_schema(
        "film_awards",
        [
            ("Nomination", "text"),
            ("Actor", "text"),
            ("Film_Name", "text"),
            ("Director", "text"),
            ("Nomination Date", "text"),
        ],
    )
    table = Table(
        schema,
        (
            (
                "Best Actor in a Leading Role",
                "Piotr Adamczyk",
                "Chopin: Desire for Love",
                "Jerzy Antczak",
                "2003 August",
            ),
            (
                "Best Actor in a Supporting Role",
                "Levan Uchaneishvili",
                "27 Stolen Kisses",
                "Nana Djordjadze",
                "2003 August",
            ),
        ),
    )
    lexicon = PhraseLexicon({"actor": (PhraseTemplate(("star", "in")),)})
    question = "Which film directed by Jerzy Antczak did Piotr Adamczyk star in ?"
    return schema, table, build_value_stats(table), lexicon, question


@pytest.fixture
def townlands():
    """Townlands table whose question never names the filtered column."""
    schema = make_schema(
        "townlands",
        [
            ("County", "text"),
            ("English_Name", "text"),
            ("Irish_Name", "text"),
            ("Population", "real"),
            ("Irish_Speakers", "text"),
        ],
    )
    table = Table(
        schema,
        (
            ("Mayo", "Carrowteige", "Ceathru Thaidhg", "356", "64%"),
            ("Galway", "Aran Islands", "Oileain Arann", "1225", "79%"),
        ),
    )
    lexicon = PhraseLexicon(
        {
            "population": (
                PhraseTemplate(("how", "many", "people", "live", "in", None)),
                PhraseTemplate(("population", "of", None)),
            )
        }
    )
    question = "How many people live in Mayo which has the English name Carrowteige ?"
    return schema, table, build_value_stats(table), lexicon, question


@pytest.fixture
def actress_emb():
    """Toy vectors making actress~actor close in embedding space only."""
    return embedding_store(
        {
            "actor": [1.0, 0.0],
            "actress": [0.9, 0.1],
            "year": [0.0, 1.0],
        }
    )
