"""Relational schema for the in-DBMS query pipeline (Section 6.4).

The paper moves the whole durability-query pipeline inside a DBMS
(PostgreSQL in the paper; sqlite3 here, from the standard library, so
the pipeline needs no database server): predictive
model parameters live in a table, the samplers run as stored-procedure
style functions over them, estimates are recorded, and sample paths can
be materialised for inspection ("users can look into these possible
worlds").

Tables
------
``models``        — registered simulation models (kind + JSON params).
``queries``       — durability queries over models (horizon, threshold).
``level_plans``   — partition plans usable by MLSS runs.
``estimates``     — one row per query run: answer, variance, cost.
``sample_paths``  — materialised simulated paths (run, path, t, value).
"""

from __future__ import annotations

import sqlite3

SCHEMA_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS models (
        model_id   INTEGER PRIMARY KEY AUTOINCREMENT,
        name       TEXT NOT NULL UNIQUE,
        kind       TEXT NOT NULL,
        params     TEXT NOT NULL,
        created_at TEXT NOT NULL DEFAULT (datetime('now'))
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS queries (
        query_id   INTEGER PRIMARY KEY AUTOINCREMENT,
        model_id   INTEGER NOT NULL REFERENCES models(model_id),
        name       TEXT NOT NULL UNIQUE,
        horizon    INTEGER NOT NULL CHECK (horizon >= 1),
        threshold  REAL NOT NULL,
        created_at TEXT NOT NULL DEFAULT (datetime('now'))
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS level_plans (
        plan_id    INTEGER PRIMARY KEY AUTOINCREMENT,
        query_id   INTEGER REFERENCES queries(query_id),
        shape_key  TEXT UNIQUE,
        kind       TEXT,
        boundaries TEXT NOT NULL,
        ratio      INTEGER NOT NULL DEFAULT 3,
        score      REAL,
        source     TEXT NOT NULL DEFAULT 'manual',
        updated_at TEXT NOT NULL DEFAULT (datetime('now')),
        checksum   TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS estimates (
        run_id        INTEGER PRIMARY KEY AUTOINCREMENT,
        query_id      INTEGER NOT NULL REFERENCES queries(query_id),
        method        TEXT NOT NULL,
        probability   REAL NOT NULL,
        variance      REAL NOT NULL,
        n_roots       INTEGER NOT NULL,
        hits          INTEGER NOT NULL,
        steps         INTEGER NOT NULL,
        seconds       REAL NOT NULL,
        seed          INTEGER,
        created_at    TEXT NOT NULL DEFAULT (datetime('now'))
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS sample_paths (
        run_id   INTEGER NOT NULL,
        path_id  INTEGER NOT NULL,
        t        INTEGER NOT NULL,
        value    REAL NOT NULL,
        PRIMARY KEY (run_id, path_id, t)
    )
    """,
)

INDEX_STATEMENTS = (
    "CREATE INDEX IF NOT EXISTS idx_estimates_query"
    " ON estimates(query_id)",
    "CREATE INDEX IF NOT EXISTS idx_paths_run"
    " ON sample_paths(run_id)",
)


def _level_plans_columns(connection: sqlite3.Connection) -> dict:
    """``{name: notnull}`` for the existing level_plans table (or {})."""
    rows = connection.execute(
        "PRAGMA table_info(level_plans)").fetchall()
    return {row[1]: bool(row[3]) for row in rows}


def migrate_level_plans(connection: sqlite3.Connection) -> bool:
    """Upgrade a pre-plan-store ``level_plans`` table in place.

    Earlier revisions of the schema required ``query_id`` (plans only
    existed as children of registered queries) and carried no
    shape-key, kind, score or timestamp columns, so a
    :class:`~repro.db.plan_store.PlanStore` could not write rows into
    them.  The migration rebuilds the table in the new shape, keeping
    every existing row (``shape_key`` stays NULL for legacy
    query-scoped plans, which the plan store simply never loads).
    Returns True when a rebuild happened; idempotent otherwise.
    """
    columns = _level_plans_columns(connection)
    if not columns:
        return False
    if "shape_key" in columns and not columns.get("query_id", False):
        return False
    with connection:
        connection.execute(
            "ALTER TABLE level_plans RENAME TO level_plans_legacy")
        connection.execute(SCHEMA_STATEMENTS[2])
        connection.execute(
            "INSERT INTO level_plans "
            "(plan_id, query_id, boundaries, ratio, source) "
            "SELECT plan_id, query_id, boundaries, ratio, source "
            "FROM level_plans_legacy")
        connection.execute("DROP TABLE level_plans_legacy")
    return True


def ensure_plan_checksums(connection: sqlite3.Connection) -> bool:
    """Add the ``checksum`` column to a pre-checksum ``level_plans``.

    Existing rows get a NULL checksum, which the plan store accepts
    without validation (legacy rows stay loadable); rows written from
    now on carry a content checksum it verifies on every load.
    Returns True when the column was added; idempotent otherwise.
    """
    columns = _level_plans_columns(connection)
    if not columns or "checksum" in columns:
        return False
    with connection:
        connection.execute(
            "ALTER TABLE level_plans ADD COLUMN checksum TEXT")
    return True


def create_schema(connection: sqlite3.Connection) -> None:
    """Create all tables and indexes (idempotent; migrates old files)."""
    migrate_level_plans(connection)
    ensure_plan_checksums(connection)
    with connection:
        for statement in SCHEMA_STATEMENTS + INDEX_STATEMENTS:
            connection.execute(statement)


def table_names(connection: sqlite3.Connection) -> set:
    rows = connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'"
    ).fetchall()
    return {row[0] for row in rows}
