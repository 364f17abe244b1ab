"""Stored-procedure-style query answering inside the DBMS (Section 6.4).

:class:`DurabilityDB` is the end-to-end pipeline the paper demonstrates
with PostgreSQL: register a predictive model (its parameters land in a
table), register durability queries over it, then answer them with SRS
or MLSS running *against the stored parameters* — the sampler rebuilds
the simulation procedure from the database row, exactly like a stored
procedure reading its model table.  Estimates are logged, and sample
paths can be materialised into a table for later inspection.
"""

from __future__ import annotations

import json
import random
import sqlite3
from typing import Optional

from ..core.estimates import DurabilityEstimate
from ..core.levels import LevelPartition
from ..core.quality import QualityTarget
from ..core.value_functions import DurabilityQuery
from ..engine import DurabilityEngine, ExecutionPolicy
from .factory import build_process, default_z
from .paths import materialize_paths
from .schema import create_schema


class DurabilityDB:
    """A durability-query warehouse over sqlite3.

    Parameters
    ----------
    path:
        Database file; the default keeps everything in memory.
    """

    def __init__(self, path: str = ":memory:"):
        self.connection = sqlite3.connect(path)
        self.connection.row_factory = sqlite3.Row
        create_schema(self.connection)
        self._plan_store = None

    def plan_store(self):
        """A :class:`~repro.db.plan_store.PlanStore` over this database.

        Shares the warehouse's connection (and therefore its file), so
        ``PlanCache(store=db.plan_store())`` persists engine plans next
        to the registered models and logged estimates.  Lazily built
        and cached; closing the warehouse closes it too.
        """
        if self._plan_store is None:
            from .plan_store import PlanStore
            self._plan_store = PlanStore(connection=self.connection)
        return self._plan_store

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "DurabilityDB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_model(self, name: str, kind: str, params: dict) -> int:
        """Store a model's parameters; returns its ``model_id``."""
        build_process(kind, params)  # validate before storing
        with self.connection:
            cursor = self.connection.execute(
                "INSERT INTO models (name, kind, params) VALUES (?, ?, ?)",
                (name, kind, json.dumps(params)),
            )
        return int(cursor.lastrowid)

    def register_query(self, name: str, model_id: int, horizon: int,
                       threshold: float) -> int:
        """Store a threshold durability query; returns its ``query_id``."""
        row = self.connection.execute(
            "SELECT model_id FROM models WHERE model_id = ?",
            (model_id,)).fetchone()
        if row is None:
            raise ValueError(f"no model with id {model_id}")
        with self.connection:
            cursor = self.connection.execute(
                "INSERT INTO queries (model_id, name, horizon, threshold)"
                " VALUES (?, ?, ?, ?)",
                (model_id, name, horizon, threshold),
            )
        return int(cursor.lastrowid)

    def register_plan(self, query_id: int, boundaries, ratio: int = 3,
                      source: str = "manual") -> int:
        """Store a level plan for MLSS runs; returns its ``plan_id``."""
        plan = LevelPartition(boundaries)  # validate
        with self.connection:
            cursor = self.connection.execute(
                "INSERT INTO level_plans (query_id, boundaries, ratio,"
                " source) VALUES (?, ?, ?, ?)",
                (query_id, json.dumps(list(plan.boundaries)), ratio, source),
            )
        return int(cursor.lastrowid)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------

    def load_query(self, query_id: int) -> DurabilityQuery:
        """Rebuild the executable query from its stored rows."""
        row = self.connection.execute(
            "SELECT q.horizon, q.threshold, q.name, m.kind, m.params"
            " FROM queries q JOIN models m ON m.model_id = q.model_id"
            " WHERE q.query_id = ?", (query_id,)).fetchone()
        if row is None:
            raise ValueError(f"no query with id {query_id}")
        process = build_process(row["kind"], json.loads(row["params"]))
        return DurabilityQuery.threshold(
            process, default_z(row["kind"]), beta=row["threshold"],
            horizon=row["horizon"], name=row["name"])

    def load_plan(self, plan_id: int) -> tuple:
        """Rebuild ``(LevelPartition, ratio)`` from a stored plan."""
        row = self.connection.execute(
            "SELECT boundaries, ratio FROM level_plans WHERE plan_id = ?",
            (plan_id,)).fetchone()
        if row is None:
            raise ValueError(f"no plan with id {plan_id}")
        return LevelPartition(json.loads(row["boundaries"])), row["ratio"]

    # ------------------------------------------------------------------
    # The stored procedure: answer a registered query
    # ------------------------------------------------------------------

    def answer_query(self, query_id: int, method: str = "gmlss",
                     plan_id: Optional[int] = None,
                     quality: Optional[QualityTarget] = None,
                     max_steps: Optional[int] = None,
                     max_roots: Optional[int] = None,
                     seed: Optional[int] = None,
                     num_levels: Optional[int] = None,
                     materialize: int = 0) -> DurabilityEstimate:
        """Run a sampler over the stored model and log the estimate.

        ``materialize`` > 0 additionally simulates that many sample
        paths and stores them in ``sample_paths`` under the run id.
        """
        query = self.load_query(query_id)
        partition = None
        ratio = 3
        if plan_id is not None:
            partition, ratio = self.load_plan(plan_id)
        # Each call answers from scratch: a fresh engine's plan cache
        # could never hit, so skip its lookups.
        policy = ExecutionPolicy(
            method=method, ratio=ratio, num_levels=num_levels,
            quality=quality, max_steps=max_steps, max_roots=max_roots,
            seed=seed, use_plan_cache=False)
        estimate = DurabilityEngine(policy).answer(query,
                                                   partition=partition)
        run_id = self._record_estimate(query_id, estimate, seed)
        estimate.details["run_id"] = run_id
        if materialize > 0:
            kind = self.connection.execute(
                "SELECT m.kind FROM queries q JOIN models m"
                " ON m.model_id = q.model_id WHERE q.query_id = ?",
                (query_id,)).fetchone()["kind"]
            materialize_paths(
                self.connection, run_id, query, kind, n_paths=materialize,
                rng=random.Random(seed))
        return estimate

    def _record_estimate(self, query_id: int,
                         estimate: DurabilityEstimate,
                         seed: Optional[int]) -> int:
        with self.connection:
            cursor = self.connection.execute(
                "INSERT INTO estimates (query_id, method, probability,"
                " variance, n_roots, hits, steps, seconds, seed)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (query_id, estimate.method, estimate.probability,
                 estimate.variance, estimate.n_roots, estimate.hits,
                 estimate.steps, estimate.elapsed_seconds, seed),
            )
        return int(cursor.lastrowid)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def estimates_for(self, query_id: int) -> list:
        """All logged runs of a query, newest first."""
        rows = self.connection.execute(
            "SELECT * FROM estimates WHERE query_id = ?"
            " ORDER BY run_id DESC", (query_id,)).fetchall()
        return [dict(row) for row in rows]

    def best_estimate(self, query_id: int) -> Optional[dict]:
        """The logged run with the smallest variance, if any."""
        row = self.connection.execute(
            "SELECT * FROM estimates WHERE query_id = ?"
            " ORDER BY variance ASC, run_id DESC LIMIT 1",
            (query_id,)).fetchone()
        return dict(row) if row is not None else None
