"""The three closed-loop workloads: inputs, set-up, load and checks.

Every workload turns ``(seed, seconds)`` into a fixed request schedule
before anything is timed; each request carries its own seed, which is
also its request id.  ``seconds`` only scales the schedule length
(through a nominal rate fixed here), so the work done never depends on
how fast the host happens to run.
"""

import asyncio
import hashlib
import math
import multiprocessing
import random
import statistics
import time
from dataclasses import dataclass, field

#: Seeds are 31-bit (the engine's seed space).
_SEED_SPACE = 2 ** 31


def request_seeds(workload: str, seed: int, count: int,
                  exclude=()) -> list:
    """``count`` distinct request seeds derived from the workload seed.

    An affine walk with an odd stride is a bijection modulo 2**31, so
    the seeds of one run never repeat.
    """
    digest = hashlib.blake2b(f"{workload}:{seed}".encode(),
                             digest_size=8).digest()
    offset = int.from_bytes(digest, "big") % _SEED_SPACE
    seeds = []
    index = 0
    excluded = set(exclude)
    while len(seeds) < count:
        value = (offset + index * 2654435761) % _SEED_SPACE
        index += 1
        if value not in excluded:
            seeds.append(value)
    return seeds


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size of a process, from /proc (MB)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


#: Oracle checks pass within this many standard errors ...
Z_CHECK = 5.0
#: ... widened to a Bonferroni bound when a run makes so many checks
#: that a correctly calibrated estimator would exceed ``Z_CHECK``
#: somewhere by chance: the per-run false-alarm chance stays below
#: this.  A fleet run makes ~36k member checks, where 5 standard
#: errors alone would raise a false alarm in ~2% of runs.
FALSE_ALARM = 1e-4


def oracle_verdicts(checks) -> tuple:
    """Split ``(request id, z, description)`` checks into failures and
    notes (beyond ``Z_CHECK`` but within the run's Bonferroni bound)."""
    bound = max(Z_CHECK, statistics.NormalDist().inv_cdf(
        1.0 - FALSE_ALARM / (2 * max(len(checks), 1))))
    failures, notes = [], []
    for rid, z, description in checks:
        if abs(z) > bound:
            failures.append((rid, f"{description}: {z:+.2f} standard "
                             f"errors (bound {bound:.2f})"))
        elif abs(z) > Z_CHECK:
            notes.append((rid, f"{description}: {z:+.2f} standard errors,"
                          f" within the {bound:.2f} bound of "
                          f"{len(checks)} checks"))
    return failures, notes


@dataclass
class Record:
    """One measured request."""

    rid: int
    cls: str
    start_ns: int
    end_ns: int = 0
    ok: bool = True
    error: str = ""
    steps: int = 0
    search_steps: int = 0
    answers: int = 1
    boot_seconds: float = 0.0
    boot_evals: int = 0
    result: object = None
    extra: dict = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Workload:
    """Common shape: ``build`` (untimed), ``setup`` (timed as set-up),
    ``run`` (the measured phase), ``check`` and ``teardown``."""

    name = ""
    #: The request class the latency percentiles are reported over.
    primary = ""
    load = ""
    #: Time latency and throughput over the calmer half of the run's
    #: 1-s windows (see ``StealWindows`` in run.py).
    calm_windows = False

    def build(self, seed: int, seconds: int) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, hooks) -> list:
        raise NotImplementedError

    def check(self, records) -> tuple:
        """``(failures, notes)``, each a list of ``(request id, reason)``."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def plan_cache_stats(self) -> dict:
        return {"hits": 0, "misses": 0}


# ----------------------------------------------------------------------
# serve_point: small SRS answers over HTTP
# ----------------------------------------------------------------------

def walk_doc(p_up: float, beta: float, horizon: int = 80) -> dict:
    return {"process": {"family": "random_walk",
                        "params": {"p_up": p_up, "p_down": 0.4}},
            "beta": beta, "horizon": horizon}


def gauss_doc(drift: float, beta: float, horizon: int = 100) -> dict:
    return {"process": {"family": "gaussian_walk",
                        "params": {"drift": drift, "sigma": 1.0}},
            "beta": beta, "horizon": horizon}


#: The random-walk and Gaussian-walk point shapes of the serving
#: benchmark (``benchmarks/bench_serving.py``).
SERVE_SHAPES = ([walk_doc(p_up, beta) for p_up in (0.52, 0.55, 0.58)
                 for beta in (4.0, 6.0, 8.0, 10.0)]
                + [gauss_doc(drift, beta) for drift in (0.05, 0.12)
                   for beta in (5.0, 8.0)])


class ServePoint(Workload):
    name = "serve_point"
    primary = "point"
    load = "closed loop, 2 keep-alive ServeClient connections"
    connections = 2
    #: Steal on either vCPU stalls the client/loop/executor hand-offs
    #: of every in-flight request: 15% of the machine stolen cost 33%
    #: of throughput and 70% on p90.  A run's windows hold ~200
    #: requests each, enough to time over the calmer half of them.
    calm_windows = True
    #: Nominal requests per second of schedule.
    rate = 200
    #: Every n-th request is byte-checked against an in-process engine.
    check_every = 20

    def policy(self):
        from repro.engine import ExecutionPolicy
        return ExecutionPolicy(method="srs", max_roots=250, seed=17)

    def build(self, seed: int, seconds: int) -> None:
        count = max(1000, self.rate * seconds)
        rng = random.Random(f"{self.name}:{seed}")
        seeds = request_seeds(self.name, seed, count)
        self.schedule = [(rid, rng.randrange(len(SERVE_SHAPES)))
                         for rid in seeds]

    def setup(self) -> None:
        from repro.serve import ServeClient, ServerThread
        self.server = ServerThread(policy=self.policy()).start()

        async def warm_up():
            async with ServeClient("127.0.0.1", self.server.port) as client:
                for doc in (SERVE_SHAPES[0], SERVE_SHAPES[-1]):
                    await client.answer(doc, policy={"seed": 1})
        asyncio.run(warm_up())

    def run(self, hooks) -> list:
        from repro.serve import ServeClient
        records = []
        pending = iter(enumerate(self.schedule))
        clock = time.perf_counter_ns
        port = self.server.port

        async def connection():
            async with ServeClient("127.0.0.1", port) as client:
                for index, (rid, shape) in pending:
                    record = Record(rid=rid, cls="point", start_ns=clock())
                    try:
                        reply = await client.answer(SERVE_SHAPES[shape],
                                                    policy={"seed": rid})
                        record.end_ns = clock()
                        record.steps = reply.body["result"]["steps"]
                        if index % self.check_every == 0:
                            record.result = reply.raw
                    except Exception as exc:  # non-200 or transport
                        record.end_ns = clock()
                        record.ok = False
                        record.error = f"{type(exc).__name__}: {exc}"
                    record.extra["shape"] = shape
                    records.append(record)
                    if hooks.trace:
                        hooks.leaf("request", record.start_ns,
                                   record.end_ns, rid=rid)

        async def main():
            await asyncio.gather(*(connection()
                                   for _ in range(self.connections)))
        asyncio.run(main())
        return records

    def check(self, records) -> tuple:
        from repro.engine import DurabilityEngine
        from repro.serve import (dumps_canonical, encode_estimate,
                                 parse_policy, parse_query)
        failures = [(r.rid, r.error) for r in records if not r.ok]
        policy = self.policy()
        with DurabilityEngine(policy) as engine:
            for record in records:
                if record.result is None:
                    continue
                estimate = engine.answer(
                    parse_query(SERVE_SHAPES[record.extra["shape"]]),
                    policy=parse_policy({"seed": record.rid}, policy))
                expected = dumps_canonical(
                    {"ok": True, "result": encode_estimate(estimate),
                     "cost_class": "cache_hit"})
                if expected != record.result:
                    failures.append((record.rid, "served bytes differ "
                                     "from the in-process answer"))
        return failures, []

    def plan_cache_stats(self) -> dict:
        return self.server.server.engine.cache_stats()

    def teardown(self) -> None:
        self.server.stop()


# ----------------------------------------------------------------------
# rare_mlss: g-MLSS answers with on-path plan search
# ----------------------------------------------------------------------

#: Birth-death chains ``(n, p_up, p_down, horizon)``; the target is the
#: absorbing top state.  Exact answers: ``hitting_probability``.
RARE_CHAINS = [(14, 0.2, 0.3, 60), (16, 0.25, 0.4, 60),
               (16, 0.25, 0.4, 80), (16, 0.2, 0.3, 80),
               (16, 0.3, 0.45, 60), (16, 0.25, 0.35, 60),
               (18, 0.25, 0.4, 100), (18, 0.3, 0.4, 60),
               (18, 0.2, 0.3, 100), (18, 0.3, 0.45, 60),
               (18, 0.25, 0.35, 80), (18, 0.3, 0.45, 80)]
#: Lazy random walks ``(threshold, p_up, p_down, horizon)``.  Exact
#: answers: ``random_walk_hitting_probability``.
RARE_WALKS = [(12, 0.25, 0.4, 60), (14, 0.25, 0.4, 80),
              (14, 0.2, 0.3, 100), (14, 0.3, 0.45, 60),
              (16, 0.25, 0.4, 100), (16, 0.3, 0.4, 60),
              (16, 0.2, 0.3, 100), (16, 0.3, 0.45, 80),
              (16, 0.25, 0.35, 80), (18, 0.3, 0.4, 80),
              (18, 0.3, 0.45, 100), (18, 0.25, 0.35, 100)]
#: Seed of each shape's cold arrival.  Fixed, not drawn from the
#: workload seed: the greedy search's plan -- and with it every warm
#: answer's cost -- swings 2-5x with the search seed, so a per-seed
#: search would make the run-to-run spread measure plan luck rather
#: than the code.  Warm arrivals draw their seeds from the workload
#: seed.
RARE_COLD_SEEDS = [1000 + index
                   for index in range(len(RARE_CHAINS) + len(RARE_WALKS))]


def rare_queries():
    """The rare-event shapes as ``(name, query, exact answer)``."""
    from repro import DurabilityQuery
    from repro.core.analytic import (hitting_probability,
                                     random_walk_hitting_probability)
    from repro.processes import RandomWalkProcess, birth_death_chain
    shapes = []
    for n, p_up, p_down, horizon in RARE_CHAINS:
        chain = birth_death_chain(n=n, p_up=p_up, p_down=p_down, start=0)
        shapes.append((
            f"chain{n}/{p_up}/{p_down}/{horizon}",
            DurabilityQuery.threshold(chain, chain.state_value,
                                      beta=float(n - 1), horizon=horizon),
            hitting_probability(chain.matrix, 0, [n - 1], horizon)))
    for threshold, p_up, p_down, horizon in RARE_WALKS:
        walk = RandomWalkProcess(p_up=p_up, p_down=p_down)
        shapes.append((
            f"walk{threshold}/{p_up}/{p_down}/{horizon}",
            DurabilityQuery.threshold(walk, RandomWalkProcess.position,
                                      beta=float(threshold),
                                      horizon=horizon),
            random_walk_hitting_probability(p_up, threshold, horizon,
                                            p_down=p_down)))
    return shapes


class RareMLSS(Workload):
    name = "rare_mlss"
    primary = "warm"
    load = "closed loop, 1 in-process caller of DurabilityEngine.answer"
    #: Nominal answers per second of schedule.
    rate = 7
    #: Relative-error target of every answer.
    relative_error = 0.2

    def policy(self):
        from repro.core.quality import RelativeErrorTarget
        from repro.engine import ExecutionPolicy
        return ExecutionPolicy(
            method="auto", quality=RelativeErrorTarget(self.relative_error),
            max_steps=50_000_000, seed=0)

    def build(self, seed: int, seconds: int) -> None:
        self.shapes = rare_queries()
        count = len(self.shapes)
        # Enough warm rounds for >= 100 warm answers (a p90 with 10
        # samples beyond it).
        rounds = max(math.ceil(100 / count),
                     math.ceil((self.rate * seconds - count) / count))
        rng = random.Random(f"{self.name}:{seed}")
        warm_seeds = iter(request_seeds(self.name, seed, rounds * count,
                                        exclude=RARE_COLD_SEEDS))
        order = list(range(count))
        rng.shuffle(order)
        self.schedule = [(RARE_COLD_SEEDS[shape], shape) for shape in order]
        for _ in range(rounds):
            rng.shuffle(order)
            self.schedule += [(next(warm_seeds), shape) for shape in order]

    def setup(self) -> None:
        from repro import DurabilityQuery
        from repro.engine import DurabilityEngine
        from repro.processes import birth_death_chain
        self.engine = DurabilityEngine(self.policy())
        # Warm-up shape (not measured): one cold and one warm arrival.
        chain = birth_death_chain(n=12, p_up=0.3, p_down=0.4, start=0)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=11.0, horizon=60)
        self.engine.answer(query, seed=1)
        self.engine.answer(query, seed=2)

    def run(self, hooks) -> list:
        records = []
        clock = time.perf_counter_ns
        engine = self.engine
        for rid, shape in self.schedule:
            query = self.shapes[shape][1]
            root = hooks.open("request", rid) if hooks.trace else None
            record = Record(rid=rid, cls="", start_ns=clock())
            try:
                estimate = engine.answer(query, seed=rid)
                record.end_ns = clock()
                details = estimate.details
                search = details.get("plan_search") or {}
                record.cls = ("cold" if details.get("plan_source")
                              == "search" else "warm")
                record.search_steps = int(search.get("search_steps", 0))
                record.steps = estimate.steps + record.search_steps
                record.boot_seconds = details["bootstrap_seconds"]
                record.boot_evals = details["bootstrap_evals"]
                record.result = (estimate.probability, estimate.std_error)
            except Exception as exc:
                record.end_ns = clock()
                record.ok = False
                record.error = f"{type(exc).__name__}: {exc}"
            if root is not None:
                hooks.close(root)
            record.extra["shape"] = shape
            records.append(record)
        return records

    def check(self, records) -> tuple:
        """Each answer against its exact oracle, in its own bootstrap
        standard errors."""
        checks = []
        for record in records:
            if record.ok:
                name, _, exact = self.shapes[record.extra["shape"]]
                probability, std_error = record.result
                z = ((probability - exact) / std_error if std_error > 0
                     else (0.0 if probability == exact else math.inf))
                checks.append((record.rid, z, (
                    f"{name}: estimate {probability:.4g} vs exact "
                    f"{exact:.4g}")))
        failures, notes = oracle_verdicts(checks)
        return [(r.rid, r.error) for r in records if not r.ok] + failures, \
            notes

    def plan_cache_stats(self) -> dict:
        return self.engine.cache_stats()

    def teardown(self) -> None:
        self.engine.close()


# ----------------------------------------------------------------------
# fleet_pooled: fused fleets through the fork pool
# ----------------------------------------------------------------------

FLEET_P_UP = tuple(round(0.36 + 0.01 * k, 2) for k in range(9))
FLEET_P_DOWN = 0.4
FLEET_HORIZON = 60
#: Point thresholds of ``answer_batch`` members.
FLEET_BETAS = tuple(range(4, 11))
#: Top thresholds of ``durability_curves`` members; the grid is the
#: top and the two thresholds below it.
FLEET_CURVE_TOPS = tuple(range(6, 11))


class FleetPooled(Workload):
    name = "fleet_pooled"
    primary = "batch"
    load = ("closed loop, 1 in-process caller; engine-owned fork pool "
            "of 2 workers")
    members = 160
    members_per_task = 10
    workers = 2
    #: Nominal engine calls per second of schedule.
    rate = 5

    def policy(self):
        from repro.core.quality import ConfidenceIntervalTarget
        from repro.engine import ExecutionPolicy, ParallelPolicy
        return ExecutionPolicy(
            method="srs",
            quality=ConfidenceIntervalTarget(half_width=0.15,
                                             relative=True),
            max_roots=200_000, seed=0,
            parallel=ParallelPolicy(
                pool="fork", n_workers=self.workers,
                members_per_task=self.members_per_task))

    def build(self, seed: int, seconds: int) -> None:
        from repro.core.analytic import random_walk_hitting_curve
        # Enough calls for >= 100 batch calls (a p90 with 10 beyond).
        count = max(134, self.rate * seconds)
        rng = random.Random(f"{self.name}:{seed}")
        seeds = request_seeds(self.name, seed, count)
        self.schedule = []
        for index, rid in enumerate(seeds):
            kind = "curves" if index % 4 == 3 else "batch"
            levels = FLEET_CURVE_TOPS if kind == "curves" else FLEET_BETAS
            members = [(rng.choice(FLEET_P_UP), rng.choice(levels))
                       for _ in range(self.members)]
            self.schedule.append((rid, kind, members))
        thresholds = list(range(1, max(FLEET_BETAS) + 1))
        self.exact = {}
        for p_up in FLEET_P_UP:
            curve = random_walk_hitting_curve(p_up, thresholds,
                                              FLEET_HORIZON,
                                              p_down=FLEET_P_DOWN)
            for beta, value in zip(thresholds, curve):
                self.exact[(p_up, beta)] = float(value)

    @staticmethod
    def grid(top: int) -> list:
        return [float(top - 2), float(top - 1), float(top)]

    def queries(self, members):
        from repro import DurabilityQuery
        from repro.processes import RandomWalkProcess
        return [DurabilityQuery.threshold(
            RandomWalkProcess(p_up=p_up, p_down=FLEET_P_DOWN),
            RandomWalkProcess.position, beta=float(beta),
            horizon=FLEET_HORIZON) for p_up, beta in members]

    def setup(self) -> None:
        from repro.engine import DurabilityEngine
        self.engine = DurabilityEngine(self.policy())
        # Warm-up (forks the pool): one small call of each kind.
        members = [(p_up, 6) for p_up in FLEET_P_UP] * 3
        queries = self.queries(members)
        self.engine.answer_batch(queries, seed=1)
        self.engine.durability_curves(
            queries, [self.grid(6)] * len(queries), seed=2)

    def run(self, hooks) -> list:
        records = []
        clock = time.perf_counter_ns
        engine = self.engine
        for rid, kind, members in self.schedule:
            queries = self.queries(members)
            root = hooks.open("request", rid) if hooks.trace else None
            record = Record(rid=rid, cls=kind, start_ns=clock(),
                            answers=len(members))
            try:
                if kind == "batch":
                    answers = engine.answer_batch(queries, seed=rid)
                    record.result = [(e.probability, e.n_roots)
                                     for e in answers]
                else:
                    answers = engine.durability_curves(
                        queries, [self.grid(top) for _, top in members],
                        seed=rid)
                    record.result = [
                        ([e.probability for e in curve.estimates],
                         curve.n_roots) for curve in answers]
                record.end_ns = clock()
                record.steps = sum(answer.steps for answer in answers)
            except Exception as exc:
                record.end_ns = clock()
                record.ok = False
                record.error = f"{type(exc).__name__}: {exc}"
            if root is not None:
                hooks.close(root)
            record.extra["members"] = members
            records.append(record)
        return records

    def check(self, records) -> tuple:
        """Every member (every grid point of a curve) against the exact
        curve, in binomial standard errors computed from the true p."""
        checks = []
        for record in records:
            if not record.ok:
                continue
            for (p_up, beta), result in zip(record.extra["members"],
                                            record.result):
                if record.cls == "batch":
                    points = [(beta, result[0])]
                    n_roots = result[1]
                else:
                    points = list(zip(self.grid(beta), result[0]))
                    n_roots = result[1]
                for level, estimate in points:
                    exact = self.exact[(p_up, int(level))]
                    std_error = math.sqrt(exact * (1.0 - exact)
                                          / max(n_roots, 1))
                    checks.append((record.rid,
                                   (estimate - exact) / std_error, (
                        f"member p_up={p_up} beta={level:g}: estimate "
                        f"{estimate:.4g} vs exact {exact:.4g} "
                        f"({n_roots} roots)")))
        failures, notes = oracle_verdicts(checks)
        return [(r.rid, r.error) for r in records if not r.ok] + failures, \
            notes

    def peak_rss_mb(self) -> float:
        workers = [child.pid for child in multiprocessing.active_children()]
        return vm_hwm_mb() + sum(vm_hwm_mb(pid) for pid in workers)

    def teardown(self) -> None:
        self.engine.close()


WORKLOADS = {cls.name: cls for cls in (ServePoint, RareMLSS, FleetPooled)}
