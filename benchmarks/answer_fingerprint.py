"""Print an exact fingerprint of engine answers for fixed seeds.

Every line is one answer (or one curve point) as ``label probability
variance n_roots hits steps``, with floats printed by ``repr`` so two
runs print identical text exactly when they produce identical answers.
Diff the output of two source trees to check that a refactor kept
answer bytes (``OTHER`` is the other tree's ``src`` directory):

    PYTHONPATH=src python benchmarks/answer_fingerprint.py > new.txt
    PYTHONPATH=OTHER python benchmarks/answer_fingerprint.py > old.txt
    diff old.txt new.txt

Covers ``DurabilityEngine.answer`` (SRS, s-MLSS and g-MLSS on an
explicit plan, balanced-pilot plans, greedy-searched ``auto``; SRS
point answers stopped by ``max_roots=250``; SRS, s-MLSS and g-MLSS
point answers stopped by a relative-error target; and ``record_trace``
answers printed as their trace length and last point: SRS under a
budget, g-MLSS under a target, s-MLSS under a budget and under a
target, plus the root count of every g-MLSS trace point, so a change
in where the checks fall shows as a diff), ``durability_curve`` (SRS,
s-MLSS and g-MLSS under a budget; s-MLSS and g-MLSS under a
relative-error target), fused
``answer_batch`` (SRS screening and clustered g-MLSS fleets, each
under a budget and under a quality target, and the target-stopped
g-MLSS fleet again with the check-schedule ``sampler_options``
``first_check_roots`` and ``check_growth``, so the pool check below
also shows them reaching the fleet's slice workers), fused
``durability_curves`` under a budget and under a relative-error
target, and all of it again over an inline pool and a 2-worker fork
pool.  It also covers the SRS paths no natively batched fleet
reaches: point and curve answers of a process that defines only
``step`` (it runs inside ``ScalarFallback``), an SRS answer under a
value function that is not a threshold, an ``answer_batch`` whose
queries share one process object (the same-process cohort) and the
fleet with ``fuse=False``.  An answer that raises prints ``label
raises ErrorType`` instead.  Runs in under half a minute.

By the determinism contract the fork lines equal the inline lines once
their ``inline.``/``fork.`` labels are stripped.  After printing every
line the script checks this itself and exits 1, naming the first fork
label that differs on stderr; stdout stays the fingerprint, so it still
diffs against the output of other trees.
"""

from __future__ import annotations

import sys
from itertools import zip_longest

import numpy as np

from repro import DurabilityEngine, DurabilityQuery, ExecutionPolicy
from repro.core.levels import LevelPartition
from repro.core.quality import RelativeErrorTarget
from repro.engine import ParallelPolicy
from repro.processes import (GaussianWalkProcess, RandomWalkProcess,
                             StochasticProcess, birth_death_chain)


class StepOnlyWalk(StochasticProcess):
    """A +-1 walk that defines only ``step`` (no ``step_batch``)."""

    def initial_state(self) -> int:
        return 0

    def step(self, state: int, t: int, rng) -> int:
        u = rng.random()
        if u < 0.35:
            return state + 1
        return state - 1 if u < 0.8 else state


class RisingBarValue:
    """A value function that is not a threshold: the position against
    a bar that rises with time, ``clip(x / (10 + t / 20), 0, 1)``."""

    def __call__(self, state, t) -> float:
        return min(max(state / (10.0 + t / 20.0), 0.0), 1.0)

    def batch(self, states, t):
        bar = 10.0 + t / 20.0
        return np.clip(np.asarray(states, dtype=np.float64) / bar, 0.0, 1.0)


def line(label: str, estimate) -> str:
    return (f"{label} {estimate.probability!r} {estimate.variance!r} "
            f"{estimate.n_roots} {estimate.hits} {estimate.steps}")


def curve_lines(label: str, curve) -> list:
    return [line(f"{label}[{beta!r}]", estimate)
            for beta, estimate in zip(curve.thresholds, curve.estimates)]


def walk_query(p_up: float, beta: float, horizon: int = 60):
    process = RandomWalkProcess(p_up=p_up, p_down=0.45)
    return DurabilityQuery.threshold(
        process, RandomWalkProcess.position, beta=beta, horizon=horizon)


def trace_line(label: str, estimate) -> str:
    trace = estimate.details["trace"]
    last = trace[-1]
    return (f"{label} {len(trace)} {last.probability!r} "
            f"{last.variance!r} {last.n_roots} {last.hits} {last.steps}")


def trace_roots_line(label: str, estimate) -> str:
    return " ".join([label] + [str(point.n_roots)
                               for point in estimate.details["trace"]])


def fingerprint() -> list:
    out = []
    walk = walk_query(0.35, 12.0)
    chain = birth_death_chain(n=13, p_up=0.25, p_down=0.35, start=0)
    chain_query = DurabilityQuery.threshold(
        chain, chain.state_value, beta=12.0, horizon=60)
    plan = LevelPartition([4 / 12, 8 / 12])
    policy = ExecutionPolicy(max_steps=120_000, trial_steps=8_000)
    target = RelativeErrorTarget(0.2)

    pools = (("direct", None),
             ("inline", ParallelPolicy(n_workers=1, pool="inline")),
             ("fork", ParallelPolicy(n_workers=2, pool="fork")))
    for tag, pool in pools:
        with DurabilityEngine(policy.replace(parallel=pool)) as engine:

            def answer(label, query, **overrides):
                try:
                    out.append(line(label, engine.answer(query,
                                                         **overrides)))
                except ValueError as exc:
                    out.append(f"{label} raises {type(exc).__name__}")

            for name, query in (("walk", walk), ("chain", chain_query)):
                answer(f"{tag}.{name}.srs", query, method="srs", seed=11)
                answer(f"{tag}.{name}.smlss", query, method="smlss",
                       partition=plan, seed=12)
                answer(f"{tag}.{name}.gmlss", query, method="gmlss",
                       partition=plan, seed=13)
                answer(f"{tag}.{name}.balanced", query, method="gmlss",
                       num_levels=3, seed=14)
                answer(f"{tag}.{name}.auto", query, seed=15)
                answer(f"{tag}.{name}.srs250", query, method="srs",
                       max_steps=None, max_roots=250, seed=22)
                answer(f"{tag}.{name}.srs_target", query, method="srs",
                       max_steps=None, quality=target, seed=23)
                for method, seed in (("smlss", 26), ("gmlss", 27)):
                    answer(f"{tag}.{name}.{method}_target", query,
                           method=method, partition=plan, max_steps=None,
                           quality=target, seed=seed)
            out.append(trace_line(f"{tag}.walk.srs_trace", engine.answer(
                walk, method="srs", max_steps=None, max_roots=1_800,
                record_trace=True, seed=24)))
            traced = engine.answer(
                walk, method="gmlss", partition=plan, max_steps=None,
                max_roots=6_000, quality=RelativeErrorTarget(0.1),
                record_trace=True, seed=28)
            out.append(trace_line(f"{tag}.walk.gmlss_trace", traced))
            out.append(trace_roots_line(f"{tag}.walk.gmlss_trace_roots",
                                        traced))
            out.append(trace_line(f"{tag}.walk.smlss_trace", engine.answer(
                walk, method="smlss", partition=plan, max_steps=None,
                max_roots=6_000, record_trace=True, seed=39)))
            out.append(trace_line(
                f"{tag}.walk.smlss_trace_target", engine.answer(
                    walk, method="smlss", partition=plan, max_steps=None,
                    max_roots=6_000, quality=RelativeErrorTarget(0.1),
                    record_trace=True, seed=40)))
            for method, seed in (("srs", 16), ("smlss", 29), ("gmlss", 17)):
                out.extend(curve_lines(
                    f"{tag}.curve.{method}", engine.durability_curve(
                        walk, [6, 9, 12], method=method, seed=seed)))
            for method, seed in (("smlss", 30), ("gmlss", 31)):
                out.extend(curve_lines(
                    f"{tag}.curve.{method}_target", engine.durability_curve(
                        walk, [6, 9, 12], method=method, max_steps=None,
                        quality=target, seed=seed)))

            fleet = [walk_query(0.30 + 0.01 * i, 10.0 + i % 3)
                     for i in range(6)]
            for i, estimate in enumerate(engine.answer_batch(
                    fleet, method="srs", seed=18)):
                out.append(line(f"{tag}.batch.srs.{i}", estimate))
            for i, estimate in enumerate(engine.answer_batch(
                    fleet, method="srs", max_steps=None, quality=target,
                    seed=25)):
                out.append(line(f"{tag}.batch.srs_target.{i}", estimate))
            for i, estimate in enumerate(engine.answer_batch(
                    fleet, method="gmlss", num_levels=3, seed=19)):
                out.append(line(f"{tag}.batch.gmlss.{i}", estimate))
            for i, estimate in enumerate(engine.answer_batch(
                    fleet, method="gmlss", num_levels=3, max_steps=None,
                    quality=target, seed=32)):
                out.append(line(f"{tag}.batch.gmlss_target.{i}", estimate))
            for i, estimate in enumerate(engine.answer_batch(
                    fleet, method="gmlss", num_levels=3, max_steps=None,
                    quality=target, seed=32,
                    sampler_options={"first_check_roots": 20,
                                     "check_growth": 3.0})):
                out.append(line(f"{tag}.batch.gmlss_options.{i}", estimate))
            for i, curve in enumerate(engine.durability_curves(
                    fleet, [6, 8, 10], method="srs", seed=20)):
                out.extend(curve_lines(f"{tag}.curves.{i}", curve))
            for i, curve in enumerate(engine.durability_curves(
                    fleet, [6, 8, 10], method="srs", max_steps=None,
                    quality=target, seed=33)):
                out.extend(curve_lines(f"{tag}.curves_target.{i}", curve))
            for i, estimate in enumerate(engine.answer_batch(
                    fleet, method="srs", fuse=False, seed=34)):
                out.append(line(f"{tag}.batch.srs_unfused.{i}", estimate))
            shared = [DurabilityQuery.threshold(
                walk.process, RandomWalkProcess.position, beta=beta,
                horizon=60) for beta in (8.0, 10.0, 12.0)]
            for i, estimate in enumerate(engine.answer_batch(
                    shared, method="srs", seed=35)):
                out.append(line(f"{tag}.batch.srs_shared.{i}", estimate))

            step_only = DurabilityQuery.threshold(
                StepOnlyWalk(), RandomWalkProcess.position, beta=12.0,
                horizon=60)
            answer(f"{tag}.step_only.srs", step_only, method="srs",
                   max_steps=None, max_roots=400, seed=36)
            out.extend(curve_lines(
                f"{tag}.step_only.curve", engine.durability_curve(
                    step_only, [6, 9, 12], method="srs", max_steps=None,
                    max_roots=400, seed=37)))
            rising = DurabilityQuery(process=walk.process,
                                     value_function=RisingBarValue(),
                                     horizon=60)
            answer(f"{tag}.rising_bar.srs", rising, method="srs", seed=38)

            gauss = DurabilityQuery.threshold(
                GaussianWalkProcess(drift=0.05, sigma=1.0),
                GaussianWalkProcess.position, beta=14.0, horizon=50)
            answer(f"{tag}.gauss.auto", gauss, seed=21)
    return out


def first_pool_difference(lines: list):
    """The first fork label whose line differs from its inline line
    once the pass tags are stripped, or ``None`` when the passes match."""
    passes = [[text.split(".", 1)[1] for text in lines
               if text.startswith(f"{tag}.")] for tag in ("inline", "fork")]
    for inline, fork in zip_longest(*passes):
        if inline != fork:
            return "fork." + (fork or inline).split(" ", 1)[0]
    return None


def main() -> int:
    lines = fingerprint()
    for text in lines:
        print(text)
    differing = first_pool_difference(lines)
    if differing is not None:
        print(f"determinism contract broken: {differing} differs from "
              f"its inline line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
