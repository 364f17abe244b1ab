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
point answers stopped by ``max_roots=250`` and by a quality target,
and one ``record_trace`` answer printed as its trace length and last
point), ``durability_curve`` (SRS and g-MLSS), fused ``answer_batch``
(SRS screening under a budget and under a quality target, clustered
g-MLSS fleets), fused ``durability_curves``, and all of it again over
an inline pool and a 2-worker thread pool.  An answer that raises
prints ``label raises ErrorType`` instead.  Every process here batches
natively.  Runs in about fifteen seconds.
"""

from __future__ import annotations

from repro import DurabilityEngine, DurabilityQuery, ExecutionPolicy
from repro.core.levels import LevelPartition
from repro.core.quality import RelativeErrorTarget
from repro.engine import ParallelPolicy
from repro.processes import (GaussianWalkProcess, RandomWalkProcess,
                             birth_death_chain)


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
             ("thread", ParallelPolicy(n_workers=2, pool="thread")))
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
            out.append(trace_line(f"{tag}.walk.srs_trace", engine.answer(
                walk, method="srs", max_steps=None, max_roots=1_800,
                record_trace=True, seed=24)))
            out.extend(curve_lines(
                f"{tag}.curve.srs", engine.durability_curve(
                    walk, [6, 9, 12], method="srs", seed=16)))
            out.extend(curve_lines(
                f"{tag}.curve.gmlss", engine.durability_curve(
                    walk, [6, 9, 12], method="gmlss", seed=17)))

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
            for i, curve in enumerate(engine.durability_curves(
                    fleet, [6, 8, 10], method="srs", seed=20)):
                out.extend(curve_lines(f"{tag}.curves.{i}", curve))

            gauss = DurabilityQuery.threshold(
                GaussianWalkProcess(drift=0.05, sigma=1.0),
                GaussianWalkProcess.position, beta=14.0, horizon=50)
            answer(f"{tag}.gauss.auto", gauss, seed=21)
    return out


def main() -> None:
    for text in fingerprint():
        print(text)


if __name__ == "__main__":
    main()
