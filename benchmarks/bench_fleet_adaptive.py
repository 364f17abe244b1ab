"""Variance-directed fleets: adaptive vs uniform root allocation.

A heterogeneous fleet screened through the fused splitting forest
(:func:`repro.core.fleet.screen_fleet_mlss`) has members whose quality
targets cost wildly different root counts — yet uniform allocation
grows every member by the same batch each round until the *hardest*
member converges, so easy members burn roots long after their CI is
met.  Per-member adaptive allocation
(``screen_fleet_mlss(adaptive=True)``) sizes each round's cohort from
:meth:`~repro.core.quality.QualityTarget.projected_roots` fed the
member's measured bootstrap variance, and drops converged members from
the cohort entirely.

The benchmark screens one heterogeneous fleet to the *same* fixed
quality target both ways and gates on **total simulation steps** — a
hardware-independent count, so unlike the wall-clock pool gates this
one is failing (not informational) everywhere, including the 1-core
CI runner:

* **step gate** — adaptive total steps <= 0.7x uniform total steps;
* **quality gate** — both allocators actually reach the CI target for
  every member (adaptive may not buy its savings by under-serving);
* **agreement gate** — per-member adaptive and uniform estimates agree
  within joint 99.9% CIs;
* **determinism gate** — pooled adaptive answers are byte-identical
  across worker counts and pool modes (fixed member slices, task-index
  seeds; the unpooled run differs only in draw interleaving).

Run directly (``python benchmarks/bench_fleet_adaptive.py [--quick]``);
CI uses ``--quick``.  Results land in ``BENCH_fleet_adaptive.json``
and ``benchmarks/results/fleet_adaptive.txt``.
"""

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from bench_common import write_report
from repro.core.fleet import screen_fleet_mlss
from repro.core.levels import uniform_partition
from repro.core.pool import WorkerPool
from repro.core.quality import ConfidenceIntervalTarget
from repro.core.stats import critical_value
from repro.processes import RandomWalkProcess, fuse_processes

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_fleet_adaptive.json"

#: Hard acceptance target: adaptive total steps vs uniform.
STEP_RATIO_TARGET = 0.7
Z999 = critical_value(0.999)


def build_fleet(n_members, seed=0):
    """A heterogeneous random-walk fleet spanning easy to rare members.

    Drift and threshold vary member by member, so per-member hitting
    probabilities span roughly three orders of magnitude — exactly the
    spread where uniform allocation wastes the most effort.
    """
    rng = np.random.default_rng(seed)
    processes, betas = [], []
    for _ in range(n_members):
        processes.append(RandomWalkProcess(
            p_up=float(0.33 + 0.15 * rng.random()), p_down=0.48))
        betas.append(float(rng.integers(4, 9)))
    return processes, betas


def signature(estimates):
    """Byte-comparable fingerprint of a fleet screening result."""
    return tuple((e.probability, e.variance, e.n_roots, e.hits, e.steps)
                 for e in estimates)


def run_fleet(fused, betas, partition, horizon, quality, adaptive,
              seed, pool=None, members_per_task=64):
    started = time.perf_counter()
    estimates = screen_fleet_mlss(
        fused, RandomWalkProcess.position, betas, partition, horizon,
        ratio=3, quality=quality, max_roots=200_000, batch_roots=100,
        seed=seed, adaptive=adaptive, pool=pool,
        members_per_task=members_per_task)
    elapsed = time.perf_counter() - started
    return estimates, elapsed


def ci_agreement(adaptive, uniform):
    """Members whose adaptive/uniform estimates disagree beyond joint
    99.9% CIs (should be empty)."""
    disagreements = []
    for member, (a, u) in enumerate(zip(adaptive, uniform)):
        gap = abs(a.probability - u.probability)
        joint = Z999 * ((a.std_error ** 2 + u.std_error ** 2) ** 0.5)
        if gap > joint + 1e-12:
            disagreements.append({
                "member": member, "adaptive": a.probability,
                "uniform": u.probability, "gap": gap, "joint_ci": joint})
    return disagreements


def quality_misses(estimates, quality):
    """Members whose final estimate misses the CI target despite the
    root budget (should be empty for both allocators)."""
    return [member for member, e in enumerate(estimates)
            if not quality.is_met(e.probability, e.variance, e.hits,
                                  e.n_roots)
            and e.n_roots < 200_000]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized fleet (still 500 members)")
    args = parser.parse_args()

    n_members = 500
    horizon = 24
    half_width = 0.02 if args.quick else 0.012
    processes, betas = build_fleet(n_members, seed=0)
    fused = fuse_processes(processes)
    quality = ConfidenceIntervalTarget(half_width=half_width,
                                       confidence=0.95, relative=False)
    partition = uniform_partition(4)
    seed = 20210823

    runs = {}
    for label, adaptive in (("uniform", False), ("adaptive", True)):
        estimates, elapsed = run_fleet(fused, betas, partition, horizon,
                                       quality, adaptive, seed)
        runs[label] = {
            "estimates": estimates,
            "total_steps": int(sum(e.steps for e in estimates)),
            "total_roots": int(sum(e.n_roots for e in estimates)),
            "elapsed_seconds": round(elapsed, 3),
        }

    adaptive = runs["adaptive"]["estimates"]
    uniform = runs["uniform"]["estimates"]
    step_ratio = (runs["adaptive"]["total_steps"]
                  / runs["uniform"]["total_steps"])

    # Determinism: pooled adaptive answers must be byte-identical
    # across worker counts and pool modes (the fixed member slices and
    # task-index seeds make results worker-count invariant; only the
    # unpooled run interleaves draws differently).
    reference_sig = None
    determinism = {}
    for mode, n_workers in (("inline", 1), ("fork", 2), ("fork", 3)):
        with WorkerPool(n_workers=n_workers, pool=mode) as pool:
            pooled, _ = run_fleet(fused, betas, partition, horizon,
                                  quality, True, seed, pool=pool)
        pooled_sig = signature(pooled)
        if reference_sig is None:
            reference_sig = pooled_sig
        determinism[f"{mode}x{n_workers}"] = pooled_sig == reference_sig

    disagreements = ci_agreement(adaptive, uniform)
    misses = {label: quality_misses(runs[label]["estimates"], quality)
              for label in runs}

    gates = {
        "step_ratio_target": STEP_RATIO_TARGET,
        "step_ratio": round(step_ratio, 4),
        "step_gate_pass": step_ratio <= STEP_RATIO_TARGET,
        "quality_gate_pass": not misses["adaptive"]
                             and not misses["uniform"],
        "agreement_gate_pass": not disagreements,
        "determinism_gate_pass": all(determinism.values()),
    }
    payload = {
        "benchmark": "fleet_adaptive",
        "n_members": n_members,
        "horizon": horizon,
        "half_width": half_width,
        "quick": args.quick,
        "cpu_count": os.cpu_count() or 1,
        "runs": {label: {k: v for k, v in run.items()
                         if k != "estimates"}
                 for label, run in runs.items()},
        "determinism": determinism,
        "ci_disagreements": disagreements,
        "quality_misses": misses,
        "gates": gates,
    }
    RESULT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True))

    lines = [
        "Variance-directed fleet allocation (adaptive vs uniform)",
        f"fleet: {n_members} members, horizon {horizon}, "
        f"CI half-width {half_width}",
        f"uniform : {runs['uniform']['total_steps']:>12,} steps "
        f"({runs['uniform']['total_roots']:,} roots, "
        f"{runs['uniform']['elapsed_seconds']}s)",
        f"adaptive: {runs['adaptive']['total_steps']:>12,} steps "
        f"({runs['adaptive']['total_roots']:,} roots, "
        f"{runs['adaptive']['elapsed_seconds']}s)",
        f"step ratio: {step_ratio:.3f} (target <= {STEP_RATIO_TARGET})",
        f"determinism: {determinism}",
        f"CI disagreements: {len(disagreements)}; "
        f"quality misses: { {k: len(v) for k, v in misses.items()} }",
        f"gates: {gates}",
    ]
    write_report("fleet_adaptive",
                 "Variance-directed fleet allocation", lines[1:])

    failures = [name for name in ("step_gate_pass", "quality_gate_pass",
                                  "agreement_gate_pass",
                                  "determinism_gate_pass")
                if not gates[name]]
    if failures:
        raise SystemExit(f"fleet_adaptive gates failed: {failures}")


if __name__ == "__main__":
    main()
