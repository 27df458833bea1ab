"""
Seeded experiment sweeps
========================

The harness turns a flat config into a CSV of per-trial records with
derived seeds, so any row can be reproduced in isolation.  Reruns with
the same master seed are byte-identical (timing stays off by default
for exactly that reason).
"""

import tempfile
from pathlib import Path

from rainbowconn.experiment import ExperimentConfig, run_experiment

with tempfile.TemporaryDirectory(prefix="rainbowconn-demo-") as tmp:
    workdir = Path(tmp)

    # small graphs, exact rc per trial, lower bound recorded alongside
    cfg = ExperimentConfig(mode="brute", n_values=(5, 6, 7), omega=2.0,
                           trials=3, seed=0, out=str(workdir / "brute.csv"))
    records, summary = run_experiment(cfg)
    print(f"brute sweep -> {cfg.out}")
    print(summary)

    print("\nper-row rc vs lower bound:")
    for rec in records:
        print(f"  n={rec.n} trial={rec.trial} seed={rec.seed}: "
              f"rc={rec.rc} >= max(z1={rec.z1}, diam={rec.diameter})")

    # the deterministic pairing guarantee as a stress mode: any flagged
    # violation row would be a bug, not bad luck
    cfg2 = ExperimentConfig(mode="lemcol_stress", d=3, ell=3, trials=5,
                            seed=1, out=str(workdir / "stress.csv"))
    _, summary2 = run_experiment(cfg2)
    print(f"\nstress sweep -> {cfg2.out}")
    print(summary2)

    # same invocation, same bytes
    rerun = ExperimentConfig(mode="brute", n_values=(5, 6, 7), omega=2.0,
                             trials=3, seed=0, out=str(workdir / "again.csv"))
    run_experiment(rerun)
    a = Path(cfg.out).read_bytes()
    b = Path(rerun.out).read_bytes()
    print(f"\nrerun identical: {a == b}")
