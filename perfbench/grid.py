"""Scenario-grid outcome report for the fixed-point pipeline.

Run from the repository root:

    python3 perfbench/grid.py --seed 1

For every k in {1,2,3}, A in {1,2,4,8} and both moduli, one seeded input
below the ball radius delta0 goes through fixed_point_search with the
program's default tolerances.  Each point records one outcome: converged
(iterations, residual, whether the written chain verifies), no-convergence,
or refused (exception type, stage prefix and message).

The grid is untimed and is not a workload, so a fixed refusal never reads
as a slowdown.  The report goes to stdout and to
.perfbench_out/grid-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import MODULI, modulus


def point(dl, k: int, A: int, spec: str, rng, work) -> dict:
    rec = {"k": k, "A": A, "modulus": spec}
    try:
        alpha = modulus(dl, spec)
        cfg = dl.make_config(k, alpha, A)
        rec["norm"] = float(rng.uniform(0.5, 0.9) * cfg.delta0)
        rec["center"] = float(rng.uniform(-0.2, 0.2))
        f = dl.calibrated_bump(rec["norm"], alpha, k, center=rec["center"])
        res = dl.fixed_point_search(f, cfg)
        rec.update(iterations=res.iterations, residual=res.residual)
        if not res.converged:
            rec["outcome"] = "no-convergence"
            return rec
        path = work / f"grid-{k}-{A}.json"
        dl.write_chain(str(path), res.chain)
        report = dl.verify_certificate(dl.load_chain(str(path)))
        path.unlink()
        rec.update(outcome="converged", chain_ok=report["ok"])
    except Exception as e:              # a refusal is the recorded outcome
        rec.update(outcome="refused", type=type(e).__name__,
                   stage=run.stage_of(e), message=str(e)[:200])
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    dl, _ = run.load_package()
    import numpy as np

    rng = np.random.default_rng([args.seed, 99])
    run.OUT.mkdir(exist_ok=True)
    rows = []
    for k in (1, 2, 3):
        for A in (1, 2, 4, 8):
            for spec in MODULI:
                rec = point(dl, k, A, spec, rng, run.OUT)
                rows.append(rec)
                if rec["outcome"] == "refused":
                    detail = (f"{rec['type']} [{rec['stage']}] "
                              f"{rec['message']}")
                else:
                    detail = (f"it={rec['iterations']} "
                              f"res={rec['residual']:.2e}")
                    if rec["outcome"] == "converged":
                        detail += f" chain_ok={rec['chain_ok']}"
                print(f"k={k} A={A} {spec:15s} {rec['outcome']:15s} "
                      f"{detail}", flush=True)
    path = run.OUT / f"grid-{args.seed}.json"
    path.write_text(json.dumps({"seed": args.seed, "points": rows},
                               indent=1))
    print(f"grid: {len(rows)} points -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
