"""The benchmark's three workloads: seeded inputs, one op, its output check.

Each workload has ``prepare(seed)`` (input generation and calibration,
repeatable) and ``op(i, meter, label)``, which runs one operation, times its
parts through the meter and raises when an output check fails.  The timed
parts are recorded under ``label`` (the op itself) and, for the fixpoint,
``label + ".replay"``.  ``round_ops`` ops make one balanced round: timing
loops stop only at round boundaries, so every run measures the same mix of
inputs; the first ``warmup_ops`` ops run once untimed as the warm-up.
``REPORT`` names the op's median, its tail and the tail's samples in the
human-readable report.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from pathlib import Path

MODULI = ("holder:0.5", "omegaz:0.5,0.3")


def modulus(dl, spec: str):
    kind, rest = spec.split(":")
    if kind == "holder":
        return dl.holder(float(rest))
    sigma, tau = rest.split(",")
    return dl.log_refined_holder(float(sigma), float(tau))


class CheckFailed(Exception):
    """An op ran but its output did not pass the benchmark's check."""


class Workload:
    warmup_ops = 1
    tail_label = "op"

    def results(self) -> dict:
        """Result numbers reported as per-layer metrics by the traced run."""
        return {}

    def report(self, meter) -> dict:
        """Extra report lines: name -> (value, unit)."""
        return {}


class Fixpoint(Workload):
    """k=2, A=4 fixed-point search with its certificate chain, replayed."""

    K, A = 2, 4
    INPUTS = 16
    REPLAYS = 6
    round_ops = 2                       # one holder and one omegaz input
    tail_label = "op.replay"
    REPORT = ("fixpoint_s", "replay_tail_s", "replays")

    def __init__(self, dl, cli, rng, work: Path):
        self.dl, self.rng, self.work = dl, rng, work
        self.chain_bytes: list[int] = []
        self.iterations: list[int] = []
        self.fix_residual: list[float] = []
        self.cert_residual: list[float] = []
        self.first_chain: bytes | None = None

    def prepare(self, seed: int) -> None:
        dl = self.dl
        rng = self.rng(seed)
        self.inputs = []
        for i in range(self.INPUTS):
            alpha = modulus(dl, MODULI[i % 2])
            cfg = dl.make_config(self.K, alpha, self.A)
            norm = rng.uniform(0.5, 0.9) * cfg.delta0
            center = rng.uniform(-0.2, 0.2)
            f = dl.calibrated_bump(norm, alpha, self.K, center=center)
            self.inputs.append((cfg, f))

    def _search(self, cfg, f, path: Path):
        res = self.dl.fixed_point_search(f, cfg)
        if not res.converged:
            raise CheckFailed(f"search: no convergence after "
                              f"{res.iterations} iterations")
        self.dl.write_chain(str(path), res.chain)
        return res

    def _replay(self, path: Path) -> dict:
        return self.dl.verify_certificate(self.dl.load_chain(str(path)))

    def op(self, i: int, meter, label: str = "op") -> None:
        cfg, f = self.inputs[i % self.INPUTS]
        path = self.work / f"chain-{label}-{i}.json"
        res = meter.call(label, self._search, cfg, f, path)
        if not res.residual <= self.dl.DEFAULT_TOL.fix_tol:
            raise CheckFailed(f"search: residual {res.residual:.3e} above "
                              f"fix_tol")
        chain = path.read_bytes()
        if self.first_chain is None:
            self.first_chain = chain
        elif i == 0 and chain != self.first_chain:
            raise CheckFailed("determinism: a second search of the first "
                              "input wrote a different chain")
        for _ in range(self.REPLAYS):
            report = meter.call(f"{label}.replay", self._replay, path)
            if not report["ok"]:
                bad = [it["name"] for it in report["items"] if not it["ok"]]
                raise CheckFailed(f"replay: identities failed {bad}")
            self.cert_residual += [it["recomputed"] for it in report["items"]
                                   if it["name"] == "flow-conjugacy"]
        self.chain_bytes.append(len(chain))
        self.iterations.append(res.iterations)
        self.fix_residual.append(res.residual)
        path.unlink()

    def results(self) -> dict:
        if not self.iterations:
            return {}
        return {
            "fixpoint.fixed_point_search.iterations":
                statistics.mean(self.iterations),
            "fixpoint.fixed_point_search.residual": max(self.fix_residual),
            "fixpoint.verify_certificate.residual": max(self.cert_residual),
            "fixpoint.write_chain.mb": statistics.mean(self.chain_bytes) / 1e6,
        }

    def report(self, meter) -> dict:
        r = self.results()
        if not r:
            return {}
        return {
            "replay_s": (statistics.median(meter.seconds("op.replay")), "s"),
            "chain_mb": (r["fixpoint.write_chain.mb"], "MB"),
            "fix_iterations": (r["fixpoint.fixed_point_search.iterations"],
                               "count"),
            "fix_residual": (r["fixpoint.fixed_point_search.residual"],
                             "C^k distance"),
            "cert_residual": (r["fixpoint.verify_certificate.residual"],
                              "sup distance"),
        }


class Sweep(Workload):
    """One reduce_norm per op on the mather-psi sweep family."""

    GRID = [(k, A, spec) for k in (2, 3) for A in (1, 2, 4, 8)
            for spec in MODULI]
    VARIANTS = 4
    EPS_REF = 1e-7
    round_ops = len(GRID)
    warmup_ops = len(GRID)
    REPORT = ("sweep_point_s", "sweep_point_tail_s", "points")

    def __init__(self, dl, cli, rng, work: Path):
        self.dl, self.rng = dl, rng

    def prepare(self, seed: int) -> None:
        dl = self.dl
        rng = self.rng(seed)
        self.inputs = []
        for k, A, spec in self.GRID:
            alpha = modulus(dl, spec)
            cfg = dl.make_config(k, alpha, A)
            # the seminorm is linear in eps: one measurement calibrates it
            per_eps = dl.holder_norm(dl.sweep_profile(A, k, self.EPS_REF),
                                     alpha, k) / self.EPS_REF
            rows = []
            for _ in range(self.VARIANTS):
                eps = rng.uniform(0.3, 0.6) * cfg.delta0 / per_eps
                phase = rng.uniform(0.0, 2.0 * math.pi)
                rows.append(dl.sweep_profile(A, k, eps, phase))
            self.inputs.append((cfg, rows))

    def op(self, i: int, meter, label: str = "op") -> None:
        cfg, rows = self.inputs[i % self.round_ops]
        g = rows[(i // self.round_ops) % self.VARIANTS]
        res = meter.call(label, self.dl.reduce_norm, g, cfg)
        if not res.norm_in <= cfg.delta0:
            raise CheckFailed(f"sweep: input seminorm {res.norm_in:.3e} "
                              f"above delta0")
        supp = res.support
        if supp is not None and not (cfg.D[0] <= supp[0]
                                     and supp[1] <= cfg.D[1]):
            raise CheckFailed(f"sweep: output support {supp} leaves {cfg.D}")
        if not (math.isfinite(res.ratio) and res.ratio > 0.0):
            raise CheckFailed(f"sweep: ratio {res.ratio!r}")


class Battery(Workload):
    """`diffeolab verify` over all suites plus `modulus analyze` twice."""

    round_ops = 1
    REPORT = ("battery_s", "battery_tail_s", "passes")

    def __init__(self, dl, cli, rng, work: Path):
        self.cli, self.rng, self.work = cli, rng, work

    def prepare(self, seed: int) -> None:
        rng = self.rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=64)]

    def _main(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv + ["--out", str(self.work)])
        if code != 0:
            raise CheckFailed(f"battery: {' '.join(argv)} exited {code}")

    def _pass(self, seed: int) -> None:
        self._main(["verify", "--seed", str(seed)])
        for spec in MODULI:
            self._main(["modulus", "analyze", "--alpha", spec])

    def op(self, i: int, meter, label: str = "op") -> None:
        meter.call(label, self._pass, self.seeds[i % len(self.seeds)])
        report = json.loads((self.work / "verify_report.json").read_text())
        bad = [name for name, r in report["suites"].items() if not r["ok"]]
        if bad or not report["ok"]:
            raise CheckFailed(f"battery: suites failed {bad}")


WORKLOADS = {"fixpoint": Fixpoint, "sweep": Sweep, "battery": Battery}
