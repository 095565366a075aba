"""Central configuration record: every tolerance and size knob in one place.

`Tolerances` holds the thresholds a run may override: the CLI exposes each
field as a `--tol-*` flag and as a key under `tol` in a config file, and
operations receive the run's instance (or fall back to DEFAULT_TOL).  The
module constants below are fixed: every caller uses the one value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict, replace

# norm grids: sample points per grid cell of the map
EVAL_DENSITY = 8
# relative slack allowed when asserting inequalities between estimated
# seminorms, which are lower estimates
ESTIMATOR_SLACK = 0.01


@dataclass(frozen=True)
class Tolerances:
    # structural invariants of stored objects
    node_zero: float = 1e-10          # "jet vanishes" slack at tail nodes
    concavity_rel: float = 1e-12      # chord test, relative
    periodic_match: float = 1e-10     # u(x+1) = u(x) node agreement

    # root finding / inversion
    invert_abscissa: float = 1e-12    # Newton/bisection stop, in x

    # resolution policy
    interp_residual: float = 1e-9     # midpoint residual that forces doubling
    max_nodes: int = 2 ** 16

    # tameness classification
    tameness_margin: float = 1e-3

    # rolling-up / spreading / conjugacy
    surgery_boundary: float = 1e-9    # |h(dJ) - dJ| before restriction surgery
    window_fix: float = 1e-9          # displacement jets on the fixed window
    tol_b: float = 1e-7               # translation test, deviation from mean
    overlap: float = 1e-7             # piecewise-assembly overlap agreement
    intertwine: float = 1e-7          # shift-intertwining residual
    word_cap: int = 100000            # max word length before refusal

    # flow integration
    ode_tol: float = 1e-12

    # fixed-point experiment
    fix_tol: float = 1e-6
    fix_max_iter: int = 200
    cert_tol: float = 1e-5

    def __post_init__(self):
        # a NaN threshold never passes or never fails its comparison, and
        # it would also make the instance unequal to itself as a cache key
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, int):
                if value < 1:
                    raise ValueError(
                        f"tolerance {f.name} must be at least 1, got {value!r}")
            elif not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance {f.name} must be finite and "
                                 f"non-negative, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    def with_overrides(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT_TOL = Tolerances()


def smallness_threshold(k: int) -> float:
    """Default smallness ball radius: 1e-3 for k <= 2, shrunk 10x per extra order."""
    if k <= 2:
        return 1e-3
    return 1e-3 * 10.0 ** (2 - k)


@dataclass(frozen=True)
class RunConfig:
    """Echoed into every CLI output file so runs are reproducible."""

    k: int = 2
    alpha_spec: str = "holder:0.5"
    A: int = 1
    seed: int = 0
    out_dir: str = "."
    tol: Tolerances = field(default_factory=Tolerances)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["tol"] = self.tol.to_dict()
        return d
