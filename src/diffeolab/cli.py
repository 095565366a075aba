"""Command-line entry point wiring all modules together.

Analysis subcommands write JSON or CSV reports, `verify` runs the cross-
module invariant battery, and `emit-plots` dumps the standard data
tables.  argparse binds one function to each leaf command; `main` builds
the run configuration from the flags and config file, echoes it, and
calls that function as fn(args, cfg).  Leaves write their reports
through `_report` (JSON) or `_write_csv` (tables), which put the files
under the output directory atomically and embed the run configuration.
Exit codes are: 0 all pass, 1 a verification failed, 2 usage, 3 a
numerical precondition refused the input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys

import numpy as np

from ._taylor import poly_jets
from .config import RunConfig, Tolerances
from .errors import ConstructionError, PreconditionError
from . import diffeo, fixpoint, flow, modulus, norms, reduction
from .jets import compose_derivs, invert_derivs

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

# top-level keys of a config file and the type of each value
_FILE_KEYS = {"k": int, "alpha": str, "A": int, "seed": int, "out": str,
              "tol": dict}
_TOL_TYPES = {f.name: type(f.default) for f in dataclasses.fields(Tolerances)}

# every option that takes a float: argparse reads a following "-1e-3" or
# "-inf" as an option string, not as the value, so main() joins such a pair
# into one token "--b=-inf" (tests/test_cli.py checks the list is complete)
_FLOAT_FLAGS = frozenset(
    ["--b", "--eps", "--fix-norm"]
    + [f"--tol-{name.replace('_', '-')}" for name, kind in _TOL_TYPES.items()
       if kind is float])


def parse_alpha(spec: str):
    """Parse a modulus spec: holder:S, omegaz:SIGMA,TAU, or file:PATH."""
    kind, _, rest = spec.partition(":")
    if kind == "holder":
        return modulus.holder(float(rest))
    if kind == "omegaz":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"omegaz wants two parameters, got {spec!r}")
        return modulus.log_refined_holder(float(parts[0]), float(parts[1]))
    if kind == "file":
        with open(rest, encoding="utf-8") as fh:
            return modulus.modulus_from_dict(json.load(fh))
    raise ValueError(f"unknown modulus spec {spec!r}")


def _write_json(path: str, payload: dict) -> None:
    fixpoint.write_atomic(path, json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")


def _report(cfg: RunConfig, name: str, payload: dict) -> str:
    """Write payload with the run configuration under `run_config` as the
    JSON report `name` in the output directory; returns its path."""
    path = os.path.join(cfg.out_dir, name)
    _write_json(path, {**payload, "run_config": cfg.to_dict()})
    return path


def _write_csv(cfg: RunConfig, name: str, columns: list[str],
               rows: list[list]) -> str:
    """Write the table `name` in the output directory, led by one
    `# key=value` line per run-configuration key; returns its path."""
    buf = io.StringIO()
    for key, val in sorted(cfg.to_dict().items()):
        buf.write(f"# {key}={val}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(rows)
    path = os.path.join(cfg.out_dir, name)
    fixpoint.write_atomic(path, buf.getvalue())
    return path


def _typed(key: str, value, kind: type):
    """A config-file value as the given type, or a ValueError naming the
    key: integers may be written as integral floats, floats as integers."""
    if not isinstance(value, bool):
        if kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if kind is float and isinstance(value, int):
            return float(value)
        if isinstance(value, kind):
            return value
    raise ValueError(f"config key {key!r} must be of type {kind.__name__}, "
                     f"got {value!r}")


def _make_run_config(args) -> RunConfig:
    """Merge CLI flags over config-file values over defaults; `perfect
    verify` then takes k, A and the modulus from its chain.  An unknown
    config-file key or a value of the wrong type is a ValueError."""
    file_cfg: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config}: the top level must "
                             f"be a JSON object")
        for key, value in loaded.items():
            if key not in _FILE_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            file_cfg[key] = _typed(key, value, _FILE_KEYS[key])

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return file_cfg.get(key, default)

    tol_kw = {}
    for name, value in file_cfg.get("tol", {}).items():
        if name not in _TOL_TYPES:
            raise ValueError(f"unknown config key 'tol.{name}'")
        tol_kw[name] = _typed(f"tol.{name}", value, _TOL_TYPES[name])
    for name in _TOL_TYPES:
        v = getattr(args, f"tol_{name}", None)
        if v is not None:
            tol_kw[name] = v
    tol = Tolerances(**tol_kw)
    A = pick(getattr(args, "A", None), "A", 1)
    if A < 1:
        raise ValueError(f"A must be at least 1, got {A}")

    run = RunConfig(
        k=pick(getattr(args, "k", None), "k", 2),
        alpha_spec=pick(getattr(args, "alpha", None), "alpha", "holder:0.5"),
        A=A,
        seed=pick(getattr(args, "seed", None), "seed", 0),
        out_dir=pick(getattr(args, "out", None), "out", "."),
        tol=tol,
    )
    if getattr(args, "chain", None) is not None:
        # the replay reads k, A and the modulus from the chain, never the
        # flags, so the echo shows the chain's
        run = dataclasses.replace(run, **_chain_statement(args.chain))
    return run


def _chain_statement(path: str) -> dict:
    """The k, A and modulus spec that the certificate chain at path
    states, as RunConfig fields.  A chain that states them in no readable
    form gives {}: verify_certificate refuses it."""
    chain = fixpoint.load_chain(path)
    try:
        cfgd = chain["config"]
        k, A, alpha = cfgd["k"], cfgd["A"], cfgd["alpha"]
        kind = alpha["kind"]
        if kind == "holder":
            spec = f"holder:{alpha['s']}"
        elif kind == "omegaz":
            spec = f"omegaz:{alpha['sigma']},{alpha['tau']}"
        else:
            spec = json.dumps(alpha, separators=(",", ":"))
    except (KeyError, TypeError):
        return {}
    return {"k": k, "A": A, "alpha_spec": spec}


def _common_parser() -> argparse.ArgumentParser:
    """The flags every leaf command takes, built once and passed to each
    leaf as a parent parser; the --tol-* flags stay out of --help."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--k", type=int, default=None, help="jet order")
    p.add_argument("--alpha", default=None,
                   help="modulus: holder:0.5 | omegaz:0.5,0.3 | file:PATH")
    p.add_argument("--A", type=int, default=None,
                   help="source half-width parameter")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None, help="JSON config file")
    for name, kind in _TOL_TYPES.items():
        p.add_argument(f"--tol-{name.replace('_', '-')}",
                       dest=f"tol_{name}", type=kind, default=None,
                       help=argparse.SUPPRESS)
    return p


def _join_float_values(argv: list[str]) -> list[str]:
    """argv with every float option that is followed by a float, such as
    "--b", "-inf", written as the one token "--b=-inf".  Tokens after "--"
    are left alone."""
    out: list[str] = []
    for i, tok in enumerate(argv):
        if tok == "--":
            return out + argv[i:]
        if out and out[-1] in _FLOAT_FLAGS and _reads_as_float(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _reads_as_float(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _echo_config(cfg: RunConfig) -> None:
    d = cfg.to_dict()
    keys = ("k", "alpha_spec", "A", "seed", "out_dir")
    print("config: " + " ".join(f"{k}={d[k]}" for k in keys))


def _mather_config(cfg: RunConfig) -> reduction.MatherConfig:
    """The norm-reduction geometry of the run's k, modulus and width."""
    return reduction.make_config(cfg.k, parse_alpha(cfg.alpha_spec), cfg.A)


# -- modulus ------------------------------------------------------------------

def _cmd_modulus(args, cfg: RunConfig) -> int:
    alpha = parse_alpha(cfg.alpha_spec)
    verdict = modulus.classify_tameness(alpha, tol=cfg.tol)
    laws = modulus.check_modulus_laws(alpha, 2.0, np.geomspace(1e-4, 1e2, 61),
                                      cfg.tol)
    conc = modulus.concavity_slack(alpha, modulus.default_abscissae())
    ok = laws.passed and conc >= -cfg.tol.concavity_rel
    path = _report(cfg, "modulus_verdict.json", {
        "alpha": cfg.alpha_spec,
        "tameness": verdict.to_dict(),
        "laws": laws.to_dict(),
        "concavity_slack": conc,
        "ok": ok,
    })
    print(f"modulus analyze: sup-tame={verdict.sup_tame.label()} "
          f"sub-tame={verdict.sub_tame.label()} laws={laws.passed} "
          f"-> {path}")
    return EXIT_OK if ok else EXIT_VERIFY


# -- diffeo -------------------------------------------------------------------

def _cmd_diffeo(args, cfg: RunConfig) -> int:
    f = diffeo.from_preset(args.preset, {"eps": args.eps, "k": cfg.k},
                           cfg.tol)
    fi = diffeo.inverse(f, cfg.tol)
    xs = diffeo.refined_grid(f, 4)
    inverse_residual = float(np.max(np.abs(fi(f(xs)) - xs)))
    d = diffeo.from_dict(diffeo.to_dict(f), cfg.tol)
    serialization_gap = float(np.max(np.abs(d(xs) - f(xs))))
    supp = diffeo.support_interval(f)
    ok = inverse_residual <= 1e-9 and serialization_gap == 0.0
    path = _report(cfg, "diffeo_check.json", {
        "preset": args.preset,
        "eps": args.eps,
        "inverse_residual": inverse_residual,
        "serialization_gap": serialization_gap,
        "support": None if supp is None else list(supp),
        "nodes": f.n,
        "ok": ok,
    })
    print(f"diffeo check: inverse_residual={inverse_residual:.3e} "
          f"serialization_gap={serialization_gap:.3e} ok={ok} -> {path}")
    return EXIT_OK if ok else EXIT_VERIFY


# -- norms --------------------------------------------------------------------

def _cmd_norms(args, cfg: RunConfig) -> int:
    alpha = parse_alpha(cfg.alpha_spec)
    f = diffeo.from_preset(args.preset, {"eps": args.eps, "k": cfg.k},
                           cfg.tol)
    report = norms.norm_report(f, alpha, k=cfg.k,
                               balls=(("C0", 1e-2), ("Ck", 1e-2),
                                      ("CkAlpha", 1e-2)))
    total = report.holder_dev[-1]
    path = _report(cfg, "norm_report.json", {
        "preset": args.preset,
        "eps": args.eps,
        "norm": total,
        "report": report.to_dict(),
    })
    print(f"norms measure: norm={total:.6e} -> {path}")
    return EXIT_OK


# -- flow ---------------------------------------------------------------------

def _flow_checks(A: int, k: int, b: float, samples: int, tol) -> dict:
    """Chart intertwining at time b and chart support-fixing on a bump
    inside the plateau, for the plateau field of width A."""
    field = flow.make_rho(A)
    chart = flow.trajectory_chart(field, k, tol=tol)
    resid = flow.verify_chart_conjugation(field, b, samples, k=k,
                                          chart=chart, tol=tol)
    radius = min(1.0, field.plateau / 2.0)
    u = diffeo.from_preset("smooth_bump_displacement",
                           {"eps": 1e-3, "radius": radius, "k": k}, tol)
    fix_resid = flow.verify_chart_fixes_support(field, u, samples,
                                                chart=chart, tol=tol)
    ok = resid <= tol.intertwine and fix_resid <= tol.intertwine
    return {"ok": bool(ok), "intertwining_residual": float(resid),
            "support_fix_residual": float(fix_resid)}


def _cmd_flow(args, cfg: RunConfig) -> int:
    checks = _flow_checks(cfg.A, cfg.k, args.b, args.samples, cfg.tol)
    path = _report(cfg, "flow_chart.json", {
        "b": args.b,
        "samples": args.samples,
        **checks,
    })
    print(f"flow chart: intertwining={checks['intertwining_residual']:.3e} "
          f"support-fix={checks['support_fix_residual']:.3e} "
          f"ok={checks['ok']} -> {path}")
    return EXIT_OK if checks["ok"] else EXIT_VERIFY


# -- mather -------------------------------------------------------------------

def _sweep_csv(cfg: RunConfig, sweep: str, name: str) -> tuple[str, int]:
    """The reduction sweep over the comma-separated widths, written as the
    CSV table `name`; returns its path and row count."""
    rows = reduction.reduction_sweep([int(s) for s in sweep.split(",")],
                                     cfg.k, parse_alpha(cfg.alpha_spec),
                                     tol=cfg.tol)
    cols = ["A", "norm_in", "norm_out", "plain_ratio",
            "rescale_factor", "ratio", "rolled_slope"]
    path = _write_csv(cfg, name, cols, [[r[c] for c in cols] for r in rows])
    return path, len(rows)


def _small_periodic(rng, k: int, eps: float) -> diffeo.Diffeo1:
    """Random two-harmonic periodic displacement of amplitude eps."""
    n = 257
    xs = np.linspace(0.0, 1.0, n)
    jets = np.zeros((n, k + 1))
    a1, a2 = rng.uniform(0.4, 1.0, 2)
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, 2)
    w = 2.0 * np.pi
    for j in range(k + 1):
        jets[:, j] = eps * (
            a1 * w ** j * np.sin(w * xs + p1 + j * np.pi / 2.0)
            + 0.25 * a2 * (2.0 * w) ** j
            * np.sin(2.0 * w * xs + p2 + j * np.pi / 2.0))
    return diffeo.Diffeo1("periodic", 0.0, 1.0, k, jets)


def _spread_roundtrip(rng, eps: float, mcfg, tol,
                      samples: int) -> tuple[float, diffeo.Diffeo1]:
    """Spread a random periodic map h of amplitude eps and roll it back
    up: the sup gap to h recentered to fix 0 over `samples` points of one
    period, returned with the spread map."""
    h = _small_periodic(rng, mcfg.k, eps)
    out = reduction.spread(h, mcfg, tol)
    back = reduction.roll_up(out, tol)
    target = diffeo.post_translate(h, -float(h(np.array(0.0))))
    xs = np.linspace(0.0, 1.0, samples)
    return float(np.max(np.abs(back(xs) - target(xs)))), out


def _roll_checks(eps: float, mcfg, shift: float,
                 tol) -> tuple[norms.SlackReport, float]:
    """The rolling-up word checks on the smooth bump of amplitude eps: the
    word norm check and the equivariance residual at the given shift."""
    g = diffeo.from_preset("smooth_bump_displacement",
                           {"eps": eps, "k": mcfg.k}, tol)
    return (reduction.roll_norm_check(g, mcfg, tol),
            reduction.roll_equivariance_residual(g, shift, tol))


def _cmd_mather_psi(args, cfg: RunConfig) -> int:
    path, n_rows = _sweep_csv(cfg, args.sweep, "psi_sweep.csv")
    print(f"mather psi: {n_rows} rows -> {path}")
    return EXIT_OK


def _cmd_mather_gamma(args, cfg: RunConfig) -> int:
    check, equi = _roll_checks(args.eps, _mather_config(cfg), 0.37, cfg.tol)
    ok = check.ok and equi <= 1e-9
    path = _report(cfg, "gamma_report.json", {
        "eps": args.eps,
        "word_norm_check": check.to_dict(),
        "equivariance_residual": equi,
        "ok": ok,
    })
    print(f"mather gamma: equivariance={equi:.3e} ok={ok} -> {path}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_mather_omega(args, cfg: RunConfig) -> int:
    resid, out = _spread_roundtrip(np.random.default_rng(cfg.seed),
                                   args.eps, _mather_config(cfg), cfg.tol,
                                   2049)
    supp = diffeo.support_interval(out)
    ok = resid <= 1e-6
    path = _report(cfg, "omega_report.json", {
        "eps": args.eps,
        "roundtrip_c0": resid,
        "spread_support": None if supp is None else list(supp),
        "ok": ok,
    })
    print(f"mather omega: roundtrip={resid:.3e} ok={ok} -> {path}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_mather_lambda(args, cfg: RunConfig) -> int:
    mcfg, tol = _mather_config(cfg), cfg.tol
    # the ball radius shrinks tenfold per order above 2, so no one default
    # amplitude serves every k
    eps = reduction.half_ball_eps(mcfg) if args.eps is None else args.eps
    g = reduction.sweep_profile(mcfg.A, mcfg.k, eps)
    res = reduction.reduce_norm(g, mcfg, tol)
    cert = reduction.conjugator(g, res.map, mcfg, tol)
    residual = fixpoint.identity_residual("flow-conjugacy", {
        "conjugated": g, "reduced": res.map, "witness": cert.lam,
        "flow_time_one": cert.tau}, mcfg)
    ok = residual <= tol.cert_tol
    path = _report(cfg, "lambda_report.json", {
        "eps": eps,
        "residual": residual,
        "word_length": cert.word_length,
        "translation": cert.b,
        "witness_support": list(diffeo.support_interval(cert.lam) or ()),
        "reduction": res.to_dict(),
        "ok": ok,
    })
    print(f"mather lambda: residual={residual:.3e} ok={ok} -> {path}")
    return EXIT_OK if ok else EXIT_VERIFY


# -- perfect ------------------------------------------------------------------

def _cmd_perfect_verify(args, cfg: RunConfig) -> int:
    report = fixpoint.verify_certificate(fixpoint.load_chain(args.chain),
                                         cfg.tol)
    if args.report:
        _write_json(args.report, report)
        print(f"perfect verify: ok={report['ok']} -> {args.report}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
        print(f"perfect verify: ok={report['ok']}")
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def _cmd_perfect_fixpoint(args, cfg: RunConfig) -> int:
    with open(args.infile, encoding="utf-8") as fh:
        f = diffeo.from_dict(json.load(fh), cfg.tol)
    res = fixpoint.fixed_point_search(f, _mather_config(cfg), tol=cfg.tol)
    if res.converged:
        fixpoint.write_chain(args.outfile, res.chain)
        print(f"perfect fixpoint: converged at iteration {res.iterations}, "
              f"residual {res.residual:.3e} -> {args.outfile}")
        return EXIT_OK
    # the trace takes the chain's place at --out-chain, not under out_dir
    _write_json(args.outfile, {
        "format": "fixpoint-trace",
        "version": 1,
        "outcome": "no-convergence",
        "run_config": cfg.to_dict(),
        "iterations": res.iterations,
        "residual": res.residual,
        "trace": res.trace,
    })
    print(f"perfect fixpoint: no convergence after {res.iterations} "
          f"iterations (residual {res.residual:.3e}) -> {args.outfile}")
    return EXIT_OK


# -- verify battery -----------------------------------------------------------

def _suite_jets(rng, tol) -> dict:
    """Chain rule against polynomial composition, and inverse jets against
    the identity, on 60 random trials each.  The trials are drawn one by
    one, then the trials of each order k are checked as one batch."""
    comp_trials: dict[int, list] = {}
    for _ in range(60):
        k = int(rng.integers(2, 7))
        cf = rng.uniform(-1.0, 1.0, k + 1)
        cg = rng.uniform(-1.0, 1.0, k + 1)
        x0 = float(rng.uniform(-0.5, 0.5))
        comp_trials.setdefault(k, []).append((cf, cg, x0))
    inv_trials: dict[int, list] = {}
    for _ in range(60):
        k = int(rng.integers(2, 7))
        d = rng.uniform(-0.5, 0.5, k + 1)
        d[1] = float(rng.uniform(0.8, 1.5))
        inv_trials.setdefault(k, []).append(d)
    worst = 0.0
    for k, trials in comp_trials.items():
        cf, cg, x0 = (np.array(v) for v in zip(*trials))
        gx = np.polynomial.polynomial.polyval(x0, cg.T, tensor=False)
        comp = compose_derivs(poly_jets(cf, gx, k), poly_jets(cg, x0, k))
        # the oracle composes coefficients trial by trial, with numpy's own
        # products; f o g has degree k*k
        cc = np.zeros((len(trials), k * k + 1))
        for row, (f, g, _) in zip(cc, trials):
            c = np.zeros(1)
            for a in reversed(f):
                c = np.polynomial.polynomial.polymul(c, g)
                c[0] += a
            row[:c.shape[0]] = c
        oracle = poly_jets(cc, x0, k)
        scale = np.maximum(1.0, np.max(np.abs(oracle), axis=1))
        worst = max(worst, float(np.max(
            np.max(np.abs(comp - oracle), axis=1) / scale)))
    for trials in inv_trials.values():
        d = np.array(trials)
        back = compose_derivs(invert_derivs(d, 0.0), d)
        back[:, 1] -= 1.0
        worst = max(worst, float(np.max(np.abs(back))))
    return {"ok": worst <= 1e-9, "worst_rel_error": worst}


def _oscillation_profile(rng) -> tuple[np.ndarray, np.ndarray]:
    """Oscillation modulus (ts, mus) of a random increasing profile
    sampled at 161 points of [0, 4]."""
    xs = np.linspace(0.0, 4.0, 161)
    fs = np.cumsum(np.abs(rng.normal(0.0, 0.1, 161)))
    return modulus.oscillation_modulus(xs, fs)


def _tameness_rows() -> list[list[float]]:
    """Rows (s, t, sup F, sup G) of the tameness functionals of holder(s),
    one pass per (s, side) over the column of 33 t values."""
    ts = np.geomspace(1e-4, 0.9, 33)
    xg = modulus.default_abscissae()
    rows = []
    for s in (0.25, 0.5, 0.75):
        a = modulus.holder(s)
        sup, sub = (np.max(modulus.tameness_functional(a, ts[:, None], xg,
                                                       side), axis=1)
                    for side in ("sup", "sub"))
        rows += [[s, float(t), float(f), float(g)]
                 for t, f, g in zip(ts, sup, sub)]
    return rows


def _suite_modulus(rng, tol) -> dict:
    sandwich_min = np.inf
    for _ in range(8):
        ts, mus = _oscillation_profile(rng)
        if len(ts) < 3:
            continue
        beta0, _ = modulus.least_concave_majorant(ts, mus)
        lo, hi = modulus.lcm_sandwich_slack(ts, mus, beta0)
        sandwich_min = min(sandwich_min, lo, hi)
    law_pass = True
    conc_min = np.inf
    grid = np.geomspace(1e-4, 1e2, 61)
    for a in (modulus.holder(0.25), modulus.holder(0.5),
              modulus.log_refined_holder(0.5, 0.3)):
        for C in (0.3, 2.0, 7.0):
            law_pass &= modulus.check_modulus_laws(a, C, grid, tol).passed
        conc_min = min(conc_min,
                       modulus.concavity_slack(a,
                                               modulus.default_abscissae()))
    ok = (sandwich_min >= -1e-12 and law_pass
          and conc_min >= -tol.concavity_rel)
    return {"ok": bool(ok), "sandwich_slack_min": float(sandwich_min),
            "laws_pass": bool(law_pass), "concavity_min": float(conc_min)}


def _suite_diffeo(rng, tol) -> dict:
    worst_round = 0.0
    worst_comp = 0.0
    worst_ser = 0.0
    for _ in range(4):
        eps = float(rng.uniform(1e-4, 1e-3))
        f = diffeo.from_preset("smooth_bump_displacement",
                               {"eps": eps, "k": 2}, tol)
        g = diffeo.from_preset("smooth_bump_displacement",
                               {"eps": eps / 2.0, "radius": 1.3, "k": 2},
                               tol)
        fi = diffeo.inverse(f, tol)
        xs = np.linspace(-1.4, 1.4, 1001)
        worst_round = max(worst_round,
                          float(np.max(np.abs(fi(f(xs)) - xs))))
        fg = diffeo.compose(f, g, tol)
        worst_comp = max(worst_comp,
                         float(np.max(np.abs(fg(xs) - f(g(xs))))))
        d = diffeo.from_dict(diffeo.to_dict(f), tol)
        worst_ser = max(worst_ser, float(np.max(np.abs(d(xs) - f(xs)))))
    ok = worst_round <= 1e-9 and worst_comp <= 1e-7 and worst_ser == 0.0
    return {"ok": bool(ok), "inverse_residual": worst_round,
            "composition_residual": worst_comp,
            "serialization_gap": worst_ser}


def _suite_norms(rng, tol) -> dict:
    alpha = modulus.holder(0.5)
    f = diffeo.from_preset("smooth_bump_displacement",
                           {"eps": 1e-3, "k": 2}, tol)
    g = diffeo.from_preset("smooth_bump_displacement",
                           {"eps": 5e-4, "radius": 1.2, "k": 2}, tol)
    reports = [norms.verify_domination(f, g, i, alpha)
               for i in range(2)]
    reports.append(norms.verify_derivation(f, g, alpha))
    reports.append(norms.verify_subadditivity([f, g], alpha))
    reports.append(norms.verify_lip_met(f, alpha))
    slack_min = {r.name: min(r.slacks.values()) for r in reports}
    ok = all(v >= 0.0 for v in slack_min.values())
    return {"ok": bool(ok), "slack_min": slack_min}


def _suite_flow(rng, tol) -> dict:
    return _flow_checks(1, 2, 0.6, 33, tol)


def _suite_mather(rng, tol) -> dict:
    k = 2
    alpha = modulus.holder(0.5)
    mcfg = reduction.make_config(k, alpha, 1)
    xs = np.linspace(0.0, 1.0, 1025)
    ident = reduction.roll_up(diffeo.identity(k, -0.5, 0.5), tol)
    gamma_id = float(np.max(np.abs(ident(xs) - xs)))
    word, equi = _roll_checks(1e-5, mcfg, 0.21, tol)
    roundtrip, _ = _spread_roundtrip(rng, 2e-5, mcfg, tol, len(xs))
    ok = (gamma_id == 0.0 and equi <= 1e-9 and word.ok
          and roundtrip <= 1e-6)
    return {"ok": bool(ok), "roll_identity": gamma_id,
            "equivariance": float(equi),
            "word_norm_ok": bool(word.ok),
            "spread_roundtrip_c0": float(roundtrip)}


_SUITES = {
    "jets": _suite_jets,
    "modulus": _suite_modulus,
    "diffeo": _suite_diffeo,
    "norms": _suite_norms,
    "flow": _suite_flow,
    "mather": _suite_mather,
}


def _cmd_verify(args, cfg: RunConfig) -> int:
    names = list(_SUITES) if args.suite == "all" else args.suite.split(",")
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
    results = {}
    for idx, name in enumerate(names):
        rng = np.random.default_rng([cfg.seed, idx])
        results[name] = _SUITES[name](rng, cfg.tol)
        print(f"  {name}: {'pass' if results[name]['ok'] else 'FAIL'}")
    ok = all(r["ok"] for r in results.values())
    path = _report(cfg, "verify_report.json", {"ok": ok, "suites": results})
    print(f"verify: {'all pass' if ok else 'FAILURES'} -> {path}")
    return EXIT_OK if ok else EXIT_VERIFY


# -- emit-plots ----------------------------------------------------------------

def _cmd_emit_plots(args, cfg: RunConfig) -> int:
    tables = args.tables.split(",")
    known = {"sweep", "tameness", "lcm", "traces"}
    unknown = set(tables) - known
    if unknown:
        raise ValueError(f"unknown tables {sorted(unknown)}")
    written = []

    # first, so that a refused search leaves no table behind
    if "traces" in tables:
        mcfg = _mather_config(cfg)
        f = fixpoint.calibrated_bump(args.fix_norm, mcfg.alpha, k=cfg.k,
                                     tol=cfg.tol)
        res = fixpoint.fixed_point_search(f, mcfg, tol=cfg.tol)
        cols = ["iteration", "residual", "norm_composed", "norm_conjugated",
                "norm_reduced", "rolled_slope"]
        written.append(_write_csv(cfg, "residual_traces.csv", cols,
                                  [[t[c] for c in cols] for t in res.trace]))

    if "sweep" in tables:
        written.append(_sweep_csv(cfg, args.sweep,
                                  "norm_reduction_sweep.csv")[0])

    if "tameness" in tables:
        written.append(_write_csv(cfg, "tameness_functionals.csv",
                                  ["s", "t", "F_sup", "G_sub"],
                                  _tameness_rows()))

    if "lcm" in tables:
        ts, mus = _oscillation_profile(np.random.default_rng(cfg.seed))
        beta0, _ = modulus.least_concave_majorant(ts, mus)
        vals = beta0(ts)
        rows = [[float(t), float(m), float(v), float(2.0 * m)]
                for t, m, v in zip(ts, mus, vals)]
        written.append(_write_csv(cfg, "lcm_sandwich.csv",
                                  ["t", "mu", "beta0", "two_mu"], rows))

    for p in written:
        print(f"emit-plots: wrote {p}")
    return EXIT_OK


# -- argument wiring ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diffeolab",
        description="Numerical workbench for norm reduction on the "
                    "diffeomorphism group of the line.")
    sub = ap.add_subparsers(dest="command", required=True)
    common = [_common_parser()]

    p = sub.add_parser("modulus", help="analyze a concave modulus")
    ps = p.add_subparsers(dest="op", required=True)
    pa = ps.add_parser("analyze", parents=common,
                       help="tameness verdict and law checks")
    pa.set_defaults(fn=_cmd_modulus)

    p = sub.add_parser("diffeo", help="interpolation model checks")
    ps = p.add_subparsers(dest="op", required=True)
    pc = ps.add_parser("check", parents=common,
                       help="inverse and serialization residuals")
    pc.add_argument("--preset", default="smooth_bump_displacement")
    pc.add_argument("--eps", type=float, default=1e-3)
    pc.set_defaults(fn=_cmd_diffeo)

    p = sub.add_parser("norms", help="norm and seminorm measurement")
    ps = p.add_subparsers(dest="op", required=True)
    pm = ps.add_parser("measure", parents=common,
                       help="full norm report for a preset")
    pm.add_argument("--preset", default="smooth_bump_displacement")
    pm.add_argument("--eps", type=float, default=1e-3)
    pm.set_defaults(fn=_cmd_norms)

    p = sub.add_parser("flow", help="plateau-field flow checks")
    ps = p.add_subparsers(dest="op", required=True)
    pf = ps.add_parser("chart", parents=common,
                       help="trajectory-chart conjugation residuals")
    pf.add_argument("--b", type=float, default=0.6)
    pf.add_argument("--samples", type=int, default=33)
    pf.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("mather", help="rolling up, spreading, reduction")
    ps = p.add_subparsers(dest="op", required=True)
    for op, eps_default, blurb, fn in (
            ("gamma", 1e-5, "rolling-up word checks", _cmd_mather_gamma),
            ("omega", 3e-5, "spreading round trip", _cmd_mather_omega),
            ("lambda", None, "conjugacy witness for one reduction",
             _cmd_mather_lambda)):
        po = ps.add_parser(op, parents=common, help=blurb)
        po.add_argument("--eps", type=float, default=eps_default)
        po.set_defaults(fn=fn)
    pp = ps.add_parser("psi", parents=common,
                       help="norm-reduction ratio sweep")
    pp.add_argument("--sweep", default="1,2,4,8",
                    help="comma-separated width parameters")
    pp.set_defaults(fn=_cmd_mather_psi)

    p = sub.add_parser("perfect", help="fixed-point experiment")
    ps = p.add_subparsers(dest="op", required=True)
    pf = ps.add_parser("fixpoint", parents=common,
                       help="run the iteration, emit a chain")
    pf.add_argument("--in", dest="infile", required=True,
                    help="JSON file describing the input map")
    pf.add_argument("--out-chain", dest="outfile", default="chain.json")
    pf.set_defaults(fn=_cmd_perfect_fixpoint)
    pv = ps.add_parser("verify", parents=common,
                       help="replay a certificate chain")
    pv.add_argument("chain")
    pv.add_argument("--report", default=None)
    pv.set_defaults(fn=_cmd_perfect_verify)

    p = sub.add_parser("verify", parents=common,
                       help="cross-module invariant battery")
    p.add_argument("--suite", default="all",
                   help="all or comma-separated: " + ",".join(_SUITES))
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("emit-plots", parents=common,
                       help="write the standard data tables")
    p.add_argument("--tables", default="sweep,tameness,lcm",
                   help="comma-separated: sweep, tameness, lcm, traces "
                        "(traces needs --A 2 or more)")
    p.add_argument("--sweep", default="1,2,4,8")
    p.add_argument("--fix-norm", type=float, default=1e-3)
    p.set_defaults(fn=_cmd_emit_plots)

    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parsing leaves a parser as
    it was, and one process may call main() many times."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_join_float_values(argv))
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        cfg = _make_run_config(args)
        _echo_config(cfg)
        return args.fn(args, cfg)
    except (PreconditionError, ConstructionError) as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
