"""Command-line surface: exit codes, reports, reproducibility, precedence.

Each command is driven in-process through main(argv).  Exit codes are
part of the contract: 0 success, 1 failed verification, 2 usage errors,
3 refused preconditions.
"""

import argparse
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import diffeolab
from diffeolab import Tolerances, calibrated_bump, holder, to_dict
from diffeolab.cli import (EXIT_OK, EXIT_REFUSED, EXIT_USAGE, EXIT_VERIFY,
                           build_parser, main)
from diffeolab import cli, modulus
from _helpers import (classify_side_per_t, map_jets, oscillation_per_stride,
                      put_map_jets, raise_map_order, suite_jets_per_trial,
                      tameness_rows_per_t)


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return comments, header, rows


# -- exit codes --------------------------------------------------------------------

def test_exit_codes_are_distinct(tmp_path):
    codes = {EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_REFUSED}
    assert codes == {0, 1, 2, 3}
    out = str(tmp_path)
    assert run("modulus", "analyze", "--alpha", "holder:0.5",
               "--out", out) == EXIT_OK
    assert run("nonsense-command") == EXIT_USAGE
    assert run("modulus", "analyze", "--alpha", "weird:1") == EXIT_USAGE
    # an oversized displacement must be refused, not reported as failure
    assert run("mather", "lambda", "--eps", "0.3",
               "--out", out) == EXIT_REFUSED


def test_help_exits_cleanly(capsys):
    assert run("--help") == EXIT_OK
    assert "diffeolab" in capsys.readouterr().out


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_parsers(child, path + (name,))


def test_every_leaf_command_takes_the_common_flags():
    want = {"--k": ("k", int), "--alpha": ("alpha", None),
            "--A": ("A", int), "--seed": ("seed", int),
            "--out": ("out", None), "--config": ("config", None)}
    for f in dataclasses.fields(Tolerances):
        want[f"--tol-{f.name.replace('_', '-')}"] = (f"tol_{f.name}",
                                                    type(f.default))
    required = {("perfect", "fixpoint"): ["--in", "f.json"],
                ("perfect", "verify"): ["chain.json"]}
    common = ["--k", "3", "--alpha", "holder:0.4", "--A", "2", "--seed", "5",
              "--out", "o", "--config", "c.json", "--tol-word-cap", "9"]
    leaves = list(_leaf_parsers(build_parser()))
    assert len(leaves) == 12
    for path, leaf in leaves:
        got = {o: (a.dest, a.type) for a in leaf._actions
               for o in a.option_strings if o in want}
        assert got == want, path
        assert "--tol" not in leaf.format_help(), path
        ns = build_parser().parse_args(
            list(path) + required.get(path, []) + common)
        assert (ns.k, ns.alpha, ns.A, ns.seed, ns.out, ns.config,
                ns.tol_word_cap) == (3, "holder:0.4", 2, 5, "o", "c.json",
                                     9), path


def test_every_float_option_is_joined_to_a_negative_value():
    parser = build_parser()
    floats = {o: a.dest for _, leaf in _leaf_parsers(parser)
              for a in leaf._actions if a.type is float
              for o in a.option_strings}
    assert set(floats) == cli._FLOAT_FLAGS
    assert {"--b", "--eps", "--fix-norm"} <= set(floats)
    for path, leaf in _leaf_parsers(parser):
        required = {("perfect", "fixpoint"): ["--in", "f.json"],
                    ("perfect", "verify"): ["chain.json"]}.get(path, [])
        for flag in (o for a in leaf._actions if a.type is float
                     for o in a.option_strings):
            for value in ("-1e-3", "-inf", "-2", "0.25"):
                argv = list(path) + required + [flag, value, "--k", "2"]
                ns = parser.parse_args(cli._join_float_values(argv))
                assert getattr(ns, floats[flag]) == float(value), (path, flag)
                assert ns.k == 2
    # a value that is not a float, or a token after "--", stays apart
    assert cli._join_float_values(["--b", "--k", "2"]) == ["--b", "--k", "2"]
    assert cli._join_float_values(["--b", "x"]) == ["--b", "x"]
    assert cli._join_float_values(["--", "--b", "-1"]) == ["--", "--b", "-1"]
    assert cli._join_float_values(["--k", "-1"]) == ["--k", "-1"]


@pytest.mark.parametrize("b", ["-inf", "-nan"])
def test_a_negative_non_finite_time_is_refused_in_both_spellings(
        tmp_path, capsys, b):
    for argv in (["--b", b], [f"--b={b}"]):
        assert run("flow", "chart", *argv, "--out", str(tmp_path)) \
            == EXIT_USAGE
        assert "flow time must be finite" in capsys.readouterr().err
    assert not (tmp_path / "flow_chart.json").exists()


def test_a_negative_time_reads_the_same_in_both_spellings(tmp_path):
    reports = []
    for argv in (["--b", "-1e-3"], ["--b=-1e-3"]):
        assert run("flow", "chart", *argv, "--samples", "9",
                   "--out", str(tmp_path)) == EXIT_OK
        reports.append((tmp_path / "flow_chart.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["b"] == -1e-3


def test_main_reuses_one_parser_and_parses_as_a_fresh_one(tmp_path,
                                                          monkeypatch):
    assert cli._parser() is cli._parser()
    out = str(tmp_path)
    calls = [
        (["modulus", "analyze", "--alpha", "holder:0.3"],
         "modulus_verdict.json"),
        (["modulus", "analyze"], "modulus_verdict.json"),
        (["flow", "chart", "--b", "-0.25", "--samples", "9", "--k", "3"],
         "flow_chart.json"),
        (["flow", "chart", "--samples", "9"], "flow_chart.json"),
        (["diffeo", "check", "--eps", "2e-3", "--seed", "4"],
         "diffeo_check.json"),
        (["diffeo", "check"], "diffeo_check.json"),
        (["norms", "measure", "--k", "3", "--tol-word-cap", "7"],
         "norm_report.json"),
        (["norms", "measure"], "norm_report.json"),
    ]

    def outputs():
        got = []
        for argv, name in calls:
            assert run(*argv, "--out", out) == EXIT_OK, argv
            got.append((tmp_path / name).read_bytes())
        return got

    cached = outputs()
    # the verdict records the modulus it analyzed as its run configuration
    verdict = json.loads(cached[0])
    assert verdict["alpha"] == verdict["run_config"]["alpha_spec"]
    assert verdict["alpha"] == "holder:0.3"
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert outputs() == cached


# -- analysis commands ----------------------------------------------------------------

def test_modulus_analyze_writes_verdict(tmp_path):
    out = str(tmp_path)
    assert run("modulus", "analyze", "--alpha", "holder:0.5",
               "--out", out) == EXIT_OK
    verdict = read_json(tmp_path / "modulus_verdict.json")
    assert verdict["tameness"]["sup_tame"]["verdict"] == "Yes"
    assert verdict["tameness"]["sub_tame"]["verdict"] == "Yes"
    assert verdict["laws"]["passed"] is True
    assert "run_config" in verdict


# each run sets a width, a seed and a tolerance off their defaults, so a
# report that echoed a default configuration would not match
_ECHO_FLAGS = ["--A", "2", "--seed", "5", "--tol-fix-max-iter", "17"]


def _run_config(out) -> dict:
    return diffeolab.RunConfig(A=2, seed=5, out_dir=out,
                               tol=Tolerances(fix_max_iter=17)).to_dict()


@pytest.mark.parametrize("argv,name", [
    (["modulus", "analyze"], "modulus_verdict.json"),
    (["diffeo", "check"], "diffeo_check.json"),
    (["norms", "measure"], "norm_report.json"),
    (["flow", "chart", "--samples", "9"], "flow_chart.json"),
    (["mather", "gamma"], "gamma_report.json"),
    (["mather", "omega"], "omega_report.json"),
    (["mather", "lambda"], "lambda_report.json"),
    (["verify", "--suite", "jets,modulus"], "verify_report.json"),
])
def test_every_json_report_carries_the_run_config(tmp_path, argv, name):
    out = str(tmp_path)
    assert run(*argv, *_ECHO_FLAGS, "--out", out) == EXIT_OK
    assert read_json(tmp_path / name)["run_config"] == _run_config(out)


@pytest.mark.parametrize("argv,name", [
    (["mather", "psi", "--sweep", "1"], "psi_sweep.csv"),
    (["emit-plots", "--tables", "sweep", "--sweep", "1"],
     "norm_reduction_sweep.csv"),
    (["emit-plots", "--tables", "tameness"], "tameness_functionals.csv"),
    (["emit-plots", "--tables", "lcm"], "lcm_sandwich.csv"),
    (["emit-plots", "--tables", "traces", "--fix-norm", "5e-4"],
     "residual_traces.csv"),
])
def test_every_table_opens_with_the_run_config(tmp_path, argv, name):
    out = str(tmp_path)
    assert run(*argv, *_ECHO_FLAGS, "--out", out) == EXIT_OK
    want = [f"# {key}={val}" for key, val in sorted(_run_config(out).items())]
    lines = (tmp_path / name).read_text().splitlines()
    assert lines[:len(want)] == want
    assert not lines[len(want)].startswith("#")


def test_diffeo_check_round_trip(tmp_path):
    out = str(tmp_path)
    assert run("diffeo", "check", "--preset", "smooth_bump_displacement",
               "--eps", "1e-3", "--out", out) == EXIT_OK
    report = read_json(tmp_path / "diffeo_check.json")
    assert report["inverse_residual"] <= 1e-9
    assert report["serialization_gap"] == 0.0


def test_norms_measure_report(tmp_path):
    out = str(tmp_path)
    assert run("norms", "measure", "--preset", "smooth_bump_displacement",
               "--eps", "1e-3", "--out", out) == EXIT_OK
    report = read_json(tmp_path / "norm_report.json")
    assert report["report"]["sup_dev"][0] == pytest.approx(1e-3, rel=1e-6)


def test_flow_chart_residuals(tmp_path):
    out = str(tmp_path)
    assert run("flow", "chart", "--b", "0.5", "--samples", "101",
               "--out", out) == EXIT_OK
    report = read_json(tmp_path / "flow_chart.json")
    assert report["intertwining_residual"] <= 1e-7
    assert report["support_fix_residual"] <= 1e-7


def test_mather_gamma_and_omega(tmp_path):
    out = str(tmp_path)
    assert run("mather", "gamma", "--out", out) == EXIT_OK
    gamma = read_json(tmp_path / "gamma_report.json")
    assert gamma["equivariance_residual"] <= 1e-9
    assert run("mather", "omega", "--out", out) == EXIT_OK
    omega = read_json(tmp_path / "omega_report.json")
    assert omega["roundtrip_c0"] <= 1e-6


def test_mather_lambda_certificate(tmp_path):
    out = str(tmp_path)
    assert run("mather", "lambda", "--out", out) == EXIT_OK
    report = read_json(tmp_path / "lambda_report.json")
    assert report["residual"] <= 1e-5
    assert report["ok"] is True


@pytest.mark.parametrize("k", [2, 3])
def test_mather_lambda_sizes_its_default_amplitude_to_the_ball(tmp_path, k):
    # the ball radius shrinks tenfold per order above 2: one default
    # amplitude for every k refused every k = 3 run
    out = str(tmp_path)
    assert run("mather", "lambda", "--k", str(k), "--A", "4",
               "--out", out) == EXIT_OK
    report = read_json(tmp_path / "lambda_report.json")
    radius = diffeolab.smallness_threshold(k)
    assert report["reduction"]["norm_in"] == pytest.approx(0.5 * radius,
                                                           rel=1e-9)
    assert report["ok"] is True
    # an explicit amplitude is used as given
    assert run("mather", "lambda", "--k", str(k), "--A", "4",
               "--eps", "2e-8", "--out", out) == EXIT_OK
    assert read_json(tmp_path / "lambda_report.json")["eps"] == 2e-8


def test_psi_sweep_table(tmp_path):
    out = str(tmp_path)
    assert run("mather", "psi", "--sweep", "1,2,4,8", "--out", out) == EXIT_OK
    comments, header, rows = read_csv(tmp_path / "psi_sweep.csv")
    assert header == ["A", "norm_in", "norm_out", "plain_ratio",
                      "rescale_factor", "ratio", "rolled_slope"]
    assert [r[0] for r in rows] == ["1", "2", "4", "8"]
    ratios = [float(r[5]) for r in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert any(c.startswith("# seed=") for c in comments)


def test_both_sweep_commands_write_the_same_table(tmp_path):
    out = str(tmp_path)
    assert run("mather", "psi", "--sweep", "1,2", "--out", out) == EXIT_OK
    assert run("emit-plots", "--tables", "sweep", "--sweep", "1,2",
               "--out", out) == EXIT_OK
    _, header, rows = read_csv(tmp_path / "psi_sweep.csv")
    _, header2, rows2 = read_csv(tmp_path / "norm_reduction_sweep.csv")
    assert header2 == header
    assert rows2 == rows
    assert [r[0] for r in rows] == ["1", "2"]


def test_psi_sweep_runs_at_k3(tmp_path):
    # each row is sized to half the ball radius; the old fixed amplitude
    # put the k = 3 input at 62 times it
    out = str(tmp_path)
    assert run("mather", "psi", "--k", "3", "--sweep", "1,2",
               "--out", out) == EXIT_OK
    _, _, rows = read_csv(tmp_path / "psi_sweep.csv")
    assert [r[0] for r in rows] == ["1", "2"]
    for r in rows:
        assert float(r[1]) == pytest.approx(
            0.5 * diffeolab.smallness_threshold(3), rel=1e-6)


# -- the verification battery -----------------------------------------------------------

def test_verify_battery_is_deterministic(tmp_path):
    out = str(tmp_path)
    assert run("verify", "--suite", "all", "--seed", "7",
               "--out", out) == EXIT_OK
    first = (tmp_path / "verify_report.json").read_bytes()
    assert run("verify", "--suite", "all", "--seed", "7",
               "--out", out) == EXIT_OK
    second = (tmp_path / "verify_report.json").read_bytes()
    assert first == second
    report = json.loads(first)
    assert report["ok"] is True
    assert all(s["ok"] for s in report["suites"].values())


def test_jets_suite_is_the_per_trial_loop():
    tol = Tolerances()
    for seed in range(20):
        got = cli._suite_jets(np.random.default_rng([seed, 0]), tol)
        assert got == suite_jets_per_trial(np.random.default_rng([seed, 0]),
                                           tol)


def _battery_outputs(out):
    """The bytes each battery command writes into out, with out itself
    masked out of the recorded run configuration."""
    beta0, _ = diffeolab.least_concave_majorant(
        *cli._oscillation_profile(np.random.default_rng(5)))
    spec = out / "beta0.json"
    spec.write_text(json.dumps(beta0.to_dict()))
    runs = [(["verify", "--seed", str(s)], ["verify_report.json"])
            for s in (0, 7, 123)]
    runs += [(["modulus", "analyze", "--alpha", a], ["modulus_verdict.json"])
             for a in ("holder:0.5", "omegaz:0.5,0.3", f"file:{spec}")]
    runs.append((["emit-plots", "--tables", "lcm,tameness", "--seed", "3"],
                 ["lcm_sandwich.csv", "tameness_functionals.csv"]))
    written = []
    for argv, names in runs:
        assert run(*argv, "--out", str(out)) == EXIT_OK
        written += [(out / n).read_bytes().replace(str(out).encode(), b"OUT")
                    for n in names]
    return written


def test_battery_outputs_are_those_of_the_loop_references(tmp_path,
                                                          monkeypatch):
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    got = _battery_outputs(tmp_path / "new")
    monkeypatch.setitem(cli._SUITES, "jets", suite_jets_per_trial)
    monkeypatch.setattr(modulus, "oscillation_modulus",
                        oscillation_per_stride)
    monkeypatch.setattr(modulus, "_classify_side", classify_side_per_t)
    monkeypatch.setattr(cli, "_tameness_rows", tameness_rows_per_t)
    assert _battery_outputs(tmp_path / "ref") == got


def test_verify_rejects_unknown_suite(tmp_path):
    assert run("verify", "--suite", "nosuch",
               "--out", str(tmp_path)) == EXIT_USAGE


# -- the fixed-point pipeline ------------------------------------------------------------

def test_fixpoint_round_trip_and_tamper(tmp_path):
    out = str(tmp_path)
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(to_dict(calibrated_bump(1e-3, holder(0.5)))))
    chain_path = tmp_path / "chain.json"
    assert run("perfect", "fixpoint", "--in", str(fin), "--A", "4",
               "--out-chain", str(chain_path), "--out", out) == EXIT_OK
    assert run("perfect", "verify", str(chain_path), "--report",
               str(tmp_path / "vr.json"), "--out", out) == EXIT_OK
    assert read_json(tmp_path / "vr.json")["ok"] is True

    chain = read_json(chain_path)
    jets = map_jets(chain["maps"]["witness"])
    jets[40][0] += 1e-3
    put_map_jets(chain["maps"]["witness"], jets)
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(chain))
    assert run("perfect", "verify", str(bad_path), "--out", out) == EXIT_VERIFY


@pytest.mark.parametrize("name", ["reduced", "u0"])
def test_perfect_verify_reports_a_map_at_another_order(tmp_path, capsys,
                                                       name):
    # a chain map stored at k + 1 fails the config item, exit 1, whichever
    # identity reads it
    out = str(tmp_path)
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(to_dict(calibrated_bump(1e-3, holder(0.5)))))
    chain_path = tmp_path / "chain.json"
    assert run("perfect", "fixpoint", "--in", str(fin), "--A", "4",
               "--out-chain", str(chain_path), "--out", out) == EXIT_OK
    chain = read_json(chain_path)
    raise_map_order(chain["maps"][name])
    bad_path = tmp_path / "order.json"
    bad_path.write_text(json.dumps(chain))
    capsys.readouterr()
    assert run("perfect", "verify", str(bad_path), "--report",
               str(tmp_path / "r.json"), "--out", out) == EXIT_VERIFY
    assert "usage error" not in capsys.readouterr().err
    config = read_json(tmp_path / "r.json")["items"][0]
    assert config["name"] == "config" and not config["ok"]
    assert config["mismatch"] == [f"{name}.k"]


@pytest.mark.parametrize("spec", ["holder:0.5", "omegaz:0.5,0.3"])
def test_perfect_verify_echoes_the_chain_config(tmp_path, capsys, spec):
    # the replay takes k, A and the modulus from the chain, so the echo
    # does too, whatever the flags say
    out = str(tmp_path)
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(to_dict(
        calibrated_bump(4e-4, cli.parse_alpha(spec)))))
    chain_path = tmp_path / "chain.json"
    assert run("perfect", "fixpoint", "--in", str(fin), "--A", "4",
               "--alpha", spec, "--out-chain", str(chain_path),
               "--out", out) == EXIT_OK
    capsys.readouterr()
    assert run("perfect", "verify", str(chain_path), "--k", "3", "--A", "1",
               "--alpha", "holder:0.3", "--report", str(tmp_path / "r.json"),
               "--out", out) == EXIT_OK
    echoed = capsys.readouterr().out.splitlines()[0]
    assert echoed == f"config: k=2 alpha_spec={spec} A=4 seed=0 out_dir={out}"


def test_verify_refuses_a_widened_config_and_an_old_version(tmp_path, capsys):
    out = str(tmp_path)
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(to_dict(calibrated_bump(1e-3, holder(0.5)))))
    chain_path = tmp_path / "chain.json"
    assert run("perfect", "fixpoint", "--in", str(fin), "--A", "4",
               "--out-chain", str(chain_path), "--out", out) == EXIT_OK
    chain = read_json(chain_path)

    chain["config"]["A"] = 8
    bad_path = tmp_path / "widened.json"
    bad_path.write_text(json.dumps(chain))
    assert run("perfect", "verify", str(bad_path), "--out", out) == EXIT_VERIFY

    chain["config"]["A"] = 4
    chain["version"] = 1
    old_path = tmp_path / "v1.json"
    old_path.write_text(json.dumps(chain))
    capsys.readouterr()
    assert run("perfect", "verify", str(old_path), "--out", out) == EXIT_USAGE
    assert "version 1" in capsys.readouterr().err


def test_fixpoint_no_convergence_is_a_reported_outcome(tmp_path):
    out = str(tmp_path)
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(to_dict(calibrated_bump(1e-3, holder(0.5)))))
    trace_path = tmp_path / "trace.json"
    assert run("perfect", "fixpoint", "--in", str(fin), "--A", "4",
               "--tol-fix-max-iter", "1", "--tol-fix-tol", "1e-30",
               "--out-chain", str(trace_path), "--out", out) == EXIT_OK
    trace = read_json(trace_path)
    assert trace["format"] == "fixpoint-trace"
    assert trace["outcome"] == "no-convergence"
    assert len(trace["trace"]) == 1


def test_fixpoint_rejects_a_malformed_map(tmp_path, capsys):
    d = to_dict(calibrated_bump(1e-3, holder(0.5)))
    del d["grid"]
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(d))
    assert run("perfect", "fixpoint", "--in", str(fin), "--A", "4",
               "--out-chain", str(tmp_path / "chain.json"),
               "--out", str(tmp_path)) == EXIT_USAGE
    assert "malformed map" in capsys.readouterr().err


# -- tables and configuration --------------------------------------------------------------

def test_emit_plots_lcm_and_tameness(tmp_path):
    out = str(tmp_path)
    assert run("emit-plots", "--tables", "lcm,tameness",
               "--out", out) == EXIT_OK
    _, header, rows = read_csv(tmp_path / "lcm_sandwich.csv")
    assert header == ["t", "mu", "beta0", "two_mu"]
    for r in rows:
        mu, beta0, two_mu = float(r[1]), float(r[2]), float(r[3])
        assert mu - 1e-12 <= beta0 <= two_mu + 1e-12
    _, header2, rows2 = read_csv(tmp_path / "tameness_functionals.csv")
    assert header2 == ["s", "t", "F_sup", "G_sub"]
    for r in rows2:
        s, t, f_sup = float(r[0]), float(r[1]), float(r[2])
        assert abs(f_sup - t ** (1.0 - s)) <= 1e-10


def test_emit_plots_traces_refuse_at_the_default_width(tmp_path, capsys):
    # the default A is 1, where the renormalized step cannot contract
    assert run("emit-plots", "--tables", "traces",
               "--out", str(tmp_path)) == EXIT_REFUSED
    assert "configuration stage" in capsys.readouterr().err
    assert not (tmp_path / "residual_traces.csv").exists()


def test_emit_plots_defaults_succeed_and_traces_refuse_first(tmp_path,
                                                             capsys):
    # with no --tables the three tables that need no search are written
    plain = tmp_path / "plain"
    assert run("emit-plots", "--out", str(plain)) == EXIT_OK
    assert sorted(p.name for p in plain.iterdir()) == [
        "lcm_sandwich.csv", "norm_reduction_sweep.csv",
        "tameness_functionals.csv"]
    # asking for traces at the default A=1 refuses before writing any table
    capsys.readouterr()
    asked = tmp_path / "asked"
    assert run("emit-plots", "--tables", "sweep,tameness,lcm,traces",
               "--out", str(asked)) == EXIT_REFUSED
    assert "configuration stage" in capsys.readouterr().err
    assert not asked.exists() or list(asked.iterdir()) == []


def test_emit_plots_rejects_unknown_table(tmp_path):
    assert run("emit-plots", "--tables", "nope",
               "--out", str(tmp_path)) == EXIT_USAGE


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(
        {"A": 8, "seed": 42, "tol": {"fix_max_iter": 50}}))
    out = str(tmp_path)
    assert run("modulus", "analyze", "--config", str(cfg_path),
               "--A", "2", "--out", out) == EXIT_OK
    echoed = capsys.readouterr().out
    assert "A=2" in echoed  # the flag wins
    assert "seed=42" in echoed  # the file fills the rest
    verdict = read_json(tmp_path / "modulus_verdict.json")
    assert verdict["run_config"]["A"] == 2
    assert verdict["run_config"]["seed"] == 42
    assert verdict["run_config"]["tol"]["fix_max_iter"] == 50


def test_tolerance_override_flag(tmp_path):
    out = str(tmp_path)
    assert run("modulus", "analyze", "--tol-fix-max-iter", "17",
               "--out", out) == EXIT_OK
    verdict = read_json(tmp_path / "modulus_verdict.json")
    assert verdict["run_config"]["tol"]["fix_max_iter"] == 17


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    out = str(tmp_path)
    for bad in ({"tol": {"no_such_knob": 1.0}}, {"tol": {"eval_density": 8}},
                {"grid_n": 0}):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bad))
        assert run("modulus", "analyze", "--config", str(cfg_path),
                   "--out", out) == EXIT_USAGE
        name = next(iter(bad.get("tol", bad)))
        assert name in capsys.readouterr().err


@pytest.mark.parametrize("b", ["nan", "inf"])
def test_flow_chart_refuses_a_non_finite_time(tmp_path, capsys, b):
    # a NaN time used to spin inside the ODE solver forever
    assert run("flow", "chart", "--b", b, "--out", str(tmp_path)) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "flow_chart.json").exists()


@pytest.mark.parametrize("name,value", [
    ("ode_tol", float("nan")), ("interp_residual", float("nan")),
    ("overlap", float("inf")), ("fix_tol", -1e-6), ("max_nodes", 0),
    ("word_cap", -3), ("fix_max_iter", 0)])
def test_tolerances_refuse_unusable_values(name, value):
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: value})


def test_tolerances_accept_zero_thresholds():
    assert Tolerances(fix_tol=0.0, max_nodes=1).fix_tol == 0.0


def test_unusable_tolerances_are_usage_errors(tmp_path, capsys):
    out = str(tmp_path)
    # --tol-interp-residual nan used to double every build up to max_nodes
    for flag in ("--tol-ode-tol", "--tol-interp-residual"):
        assert run("flow", "chart", flag, "nan", "--out", out) == EXIT_USAGE
        assert flag[6:].replace("-", "_") in capsys.readouterr().err
    cfg_path = tmp_path / "run.json"
    for bad in ({"ode_tol": -1e-12}, {"interp_residual": float("nan")},
                {"word_cap": 0}):
        cfg_path.write_text(json.dumps({"tol": bad}))
        assert run("flow", "chart", "--config", str(cfg_path),
                   "--out", out) == EXIT_USAGE
        assert next(iter(bad)) in capsys.readouterr().err
    assert not (tmp_path / "flow_chart.json").exists()


def test_widths_below_one_are_usage_errors(tmp_path, capsys):
    out = str(tmp_path)
    assert run("flow", "chart", "--A", "-2", "--out", out) == EXIT_USAGE
    assert run("mather", "lambda", "--A", "-1", "--out", out) == EXIT_USAGE
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"A": 0}))
    assert run("flow", "chart", "--config", str(cfg_path),
               "--out", out) == EXIT_USAGE
    assert "A must be at least 1" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_config_file_must_be_an_object(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps([{"A": 2}]))
    assert run("modulus", "analyze", "--config", str(cfg_path),
               "--out", str(tmp_path)) == EXIT_USAGE


def test_integer_knobs_reject_fractions(tmp_path, capsys):
    out = str(tmp_path)
    assert run("modulus", "analyze", "--tol-max-nodes", "1.5",
               "--out", out) == EXIT_USAGE
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"tol": {"max_nodes": 1.5}}))
    capsys.readouterr()
    assert run("modulus", "analyze", "--config", str(cfg_path),
               "--out", out) == EXIT_USAGE
    assert "max_nodes" in capsys.readouterr().err


def test_every_tolerance_is_read_from_the_run():
    # a Tolerances field that no module reads is a knob without effect, and
    # one read from DEFAULT_TOL ignores the run's override
    src = Path(diffeolab.__file__).parent
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in sorted(src.glob("*.py"))
                     if p.name != "config.py")
    names = [f.name for f in dataclasses.fields(Tolerances)]
    unread = [n for n in names if not re.search(rf"\.{n}\b", text)]
    assert unread == []
    from_default = re.findall(rf"DEFAULT_TOL\.(?:{'|'.join(names)})\b",
                              text)
    assert from_default == []
