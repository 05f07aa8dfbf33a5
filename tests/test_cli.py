import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import swigert
from swigert.asymptotics import _PARAM_NAMES, CaseParams, candidates_for_case, error_bound, main_term, nu_n, verify
from swigert.cli import SweepConfig, build_parser, main
from swigert.diophantine import exact_residual
from swigert.scaling import RealParam
from swigert.swpoly import sw_theta_normalized


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_aq_at_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "Aq", "--z", "0", "--q", "0.5")
        assert code == 0
        rec = json.loads(out)
        assert rec["value_re"] == 1.0 and rec["value_im"] == 0.0
        assert rec["tail_bound"] <= 1e-12

    def test_theta_series_value(self, capsys):
        code, out, _ = run(capsys, "eval", "theta_series", "--z", "1", "--q", "0.5")
        assert code == 0
        assert json.loads(out)["value_re"] == pytest.approx(2.128936827211877, abs=1e-11)

    def test_qpoch_infinite(self, capsys):
        code, out, _ = run(capsys, "eval", "qpoch", "--a", "0.5", "--q", "0.5", "--n", "inf")
        assert code == 0
        assert json.loads(out)["value_re"] == pytest.approx(0.2887880950866024, abs=1e-11)

    def test_qpoch_finite(self, capsys):
        code, out, _ = run(capsys, "eval", "qpoch", "--a", "0.5", "--q", "0.5", "--n", "3")
        assert code == 0
        rec = json.loads(out)
        assert rec["tail_bound"] == 0.0
        assert rec["value_re"] == pytest.approx(0.5 * 0.75 * 0.875, rel=1e-14)

    def test_bad_arguments_diagnose(self, capsys):
        code, out, err = run(capsys, "eval", "theta_series", "--z", "0", "--q", "0.5")
        assert code == 2
        assert "error:" in err

    def test_qpoch_needs_n(self, capsys):
        code, _, err = run(capsys, "eval", "qpoch", "--a", "0.5", "--q", "0.5")
        assert code == 2 and "error:" in err

    def test_negative_exponent_value_as_separate_argument(self, capsys):
        joined = run(capsys, "eval", "Aq", "--z=-1e-3", "--q", "0.5")
        separate = run(capsys, "eval", "Aq", "--z", "-1e-3", "--q", "0.5")
        assert joined[0] == separate[0] == 0
        assert separate[1] == joined[1]

    def test_z_re_is_a_spelling_of_z(self, capsys):
        for function in ("Aq", "theta_product"):
            short = run(capsys, "eval", function, "--z", "0.3", "--q", "0.5")
            long = run(capsys, "eval", function, "--z-re", "0.3", "--q", "0.5")
            assert short[0] == long[0] == 0 and short[1] == long[1]
        assert run(capsys, "eval", "qpoch", "--a-re", "0.5", "--q", "0.5", "--n", "3")[1] == \
            run(capsys, "eval", "qpoch", "--a", "0.5", "--q", "0.5", "--n", "3")[1]

    @pytest.mark.parametrize("argv,message", [
        (["Aq", "--z", "0.5", "--q", "0.5", "--tol", "nan"], "tol must be > 0, got nan"),
        (["qpoch", "--a", "0.5", "--q", "0.5", "--n", "inf", "--tol", "nan"], "tol must be > 0, got nan"),
        (["Aq", "--z", "nan", "--q", "0.5"], "series argument must be finite, got |w|=nan"),
        (["theta_series", "--z", "nan", "--q", "0.5"], "theta series argument must be finite, got |z|=nan"),
        (["qpoch", "--a", "nan", "--q", "0.5", "--n", "3"], "a must be finite, got nan"),
    ])
    def test_nan_input_exits_2(self, capsys, argv, message):
        assert_usage_error(*run(capsys, "eval", *argv)[::2], message)

    @pytest.mark.parametrize("n", ["abc", "1.5", "", "-1"])
    def test_bad_qpoch_order_names_the_flag(self, capsys, n):
        code, _, err = run(capsys, "eval", "qpoch", "--a", "0.5", "--q", "0.5", "--n", n)
        assert_usage_error(code, err, f"eval qpoch --n takes a nonnegative integer or 'inf', got {n!r}")

    def test_theta_product_at_infinite_tol(self, capsys):
        code, out, _ = run(capsys, "eval", "theta_product", "--z", "1", "--q", "0.5", "--tol", "inf")
        assert code == 0 and 0.0 < json.loads(out)["tail_bound"] < math.inf


# Each once looped forever on an infinite |a| (the last one's -q/z overflows): run in a child with a timeout.
@pytest.mark.parametrize("argv", [
    ["qpoch", "--a", "inf", "--q", "0.5", "--n", "inf"],
    ["theta_product", "--z", "inf", "--q", "0.5"],
    ["theta_product", "--z", "1e-320", "--q", "0.5"],
])
def test_infinite_product_argument_exits_2(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(swigert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "swigert", "eval", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert_usage_error(proc.returncode, proc.stderr, "no certified truncation point for |a|=inf")


class TestWitnessCmd:
    def test_sqrt2_table(self, capsys):
        code, out, _ = run(capsys, "witness", "--theta", "sqrt2", "--beta", "0", "--rho", "1", "--nmax", "100")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,m,residual"
        ns = {int(line.split(",")[0]) for line in lines[1:]}
        assert {2, 5, 12, 29, 70} <= ns

    def test_rational_progression(self, capsys):
        code, out, _ = run(capsys, "witness", "--theta", "1/3", "--beta", "0.3333333333333333",
                           "--rho", "2", "--nmax", "10")
        assert code == 0
        # beta is the double closest to 1/3; residuals are sub-ulp, not 0
        ns = [int(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
        assert ns == [1, 4, 7, 10]

    def test_paired_table(self, capsys):
        code, out, _ = run(capsys, "witness", "--theta", "sqrt2-1", "--theta2", "sqrt3-1",
                           "--beta", "0", "--beta2", "0", "--rho", "0.4", "--nmax", "1000")
        assert code == 0
        assert out.startswith("n,m,residual,m1,residual2\n")
        assert len(out.strip().split("\n")) > 1

    def test_nmax_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "witness", "--theta", "sqrt2", "--rho", "1", "--nmax", "0")
        assert code == 2 and "error:" in err

    def test_negative_theta_flags(self, capsys):
        code, out, _ = run(capsys, "witness", "--theta", "-sqrt2+1", "--rho", "1", "--nmax", "100")
        assert code == 0 and out.startswith("n,m,residual\n")
        code, out, _ = run(capsys, "witness", "--theta", "-sqrt2+1", "--theta2", "-1/3",
                           "--rho", "0.4", "--nmax", "100")
        assert code == 0 and out.startswith("n,m,residual,m1,residual2\n")

    def test_method_flag_removed(self, capsys):
        # the candidate path follows from beta and rho; there is nothing to choose
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--theta", "sqrt2", "--rho", "1", "--nmax", "100", "--method", "cf"])
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--rho", "nan"], "rho must be finite, got nan"),
        (["--rho", "1", "--beta", "inf"], "beta must be finite, got inf"),
        (["--rho", "0.5", "--beta", "nan"], "beta must be finite, got nan"),
        (["--rho", "0.5", "--theta2", "sqrt3", "--beta2", "-inf"], "beta2 must be finite, got -inf"),
        (["--rho", "1", "--beta2", "0.25"], "--beta2 needs --theta2"),
    ])
    def test_bad_search_input_exits_2(self, capsys, flags, message):
        code, out, err = run(capsys, "witness", "--theta", "sqrt2", "--nmax", "50", *flags)
        assert_usage_error(code, err, message)
        assert out == ""

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "w.csv"
        code, out, _ = run(capsys, "witness", "--theta", "sqrt2", "--rho", "1",
                           "--nmax", "100", "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("n,m,residual\n")


CASE4_CONFIG = {
    "case_id": 4,
    "q": 0.5,
    "z_re": 1.0,
    "z_im": 0.5,
    "tau": "-1/2",
    "theta": "1/4",
    "lambda": "1/2",
    "lambda1": "1/4",
    "n_min": 1,
    "n_max": 101,
    "format": "csv",
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = dict(CASE4_CONFIG)
    cfg.update(overrides)
    cfg.setdefault("out", str(tmp_path / "rows.csv"))
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["out"])


class TestVerifyCmd:
    def test_case4_sound_sweep(self, capsys, tmp_path):
        cfg, out_path = write_config(tmp_path)
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        summary = json.loads(out)
        assert summary["case"] == 4
        assert summary["all_within_after_n_min"] is True
        body = out_path.read_text()
        assert body.startswith("n,lhs_re,lhs_im,main_re,main_im,abs_err,bound,within,nu_n,witness_m,witness_residual\n")
        assert json.loads((tmp_path / "rows.summary.json").read_text()) == summary

    def test_summary_schema(self, capsys, tmp_path):
        cfg, _ = write_config(tmp_path)
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        summary = json.loads(out)
        schema_path = Path(__file__).resolve().parents[1] / "docs" / "verify_summary.schema.json"
        schema = json.loads(schema_path.read_text())
        required = set(schema["required"])
        assert required <= set(summary)
        assert set(schema["properties"]) == set(summary)
        assert set(schema["properties"]["params"]["properties"]) == set(summary["params"])
        types = {"integer": int, "number": (int, float), "boolean": bool, "object": dict}
        for key, field in schema["properties"].items():
            if key not in summary or summary[key] is None:
                continue
            expected = field["type"]
            names = expected if isinstance(expected, list) else [expected]
            assert any(isinstance(summary[key], types.get(nm, object)) for nm in names if nm != "null")

    def test_flags_only_case1(self, capsys, tmp_path):
        out_path = tmp_path / "c1.csv"
        code, out, _ = run(
            capsys, "verify", "--case", "1", "--q", "0.5", "--z-re", "1", "--tau", "1/2",
            "--theta", "3/10", "--nmin", "5", "--nmax", "40", "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out)["n_min_within"] <= 5

    def test_unsupported_scaling_diagnoses(self, capsys, tmp_path):
        cfg, _ = write_config(tmp_path, tau="-5/2")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2 and "error:" in err

    def test_unknown_config_field_rejected(self, capsys, tmp_path):
        for field in ("bogus", "tol"):
            cfg, _ = write_config(tmp_path, **{field: 1})
            code, _, err = run(capsys, "verify", "--config", str(cfg))
            assert code == 2 and "error:" in err

    def test_negative_tau_flag_matches_config(self, capsys, tmp_path):
        for z_re_text, z_re in (("1", 1.0), ("-1e-1", -0.1)):
            cfg, cfg_out = write_config(tmp_path, n_max=41, z_re=z_re)
            cfg_code, cfg_summary, _ = run(capsys, "verify", "--config", str(cfg))
            flags_out = tmp_path / "flags.csv"
            code, summary, _ = run(
                capsys, "verify", "--case", "4", "--q", "0.5", "--z-re", z_re_text, "--z-im", "0.5",
                "--tau", "-1/2", "--theta", "1/4", "--lambda", "1/2", "--lambda1", "1/4",
                "--nmax", "41", "--out", str(flags_out),
            )
            assert code == cfg_code == 0
            assert summary == cfg_summary
            assert flags_out.read_bytes() == cfg_out.read_bytes()

    def test_json_rows_format(self, capsys, tmp_path):
        cfg, out_path = write_config(tmp_path, format="json", out=str(tmp_path / "rows.json"))
        code, _, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert rows and {"n", "abs_err", "bound", "within"} <= set(rows[0])

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        cfg, out_path = write_config(tmp_path)
        assert run(capsys, "verify", "--config", str(cfg))[0] == 0
        first = out_path.read_bytes()
        assert run(capsys, "verify", "--config", str(cfg))[0] == 0
        assert out_path.read_bytes() == first

    def test_parallel_byte_identical(self, capsys, tmp_path):
        cfg1, out1 = write_config(tmp_path, name="c1.json", out=str(tmp_path / "serial.csv"), jobs=1)
        cfg2, out2 = write_config(tmp_path, name="c2.json", out=str(tmp_path / "parallel.csv"), jobs=2)
        assert run(capsys, "verify", "--config", str(cfg1))[0] == 0
        assert run(capsys, "verify", "--config", str(cfg2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_without_z_is_z_one(self, capsys, tmp_path):
        cfg = dict(CASE4_CONFIG, n_max=41, out=str(tmp_path / "cfg.csv"))
        del cfg["z_re"], cfg["z_im"]
        path = tmp_path / "noz.json"
        path.write_text(json.dumps(cfg))
        cfg_run = run(capsys, "verify", "--config", str(path))
        flags_out = tmp_path / "flags.csv"
        flags_run = run(
            capsys, "verify", "--case", "4", "--q", "0.5", "--z-re", "1", "--tau", "-1/2", "--theta", "1/4",
            "--lambda", "1/2", "--lambda1", "1/4", "--nmax", "41", "--out", str(flags_out),
        )
        assert cfg_run[0] == flags_run[0] == 0 and cfg_run[1] == flags_run[1]
        assert (tmp_path / "cfg.csv").read_bytes() == flags_out.read_bytes()

    def test_flags_without_nmax_run_to_100(self, capsys, tmp_path):
        cfg, cfg_out = write_config(tmp_path, n_max=100)
        cfg_run = run(capsys, "verify", "--config", str(cfg))
        flags_out = tmp_path / "flags.csv"
        flags_run = run(
            capsys, "verify", "--case", "4", "--q", "0.5", "--z-re", "1", "--z-im", "0.5", "--tau", "-1/2",
            "--theta", "1/4", "--lambda", "1/2", "--lambda1", "1/4", "--out", str(flags_out),
        )
        assert cfg_run[0] == flags_run[0] == 0 and cfg_run[1] == flags_run[1]
        assert json.loads(flags_run[1])["n_last"] == 97
        assert flags_out.read_bytes() == cfg_out.read_bytes()

    def test_saturated_split_ratio_keeps_its_assert(self, capsys, tmp_path):
        # both wing indices reach the saturated (q;q)_j tail, where (q;q)_inf**2 would round
        # one ulp above the weight product and the ratio assert would fire
        code, out, err = run(
            capsys, "verify", "--case", "4", "--q", "0.48318829109042716", "--z-re", "1", "--tau", "-19/10",
            "--theta", "0", "--lambda", "0", "--lambda1", "0", "--nmin", "1000", "--nmax", "1000",
            "--out", str(tmp_path / "rows.csv"),
        )
        assert code in (0, 1) and "Traceback" not in err
        assert json.loads(out)["n_count"] == 1

    def test_deep_terms_keep_their_bound(self, capsys, tmp_path):
        # q = 0.9 and |z| far from 1: max^k is huge while q^(k (k - 2)) alone
        # underflows; at n = 401 the k = 86 s2 term is 3.3e-280
        out_path = tmp_path / "deep.csv"
        code, out, _ = run(
            capsys, "verify", "--case", "4", "--q", "0.9", "--z-re", "-0.0537", "--z-im", "-0.2108",
            "--tau", "-1/2", "--theta", "1/4", "--lambda", "1/2", "--lambda1", "1/4", "--nmax", "401",
            "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out)["n_count"] == 101
        assert out_path.read_text().count("\n") == 102


    def test_case7_flags_match_config(self, capsys, tmp_path):
        cfg = {"case_id": 7, "q": 0.5, "tau": "-sqrt2+1", "theta": "sqrt3-1", "beta1": 0.0, "beta2": 0.0,
               "rho": 0.3, "n_max": 2000, "n_step": 2, "format": "json", "jobs": 2,
               "out": str(tmp_path / "cfg.json")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        cfg_run = run(capsys, "verify", "--config", str(path))
        flags_run = run(
            capsys, "verify", "--case", "7", "--q", "0.5", "--tau", "-sqrt2+1", "--theta", "sqrt3-1",
            "--beta1", "0", "--beta2", "0", "--rho", "0.3", "--nmax", "2000", "--nstep", "2",
            "--format", "json", "--jobs", "2", "--out", str(tmp_path / "flags.json"),
        )
        assert cfg_run == flags_run and cfg_run[0] in (0, 1)
        assert json.loads(cfg_run[1])["n_count"] > 1
        assert (tmp_path / "cfg.json").read_bytes() == (tmp_path / "flags.json").read_bytes()
        assert (tmp_path / "cfg.summary.json").read_bytes() == (tmp_path / "flags.summary.json").read_bytes()


# Option strings and argparse type of each verify dest; a flag without a type reads its text as given.
VERIFY_FLAGS = {
    "help": (["-h", "--help"], None), "config": (["--config"], None),
    "case_id": (["--case"], int), "q": (["--q"], float), "tau": (["--tau"], None), "theta": (["--theta"], None),
    "z_re": (["--z-re"], float), "z_im": (["--z-im"], float),
    "lambda": (["--lambda"], None), "lambda1": (["--lambda1"], None),
    "beta": (["--beta"], float), "beta1": (["--beta1"], float), "beta2": (["--beta2"], float),
    "rho": (["--rho"], float),
    "n_min": (["--nmin"], int), "n_max": (["--nmax"], int), "n_step": (["--nstep"], int),
    "out": (["--out"], None), "format": (["--format"], None), "jobs": (["--jobs"], int),
}


def test_verify_flags_are_the_config_keys():
    keys = {f.name.rstrip("_") for f in dataclasses.fields(SweepConfig)}
    assert set(VERIFY_FLAGS) == keys | {"config", "help"}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {a.dest: (a.option_strings, a.type) for a in sub.choices["verify"]._actions} == VERIFY_FLAGS


def test_verify_help_lists_every_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert {flag for flags, _ in VERIFY_FLAGS.values() for flag in flags} <= set(re.findall(r"--?[\w-]+", out))


def test_param_names_are_the_regime_fields():
    case_fields = [f.name for f in dataclasses.fields(CaseParams)]
    assert case_fields[:2] == ["case_id", "scaling"] and tuple(case_fields[2:]) == _PARAM_NAMES
    sweep_regime_fields = [f.name for f in dataclasses.fields(SweepConfig) if f.name in case_fields[2:]]
    assert tuple(sweep_regime_fields) == _PARAM_NAMES


def assert_usage_error(code, err, *names):
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    assert all(name in err for name in names)


class TestSweepSettings:
    """Every bad sweep setting exits 2, naming the setting, before any sweep runs."""

    @pytest.mark.parametrize("field", ["case_id", "q", "tau", "theta"])
    def test_missing_required_field(self, capsys, tmp_path, field):
        cfg = {k: v for k, v in CASE4_CONFIG.items() if k != field}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(cfg, out=str(tmp_path / "rows.csv"))))
        assert_usage_error(*run(capsys, "verify", "--config", str(path))[::2], field)
        assert not (tmp_path / "rows.csv").exists()

    def test_flags_missing_required_fields(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--q", "0.5", "--out", str(tmp_path / "rows.csv"))
        assert_usage_error(code, err, "case_id", "tau", "theta")

    @pytest.mark.parametrize("field,value", [
        ("n_max", "20"), ("n_min", 1.0), ("jobs", True), ("q", "0.5"), ("z_re", None), ("tau", [1]),
        ("format", "xml"), ("jobs", 0), ("candidates", [1, 5, 9, 13]),
    ])
    def test_bad_field(self, capsys, tmp_path, field, value):
        cfg, out_path = write_config(tmp_path, **{field: value})
        assert_usage_error(*run(capsys, "verify", "--config", str(cfg))[::2], field)
        assert not out_path.exists()

    def test_bad_flag_values(self, capsys, tmp_path):
        base = ["verify", "--case", "4", "--q", "0.5", "--tau", "-1/2", "--theta", "1/4",
                "--lambda", "1/2", "--lambda1", "1/4", "--out", str(tmp_path / "rows.csv")]
        assert_usage_error(*run(capsys, *base, "--format", "xml")[::2], "format")
        assert_usage_error(*run(capsys, *base, "--jobs", "0")[::2], "jobs")

    def test_non_object_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([CASE4_CONFIG]))
        assert_usage_error(*run(capsys, "verify", "--config", str(path))[::2], "JSON object")

    def test_batch_with_non_object_item_runs_nothing(self, capsys, tmp_path):
        good = dict(CASE4_CONFIG, n_max=41, out=str(tmp_path / "a.csv"))
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"sweeps": [good, " a"]}))
        code, out, err = run(capsys, "sweep", "--config", str(batch))
        assert_usage_error(code, err, "JSON object")
        assert out == "" and not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["z_re", "z_im", "rho", "q"])
    def test_non_finite_number(self, capsys, tmp_path, field, value):
        cfg, out_path = write_config(tmp_path, **{field: value})   # json writes Infinity / NaN
        assert_usage_error(*run(capsys, "verify", "--config", str(cfg))[::2], field)
        flags = ["verify", "--case", "4", "--q", "0.5", "--tau", "-1/2", "--theta", "1/4",
                 "--lambda", "1/2", "--lambda1", "1/4", "--out", str(out_path)]
        assert_usage_error(*run(capsys, *flags, "--" + field.replace("_", "-"), repr(value))[::2], field)
        assert not out_path.exists()

    @pytest.mark.parametrize("n_step", ["0", "-3"])
    def test_n_step_below_one(self, capsys, tmp_path, n_step):
        out_path = tmp_path / "rows.csv"
        code, out, err = run(capsys, "verify", "--case", "1", "--q", "0.5", "--tau", "1/2", "--theta", "3/10",
                             "--nmax", "10", "--nstep", n_step, "--out", str(out_path))
        assert_usage_error(code, err, "n_step")
        assert out == "" and not out_path.exists()

    def test_irrational_lambda(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--case", "2", "--q", "0.5", "--tau", "0", "--theta", "1/10",
                           "--lambda", "sqrt2-1", "--out", str(tmp_path / "rows.csv"))
        assert_usage_error(code, err, "lambda")


def test_numeric_lambda_reads_like_the_flag(capsys, tmp_path):
    """A bare-number lambda in a config is its shortest decimal, as on the command line."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"case_id": 2, "q": 0.5, "tau": "0", "theta": "1/10", "lambda": 0.3,
                                "out": str(tmp_path / "cfg.csv")}))
    cfg_run = run(capsys, "verify", "--config", str(path))
    flags_run = run(capsys, "verify", "--case", "2", "--q", "0.5", "--tau", "0", "--theta", "1/10",
                    "--lambda", "0.3", "--out", str(tmp_path / "flags.csv"))
    assert cfg_run == flags_run and cfg_run[0] == 0
    assert json.loads(cfg_run[1])["params"]["lambda"] == "3/10"
    assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()
    assert (tmp_path / "cfg.summary.json").read_bytes() == (tmp_path / "flags.summary.json").read_bytes()


# One small sweep per regime; z defaults to 1 + 0.5i.
SEVEN_CASES = {
    1: dict(tau="1/2", theta="3/10", n_min=5, n_max=40),
    2: dict(tau="0", theta="1/3", n_max=40, **{"lambda": "1/3"}),
    3: dict(tau="0", theta="sqrt2-1", beta=0.0, rho=0.9, z_re=2.0, z_im=0.0, n_max=200),
    4: dict(tau="-1/2", theta="1/4", n_max=41, **{"lambda": "1/2", "lambda1": "1/4"}),
    5: dict(tau="-1/2", theta="sqrt3-1", beta=0.0, rho=0.9, n_max=2000, **{"lambda": "1/2"}),
    6: dict(tau="-sqrt2+1", theta="1/4", beta=0.0, rho=0.9, n_max=2000, **{"lambda": "1/4"}),
    7: dict(tau="-sqrt2+1", theta="sqrt3-1", beta1=0.0, beta2=0.0, rho=0.3, n_max=2000),
}


@pytest.mark.parametrize("case", sorted(SEVEN_CASES))
def test_verify_each_case_in_both_formats(capsys, tmp_path, case):
    base = {"case_id": case, "q": 0.5, "z_re": 1.0, "z_im": 0.5, "n_min": 1, **SEVEN_CASES[case]}
    codes, bodies = {}, {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"rows.{fmt}"
        path = tmp_path / f"{fmt}.json"
        path.write_text(json.dumps(dict(base, format=fmt, out=str(out))))
        codes[fmt] = run(capsys, "verify", "--config", str(path))[0]
        bodies[fmt] = out.read_text()
    header, *lines = bodies["csv"].splitlines()
    csv_rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    json_rows = json.loads(bodies["json"])
    assert len(csv_rows) == len(json_rows) > 0
    for c, j in zip(csv_rows, json_rows):
        assert set(c) == set(j)
        for key, value in j.items():
            if value is None:
                assert c[key] == ""
            elif isinstance(value, bool):
                assert c[key] == ("true" if value else "false")
            else:
                assert type(value)(c[key]) == value
    witnessed = case in (3, 5, 6, 7)
    for r in json_rows:
        assert (r["witness_m"] is not None, r["witness_residual"] is not None) == (witnessed, witnessed)
    assert codes["csv"] == codes["json"] == (0 if json_rows[-1]["within"] else 1)


# Axis (theta or -tau) and target of the first witness condition of each witness regime.
WITNESS_AXIS = {3: ("theta", "beta"), 5: ("theta", "beta"), 6: ("-tau", "beta"), 7: ("-tau", "beta1")}


@pytest.mark.parametrize("case", sorted(WITNESS_AXIS))
def test_witness_rows_carry_exact_residuals(capsys, tmp_path, case):
    cfg = {"case_id": case, "q": 0.5, "z_re": 1.0, "z_im": 0.5, **SEVEN_CASES[case],
           "format": "json", "out": str(tmp_path / "rows.json")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run(capsys, "verify", "--config", str(path))[0] in (0, 1)
    axis, target = WITNESS_AXIS[case]
    step = RealParam.parse(cfg["theta"]).value if axis == "theta" else -RealParam.parse(cfg["tau"]).value
    rows = json.loads((tmp_path / "rows.json").read_text())
    assert rows
    for r in rows:
        assert r["witness_residual"] == exact_residual(r["n"], step, cfg[target], r["witness_m"])


@pytest.mark.parametrize("case", (3, 5))
def test_witness_rows_split_theta_exactly(case):
    config = SweepConfig.from_dict({"case_id": case, "q": 0.5, **SEVEN_CASES[case]})
    params = config.case_params()
    sc, z = params.scaling, complex(config.z_re, config.z_im)
    theta = Fraction(sc.theta.value)
    ns = candidates_for_case(params, config.n_min, config.n_max)
    assert ns
    for n in ns:
        d = sc.theta_frac(n) if case == 3 else sw_theta_normalized(n, z, sc, config.q).d_n
        assert d == float((theta * n) % 1)


@pytest.mark.parametrize("case", sorted(SEVEN_CASES))
def test_public_names_equal_the_rows(case):
    """main_term, error_bound and nu_n at one row give that row's main, bound and nu_n exactly."""
    config = SweepConfig.from_dict({"case_id": case, "q": 0.5, "z_re": 1.0, "z_im": 0.5, **SEVEN_CASES[case]})
    params, z, q = config.case_params(), complex(config.z_re, config.z_im), config.q
    rows = verify(params, z, q, candidates_for_case(params, config.n_min, config.n_max))
    assert rows
    for row in rows:
        m = None
        if case in (4, 5):
            m = params.scaling.minus_tau_split(row.n)[0]
        elif case in (6, 7):
            m = row.witness.m
        assert main_term(params, z, q, m=m) == row.main
        assert error_bound(params, row.n, z, q) == row.bound
        assert nu_n(params, row.n, q) == row.nu_n


def test_readme_quick_start_values_agree(capsys):
    """The README's library example prints a split value next to its theta main term."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    split_value, main = (complex(token) for token in capsys.readouterr().out.splitlines()[-1].split())
    assert abs(split_value - main) <= 1e-6


# sha256 of the CSV report, the JSON report and the summary of each sweep of
# SEVEN_CASES, recorded with jobs=1; any change to their bytes shows here.
REPORT_SHA256 = {
    1: ("c0ef2930d77267830d3ae150edf9386165578fbc7a9e64246abb74fe1109d064",
        "b708e36338948853e6c45bbb7fb5a39d1899d8f065e33cf2c5294604af3cdd40",
        "fb44b146ada73a800dab229c00ee51e111af7d83332fcec10ed99a985efa89bb"),
    2: ("f95cf3f428872612d32c8e6cb9300f31ea35a25c5c14873b840e43f274ba5912",
        "00a5b31fe9c3a3774126660194f1e06f38bd8520749e54e850fa5f9de4a96a01",
        "9fdaeff8faff80d94486ca3769cf7c0a4b8387c6678d1afe34bc6a7a275a4a69"),
    3: ("cc1683f827b602d5735bdccc9000f30b567ba0f3297dd0e3617bddebe065d8b7",
        "8510ff205e87ff637c06e56d49e15ffe1fab1917e7f84ab8f132c3c2e44e2cc9",
        "d8c0fd9b158b5743ab0476d504f6a4282d907f6dee57c83e2848090f29e4f2ca"),
    4: ("b343277be98b21ed99e1c9f127b47b67090aa4907b154f8690f298f55c2fdcf1",
        "c41c1071259c38929e36cd924bb3f29480ac2226bded0ef1ef5ceac2d86ad105",
        "0e8cce8883f7c5d048f6d045233e33bef9d4caa8f29f5f584a644408c397f22d"),
    5: ("07b5ac51cbe19570b2dca1b570e0fde2d13b354b666da00deeb975f8472f8587",
        "3a40947f909226baed45f3ac0961421432f954a596a6f18d3963d0294311bb21",
        "2e18ff95b2622d61e44181506e71d7e97eaea5f11baaad7424e04114f0b72c29"),
    6: ("79d73e2f46000380bbebb8b258a1ae3505a3f8de9aee537e5754f4bc31b39c3f",
        "1d4fbf0f299803a2165bc915ec9795a0b3ea8cc9f1f357274756bffed3f80321",
        "b4326936b9d57a6aaae0c39abb32ff707194337634382ae7d46d9a0a006698a1"),
    7: ("ad718c6d6ea84f3765b1f436a0017a13d180fa79c6755e6c863d2f4cf5d716e0",
        "22a5a8fa72646ed2cbd036d09531f8394614ed7b92ef8e498ab7801a7f111b70",
        "612e413ddb541521eba920b2e9da99d0539c4e2f731657c01f884c014ffdae20"),
}


def report_digests(capsys, tmp_path, case, **settings) -> tuple:
    """sha256 of the CSV report, the JSON report and the summary of SEVEN_CASES[case]."""
    base = {"case_id": case, "q": 0.5, "z_re": 1.0, "z_im": 0.5, "n_min": 1, **SEVEN_CASES[case], **settings}
    digests = []
    for fmt in ("csv", "json"):
        out = tmp_path / f"rows.{fmt}"
        path = tmp_path / f"{fmt}.json"
        path.write_text(json.dumps(dict(base, format=fmt, out=str(out))))
        assert run(capsys, "verify", "--config", str(path))[0] == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    digests.append(hashlib.sha256((tmp_path / "rows.summary.json").read_bytes()).hexdigest())
    return tuple(digests)


@pytest.mark.parametrize("case", (1, 2, 4))
def test_rational_report_bytes(capsys, tmp_path, case):
    assert report_digests(capsys, tmp_path, case) == REPORT_SHA256[case]


@pytest.mark.parametrize("case", (3, 5, 6, 7))
def test_witness_report_bytes(capsys, tmp_path, case):
    assert report_digests(capsys, tmp_path, case) == REPORT_SHA256[case]


@pytest.mark.parametrize("case", (4, 6))
def test_report_bytes_with_two_jobs(capsys, tmp_path, case):
    assert report_digests(capsys, tmp_path, case, jobs=2) == REPORT_SHA256[case]


# Sweeps and evaluations whose sums leave double range: q near 1 underflows (q;q)_inf, a huge
# or tiny |z| overflows the terms.  Each exits 2 with the OutOfRange message, not a traceback.
OUT_OF_DOUBLE_RANGE = [
    (["verify", "--case", "4", "--q", "0.996", "--z-re", "1", "--tau", "-1/2", "--theta", "1/4",
      "--lambda", "1/2", "--lambda1", "1/4", "--nmax", "40"], "q = 0.996 is too close to 1"),
    (["verify", "--case", "5", "--q", "0.999", "--z-re", "1", "--tau", "-1/2", "--theta", "sqrt2-1",
      "--lambda", "1/2", "--beta", "0", "--rho", "1", "--nmax", "400"], "q = 0.999 is too close to 1"),
    (["verify", "--case", "3", "--q", "0.999", "--z-re", "1", "--tau", "0", "--theta", "sqrt2",
      "--beta", "0", "--rho", "1", "--nmax", "400"], "q = 0.999 is too close to 1"),
    (["verify", "--case", "4", "--q", "0.5", "--z-re", "1e-7", "--tau", "-1/2", "--theta", "1/4",
      "--lambda", "1/2", "--lambda1", "1/4", "--nmax", "400"], "|z|=1e-07"),
    (["eval", "Aq", "--z", "0.7", "--q", "0.999"], "q = 0.999 is too close to 1"),
    (["eval", "theta_series", "--z", "1e7", "--q", "0.8"], "|z|=10000000.0"),
    (["eval", "Bq", "--z", "1e8", "--q", "0.8"], "|w|=100000000.0"),
    (["eval", "qpoch", "--a", "1e200", "--q", "0.5", "--n", "3"], "(a; q)_3 leaves double range for a=1e+200"),
    (["verify", "--case", "1", "--q", "0.5", "--tau", "1e400", "--theta", "0", "--nmax", "5"],
     "scaling value '1e400' leaves double range"),
    (["witness", "--theta", "1e400", "--rho", "1", "--nmax", "10"], "scaling value '1e400' leaves double range"),
    (["verify", "--case", "1", "--q", "0.9857", "--z-re", "-0.0027", "--tau", "1/100", "--theta", "0",
      "--nmin", "200", "--nmax", "203"], "reversed sum leaves double range at n=200"),
    (["eval", "qpoch", "--a", "0.999", "--q", "0.999", "--n", "inf"], "(a; q)_inf leaves double range for a=0.999"),
    (["eval", "theta_product", "--z", "-1", "--q", "0.999"], "leaves double range"),
    (["verify", "--case", "4", "--q", "0.5", "--z-re", "1e-30", "--tau", "-1/2", "--theta", "1/4",
      "--lambda", "1/2", "--lambda1", "1/4", "--nmax", "40"], "split sum leaves double range at n=17 (|z| = 1e-30"),
    (["verify", "--case", "4", "--q", "0.5", "--z-re", "1e300", "--tau", "-1/2", "--theta", "1/4",
      "--lambda", "1/2", "--lambda1", "1/4", "--nmax", "40"], "split sum leaves double range at n=9 (|z| = 1e+300"),
    (["eval", "theta_product", "--z", "1e300", "--q", "1e-300"], "theta product leaves double range (|z|=1e+300, q=1e-300)"),
]


@pytest.mark.parametrize("argv,message", OUT_OF_DOUBLE_RANGE)
def test_out_of_double_range_exits_2(capsys, tmp_path, argv, message):
    out = ["--out", str(tmp_path / "rows.csv")] if argv[0] == "verify" else []
    code, _, err = run(capsys, *argv, *out)
    assert_usage_error(code, err, message)
    assert "Warning" not in err


def test_case1_near_q_one_still_runs(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--case", "1", "--q", "0.998", "--z-re", "1", "--tau", "1/2",
                       "--theta", "0", "--nmax", "40", "--out", str(tmp_path / "rows.csv"))
    assert code == 0 and json.loads(out)["n_count"] == 40


class TestSweepCmd:
    def test_batch(self, capsys, tmp_path):
        items = []
        for name in ("a", "b"):
            cfg = dict(CASE4_CONFIG)
            cfg["out"] = str(tmp_path / f"{name}.csv")
            cfg["n_max"] = 41
            items.append(cfg)
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"sweeps": items}))
        code, out, _ = run(capsys, "sweep", "--config", str(batch))
        assert code == 0
        assert (tmp_path / "a.csv").exists() and (tmp_path / "b.csv").exists()
