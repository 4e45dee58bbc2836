"""CLI tests: subcommand behavior, exit codes, config handling, artifacts.

All invocations run in-process through main(argv); heavy subcommands use a
reduced configuration file so the suite stays fast.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fracback import (
    DomainError,
    ExperimentConfig,
    SpectralField,
    l2_error,
    ml,
    paper_problem,
    run_table3,
)
from fracback.cli import (
    _CONFIG_KEYS,
    _FLOAT_FLAGS,
    _join_float_values,
    build_parser,
    load_config,
    main,
)

REDUCED = {"alphas": [0.4, 0.8], "truncation": 8, "sweep": [1e-2, 1e-3]}


@pytest.fixture(autouse=True)
def _no_ambient_out(monkeypatch):
    monkeypatch.delenv("FRACBACK_OUT", raising=False)


@pytest.fixture()
def cfg_file(tmp_path):
    def write(data, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(data), encoding="utf-8")
        return str(p)

    return write


class TestMl:
    def test_exp_value(self, capsys):
        assert main(["ml", "--alpha", "1", "--beta", "1", "--x", "-1"]) == 0
        assert capsys.readouterr().out == "0.367879441171442\n"

    def test_value_at_zero(self, capsys):
        assert main(["ml", "--alpha", "0.7", "--beta", "1", "--x", "0"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_invalid_alpha_names_constraint(self, capsys):
        assert main(["ml", "--alpha", "1.5", "--beta", "1", "--x", "-1"]) == 2
        err = capsys.readouterr().err
        assert "fracback:" in err
        assert "alpha" in err and "(0, 1]" in err

    def test_exponent_form_negative_value(self, capsys):
        # argparse alone would read "-1e-3" as an option string
        assert main(["ml", "--alpha", "0.5", "--beta", "1", "--x", "-1e-3"]) == 0
        assert capsys.readouterr().out == f"{ml(0.5, 1, -1e-3):.15g}\n"

    def test_overflowing_argument_warns_nothing(self, capsys):
        # |x|**(1/alpha) overflows to inf, which is still an asymptotic-band y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ml", "--alpha", "0.5", "--beta", "1", "--x", "-1e300"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == f"{ml(0.5, 1, -1e300):.15g}\n"

    def test_taylor_cap_exit_4(self, capsys):
        assert main(["ml", "--alpha", "1e-300", "--beta", "1", "--x", "-1"]) == 4
        assert "did not converge within 50000 terms" in capsys.readouterr().err

    def test_positive_x_rejected(self, capsys):
        assert main(["ml", "--alpha", "0.5", "--beta", "1", "--x", "2.0"]) == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["ml", "--alpha", "0.5", "--beta", "1"])
        assert exc.value.code == 2


class TestConfig:
    def test_defaults_without_file(self):
        ecfg, out, verbosity = load_config(None)
        assert out is None
        assert verbosity == 0
        assert ecfg.truncation == 30

    def test_unknown_keys_rejected(self, cfg_file):
        path = cfg_file({"truncation": 8, "typo_key": 1})
        with pytest.raises(DomainError) as exc:
            load_config(path)
        assert "typo_key" in str(exc.value)

    def test_invalid_json_is_domain_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(DomainError):
            load_config(str(p))

    def test_non_object_json_rejected(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(DomainError):
            load_config(str(p))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "absent.json"))

    def test_singular_tokens(self, cfg_file):
        # the library, a config file and the flag resolve a token alike,
        # through SingularMode itself
        from fracback import QuadConfig, SingularMode
        from fracback.cli import _settings

        for token, want in (
            ("paper", SingularMode.PAPER_DIRECT),
            ("paper_direct", SingularMode.PAPER_DIRECT),
            ("graded", SingularMode.GRADED_SUBSTITUTION),
            ("graded_substitution", SingularMode.GRADED_SUBSTITUTION),
        ):
            assert QuadConfig(singular_mode=token).singular_mode is want
            assert ExperimentConfig(singular_mode=token).singular_mode is want
            assert load_config(cfg_file({"singular_mode": token}))[0].singular_mode is want
            args = build_parser().parse_args(["table", "--id", "1", "--singular-mode", token])
            assert _settings(args)[0].singular_mode is want, token

    def test_bogus_singular_token(self, cfg_file, tmp_path, capsys):
        from fracback import QuadConfig

        for make in (QuadConfig, ExperimentConfig):
            with pytest.raises(DomainError, match="unknown singular mode 'spooky'"):
                make(singular_mode="spooky")
        with pytest.raises(DomainError, match="unknown singular mode 'spooky'"):
            load_config(cfg_file({"singular_mode": "spooky"}))
        bad = cfg_file({**REDUCED, "singular_mode": "spooky"}, name="bad.json")
        good = cfg_file(REDUCED, name="good.json")
        tokens = "['paper', 'graded', 'paper_direct', 'graded_substitution']"
        flag = ["--config", good, "--singular-mode", "spooky"]
        for argv, where in ((["--config", bad], "QuadConfig"), (flag, "--singular-mode")):
            assert main(["backward", *argv, "--t", "0.5", "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert f"{where}: unknown singular mode 'spooky', must be one of {tokens}" in err
        assert not (tmp_path / "backward.csv").exists()

    def test_readme_lists_the_schema_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"Accepted\s+keys:(.*?)\.\n", readme, re.S).group(1)
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(re.findall(r"`(\w+)`", listed)) == fields | {"out", "verbosity"}
        assert _CONFIG_KEYS == fields | {"out", "verbosity"}

    def test_bad_field_value_is_domain_error(self, cfg_file):
        with pytest.raises(DomainError):
            load_config(cfg_file({"truncation": "many"}))

    def test_cliconfig_validation(self, cfg_file):
        with pytest.raises(DomainError, match="config: out must be a string, got 7"):
            load_config(cfg_file({"out": 7}))
        with pytest.raises(DomainError, match="verbosity"):
            load_config(cfg_file({"verbosity": True}))
        assert load_config(cfg_file({"out": "d", "verbosity": 2}))[1:] == ("d", 2)

    def test_cli_exit_codes_for_config_problems(self, cfg_file, tmp_path, capsys):
        bad_key = cfg_file({"nope": 1})
        assert main(["forward", "--config", bad_key, "--t", "0"]) == 2
        assert "unknown keys" in capsys.readouterr().err
        assert (
            main(["forward", "--config", str(tmp_path / "ghost.json"), "--t", "0"])
            == 3
        )
        for name, sweep in (("empty", []), ("rising", [1e-4, 1e-3]), ("negative", [-1e-3])):
            path = cfg_file({**REDUCED, "sweep": sweep}, name=f"{name}.json")
            argv = ["table", "--id", "1", "--config", path, "--out", str(tmp_path)]
            assert main(argv) == 2, name
            assert "sweep" in capsys.readouterr().err
        # json reads Infinity; it used to fail later, as "tau must be positive"
        inf_tau = cfg_file({**REDUCED, "tau": math.inf}, name="inf_tau.json")
        assert main(["forward", "--config", inf_tau, "--t", "0"]) == 2
        assert "tau must be finite and positive" in capsys.readouterr().err
        # checked on load: numpy's generators take no negative seed
        neg_seed = cfg_file(
            {**REDUCED, "seed": -1, "noise_mode": "seeded_random"}, name="neg_seed.json"
        )
        argv = ["backward", "--config", neg_seed, "--eps", "1e-3", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        # a bool is not a number: these used to run as 1.0 and exit 0
        for key, value in (
            ("tau", True),
            ("alphas", [True]),
            ("sweep", [True]),
            ("alphas", ["x"]),
            ("alphas", [0.4, 0.4]),
        ):
            path = cfg_file({**REDUCED, key: value}, name=f"{key}.json")
            assert main(["forward", "--config", path, "--t", "0", "--out", str(tmp_path)]) == 2
            assert f"{key} must be" in capsys.readouterr().err, (key, value)

    def test_scalar_alphas_exit_2(self, cfg_file, tmp_path, capsys):
        # a string or an object was iterated, and named its first character or key
        for key, value, shown in (
            ("alphas", 0.5, "0.5"),
            ("alphas", "0.5", "'0.5'"),
            ("sweep", "1e-3", "'1e-3'"),
            ("alphas", {"0.5": 1}, "{'0.5': 1}"),
        ):
            path = cfg_file({**REDUCED, key: value})
            assert main(["forward", "--config", path, "--t", "0", "--out", str(tmp_path)]) == 2
            assert f"{key} must be a sequence, got {shown}\n" in capsys.readouterr().err


class TestForwardBackward:
    def test_forward_t0_equals_u0(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(REDUCED)
        out = tmp_path / "fwd"
        rc = main(["forward", "--config", cfg, "--out", str(out), "--t", "0"])
        assert rc == 0
        assert (out / "forward.csv").read_bytes() == (out / "u0.csv").read_bytes()
        stdout = capsys.readouterr().out
        assert stdout.count("wrote ") == 3

    def test_backward_at_tau_equals_g(self, cfg_file, tmp_path):
        cfg = cfg_file(REDUCED)
        out = tmp_path / "bwd"
        rc = main(["backward", "--config", cfg, "--out", str(out), "--t", "1.0"])
        assert rc == 0
        assert (out / "backward.csv").read_bytes() == (out / "g.csv").read_bytes()

    def test_backward_t0_warns_unregularized(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(REDUCED)
        rc = main(["backward", "--config", cfg, "--out", str(tmp_path / "o"), "--t", "0"])
        assert rc == 0
        assert "unregularized inversion" in capsys.readouterr().err

    def test_forward_rerun_byte_identical(self, cfg_file, tmp_path):
        cfg = cfg_file(REDUCED)
        out = tmp_path / "rr"
        main(["forward", "--config", cfg, "--out", str(out), "--t", "0.3"])
        first = (out / "forward.csv").read_bytes()
        main(["forward", "--config", cfg, "--out", str(out), "--t", "0.3"])
        assert (out / "forward.csv").read_bytes() == first

    def test_forward_noise_changes_field(self, cfg_file, tmp_path):
        cfg = cfg_file(REDUCED)
        clean, noisy = tmp_path / "c", tmp_path / "n"
        main(["forward", "--config", cfg, "--out", str(clean), "--t", "0.5"])
        main(["forward", "--config", cfg, "--out", str(noisy), "--t", "0.5", "--eps", "0.01"])
        assert (clean / "forward.csv").read_bytes() != (noisy / "forward.csv").read_bytes()
        assert (clean / "u0.csv").read_bytes() == (noisy / "u0.csv").read_bytes()

    def test_t_out_of_range_exit_2(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(REDUCED)
        assert main(["forward", "--config", cfg, "--out", str(tmp_path), "--t", "1.5"]) == 2
        assert "t must be in [0, 1.0], got 1.5" in capsys.readouterr().err

    def test_backward_requires_t_or_noise(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(REDUCED)
        assert main(["backward", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "--t is required" in capsys.readouterr().err

    def test_backward_noise_selects_t(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(REDUCED)
        rc = main([
            "backward", "--config", cfg, "--out", str(tmp_path / "o"),
            "--delta", "1e-4", "-v",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "parameter choice: t = " in err
        assert "noise audit: nominal=0.0001" in err

    @pytest.mark.parametrize("noise", [{}, {"noise_mode": "seeded_random", "seed": 3}])
    def test_backward_noise_matches_the_table3_entry(self, noise, cfg_file, tmp_path):
        # the CLI and the tables share one request path, so the bits agree
        cfg = {"alphas": [0.8], "truncation": 8, "sweep": [1e-3, 1e-4], **noise}
        out = tmp_path / "o"
        argv = ["backward", "--config", cfg_file(cfg), "--out", str(out), "--alpha", "0.8"]
        assert main(argv + ["--eps", "1e-4", "--delta", "1e-4"]) == 0
        lines = (out / "backward.csv").read_text(encoding="utf-8").splitlines()[1:]
        pp = paper_problem(ExperimentConfig(**cfg))
        field = SpectralField(pp.modeset, [float(l.rsplit(",", 1)[1]) for l in lines])
        assert l2_error(field, pp.u0) == run_table3(pp.config).column(0.8)[1]

    def test_backward_parameter_choice_failure_names_level(self, cfg_file, tmp_path, capsys):
        # eta = 1 gives t >= tau; eta = 1e-200 at alpha = 0.2 a t that underflows to 0
        common = ["backward", "--config", cfg_file(REDUCED), "--out", str(tmp_path), "-v"]
        low = ["--alpha", "0.2", "--eps", "1e-200"]
        for flags, eta in ((["--delta", "1.0"], "1.0"), (low, "1e-200")):
            assert main(common + flags) == 2
            assert f"eta={eta} gives t=" in capsys.readouterr().err
        assert not (tmp_path / "backward.csv").exists()

    def test_singular_mode_changes_backward_field(self, cfg_file, tmp_path):
        cfg = cfg_file(REDUCED)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["backward", "--config", cfg, "--out", str(a), "--t", "0.5",
              "--singular-mode", "paper"])
        main(["backward", "--config", cfg, "--out", str(b), "--t", "0.5",
              "--singular-mode", "graded"])
        assert (a / "backward.csv").read_bytes() != (b / "backward.csv").read_bytes()

    def test_numerical_failure_exit_4(self, cfg_file, tmp_path, capsys):
        # alpha = 1 with lambda*tau large enough that E underflows to zero
        cfg = cfg_file({"alphas": [1.0], "truncation": 20})
        rc = main([
            "backward", "--config", cfg, "--out", str(tmp_path),
            "--alpha", "1.0", "--t", "0.5",
        ])
        assert rc == 4
        assert "underflow" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, why", [
        (["forward", "--t", "5e-324"], "not finite at a node, t=5e-324"),
        (["backward", "--t", "1e-3", "--eps", "1e308"], "quotient overflowed"),
        (["backward", "--t", "1e-3", "--delta", "1e308"], "quotient overflowed"),
        (["diagnose", "--delta", "1e200"], "S_K overflowed"),
        # the message text would make these ids long; they are named instead
        pytest.param(["forward", "--alpha", "0.8", "--eps", "1.79e308"],
                     "Source: a coefficient of f is not finite for mode (1, 1)", id="forward-eps-overflow"),
        pytest.param(["backward", "--alpha", "0.2", "--t", "1e-3", "--eps", "1.7e308"],
                     "Source: a coefficient of f is not finite for mode (1, 1)", id="backward-eps-overflow"),
        pytest.param(["backward", "--t", "1e-3", "--delta", "1.7e308"],
                     "noisy_data: the shifted data is not finite for mode (1, 1)", id="backward-delta-overflow"),
        pytest.param(["diagnose", "--delta", "1.7e308"],
                     "noisy_data: the shifted data is not finite for mode (1, 1)", id="diagnose-delta-overflow"),
    ])
    def test_non_finite_result_exit_4(self, argv, why, cfg_file, tmp_path, capsys):
        # a node at s = t, an inversion past the double range, a source noise
        # whose coefficients overflow or a data noise whose shift overflows is a
        # numerical failure, not the non-finite SpectralField (exit 2) it once
        # surfaced as, with numpy's overflow warning, nor the all-infinite S_K
        # that diagnose once called "bounded" (exit 0); a case's own flags come
        # after the default --alpha 0.8
        common = ["--config", cfg_file(REDUCED), "--out", str(tmp_path), "--alpha", "0.8"]
        assert main(argv[:1] + common + argv[1:]) == 4
        assert why in capsys.readouterr().err


class TestFlagValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["backward", "--t", "0.01", "--eps", "-1"],
            ["backward", "--t", "0.01", "--delta", "nan"],
            ["forward", "--eps", "-0.5"],
            ["diagnose", "--delta", "-2"],
            ["table", "--id", "1", "--threads", "-3"],
            ["ml", "--alpha", "0.5", "--beta", "1", "--x", "-inf"],
            ["backward", "--t", "0.01", "--eps", "-1e-3"],
            ["backward", "--t", "-1e-05"],
            ["backward", "--eps", "-1", "--delta", "1e-3"],
            ["fig4"],  # a 2-level sweep cannot be fitted
        ],
    )
    def test_bad_level_or_thread_count_exit_2(self, argv, cfg_file, tmp_path, capsys):
        common = ["--config", cfg_file(REDUCED), "--out", str(tmp_path)]
        assert main(argv if argv[0] == "ml" else argv + common) == 2
        assert "fracback: " in capsys.readouterr().err


class TestOutResolution:
    def test_flag_beats_config_and_env(self, cfg_file, tmp_path, monkeypatch):
        flag, cfgdir, envdir = (tmp_path / n for n in ("flag", "cfgd", "envd"))
        monkeypatch.setenv("FRACBACK_OUT", str(envdir))
        cfg = cfg_file({**REDUCED, "out": str(cfgdir)})
        main(["forward", "--config", cfg, "--out", str(flag), "--t", "0"])
        assert (flag / "forward.csv").exists()
        assert not cfgdir.exists() and not envdir.exists()

    def test_config_beats_env(self, cfg_file, tmp_path, monkeypatch):
        cfgdir, envdir = tmp_path / "cfgd", tmp_path / "envd"
        monkeypatch.setenv("FRACBACK_OUT", str(envdir))
        cfg = cfg_file({**REDUCED, "out": str(cfgdir)})
        main(["forward", "--config", cfg, "--t", "0"])
        assert (cfgdir / "forward.csv").exists()
        assert not envdir.exists()

    def test_env_fallback(self, cfg_file, tmp_path, monkeypatch):
        envdir = tmp_path / "envd"
        monkeypatch.setenv("FRACBACK_OUT", str(envdir))
        cfg = cfg_file(REDUCED)
        main(["forward", "--config", cfg, "--t", "0"])
        assert (envdir / "forward.csv").exists()

    def test_cwd_default(self, cfg_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = cfg_file(REDUCED)
        main(["forward", "--config", cfg, "--t", "0"])
        assert (tmp_path / "forward.csv").exists()

    def test_uncreatable_out_exit_3(self, cfg_file, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x", encoding="utf-8")
        cfg = cfg_file(REDUCED)
        rc = main([
            "forward", "--config", cfg, "--out", str(blocker / "sub"), "--t", "0",
        ])
        assert rc == 3
        assert "output directory" in capsys.readouterr().err


class TestTableAndFig4:
    def test_table1_artifacts_and_hash_line(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(REDUCED)
        out = tmp_path / "t1"
        assert main(["table", "--id", "1", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        csv_path, gp_path = out / "table1.csv", out / "table1.gp"
        assert csv_path.exists() and gp_path.exists()
        sha_lines = [l for l in stdout.splitlines() if l.startswith("sha256 ")]
        assert len(sha_lines) == 1 and len(sha_lines[0].split()[1]) == 64
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "level,alpha_0.4,alpha_0.8"

    def test_table_threads_and_rerun_identical(self, cfg_file, tmp_path, capsys):
        cfg, runs = cfg_file(REDUCED), []
        for i, threads in enumerate(([], ["--threads", "3"], [])):
            out = tmp_path / f"r{i}"
            assert main(["table", "--id", "2", "--config", cfg, "--out", str(out), *threads]) == 0
            sha = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("sha256"))
            runs.append((sha, (out / "table2.csv").read_bytes()))
        assert runs[0] == runs[1] == runs[2]

    def test_table_id_choices(self, cfg_file):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--id", "4"])
        assert exc.value.code == 2

    def test_fig4_prints_c(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file({"alphas": [0.8], "truncation": 8, "sweep": [1e-3, 1e-4, 1e-5]})
        out = tmp_path / "f4"
        assert main(["fig4", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        c_lines = [l for l in stdout.splitlines() if l.startswith("C = ")]
        assert len(c_lines) == 1
        float(c_lines[0].removeprefix("C = "))  # parses
        assert (out / "fig4.csv").exists() and (out / "fig4.gp").exists()


class TestDiagnose:
    def test_exact_data_bounded(self, capsys):
        assert main(["diagnose", "--alpha", "0.5"]) == 0
        stdout = capsys.readouterr().out
        assert "classification: bounded" in stdout
        s_lines = [l for l in stdout.splitlines() if l.startswith("S_")]
        assert len(s_lines) == 4

    def test_noisy_data_growing(self, capsys):
        assert main(["diagnose", "--alpha", "0.8", "--delta", "0.01"]) == 0
        assert "classification: growing" in capsys.readouterr().out


class TestHelp:
    @pytest.mark.parametrize(
        "cmd", ["ml", "forward", "backward", "table", "fig4", "diagnose"]
    )
    def test_subcommand_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = [line for line in readme.splitlines() if line.startswith("fracback ")]
        assert lines
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]  # the comment stripped
            try:
                build_parser().parse_args(_join_float_values(argv))
            except SystemExit:
                pytest.fail(f"README line does not parse: {line}")


class TestFloatFlags:
    def test_float_flags_are_the_parsers_float_options(self):
        (subs,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        registered = {
            opt
            for p in subs.choices.values()
            for a in p._actions
            if a.type is float
            for opt in a.option_strings
        }
        assert _FLOAT_FLAGS == registered

    @pytest.mark.parametrize("value", ["-1e-3", "-inf"])
    @pytest.mark.parametrize("flag", sorted(_FLOAT_FLAGS))
    def test_negative_value_is_parsed(self, flag, value):
        ml_only = flag in ("--beta", "--x")
        base = ["ml", "--alpha", "0.5", "--beta", "1", "--x", "0"] if ml_only else ["backward"]
        argv = _join_float_values([*base, flag, value])
        assert argv[-1] == f"{flag}={value}"
        # a repeated flag keeps its last value
        assert getattr(build_parser().parse_args(argv), flag[2:]) == float(value)

    def test_non_float_value_is_left_to_argparse(self, capsys):
        argv = ["ml", "--alpha", "0.5", "--beta", "1", "--x", "abc"]
        assert _join_float_values(argv)[-2:] == ["--x", "abc"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid float value: 'abc'" in capsys.readouterr().err


class TestModuleEntryPoint:
    """``python -m fracback.cli``, the entry point of a fresh-process request."""

    @staticmethod
    def _run(*argv: str) -> subprocess.CompletedProcess:
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, "-m", "fracback.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    # hashlib (OpenSSL, ~3.5 MB resident) and concurrent.futures (~0.7 MB)
    # are needed by no fresh-process request and no threads=1 table; a top-level
    # import of either would add its memory back to every such process
    _FRESH = {
        "backward": (
            "argv = ['backward', '--alpha', '0.8', '--t', '0.01', '--out', sys.argv[1]]\n"
            "assert fracback.cli.main(argv) == 0\n"
        ),
        "table1": (
            "cfg = fracback.ExperimentConfig(alphas=(0.8,), truncation=4, sweep=(1e-2, 1e-3, 1e-4))\n"
            "tab = fracback.run_table1(cfg)\n"
            "print(tab.content_hash)\n"
            "print(repr(tab.to_csv()))\n"
        ),
    }

    @pytest.mark.parametrize("case", sorted(_FRESH))
    def test_fresh_process_loads_neither_openssl_nor_a_thread_pool(self, tmp_path, case):
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import sys\n"
            "import fracback.cli\n"
            + self._FRESH[case]
            + "print(sorted({'hashlib', '_hashlib', 'concurrent.futures'} & set(sys.modules)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        *out, loaded = done.stdout.splitlines()
        assert loaded == "[]"
        if case == "backward":
            assert (tmp_path / "backward.csv").exists()
        else:  # the built-in sha256 gives hashlib's digest of the table's CSV
            digest, csv = out[-2], ast.literal_eval(out[-1])
            assert digest == hashlib.sha256(csv.encode("utf-8")).hexdigest()

    def test_request_without_a_config_imports_no_json(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import sys\n"
            "import fracback.cli\n"
            + self._FRESH["backward"]
            + "print('json' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_ml_value_and_domain_error_exit_codes(self):
        ok = self._run("ml", "--alpha", "0.5", "--beta", "1", "--x", "-1e-3")
        assert (ok.returncode, ok.stdout, ok.stderr) == (0, "0.998872620081151\n", "")
        bad = self._run("ml", "--alpha", "0.5", "--beta", "1", "--x", "1")
        assert bad.returncode == 2 and bad.stdout == ""
        assert bad.stderr.startswith("fracback: ml_array: arguments must be finite and <= 0")
