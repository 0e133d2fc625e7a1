"""CLI tests: flag parsing, config files, precedence, exit codes, reproducibility."""

import os
import re
from pathlib import Path

import pytest

from equalab import cli, experiment
from equalab.cli import SETTINGS, build_parser, config_from_args, main, read_config_file
from equalab.errors import ConfigurationError

FAST = ["--n-symbols", "300", "--seeds", "3", "--window", "15"]


def _no_steps(*args, **kwargs):
    raise AssertionError("the equalizer was stepped")


def run_cli(tmp_path, *extra, name="run"):
    """`equalab run` with the FAST flags that `extra` does not set again
    (a flag may be given once) and outputs named after `name`."""
    curves = tmp_path / f"{name}_curves.csv"
    summary = tmp_path / f"{name}_summary.txt"
    fast = [x for flag, value in zip(FAST[::2], FAST[1::2]) if flag not in extra for x in (flag, value)]
    code = main(
        ["run", *fast, "--out-curves", str(curves), "--out-summary", str(summary), *extra]
    )
    return code, curves, summary


class TestRunCommand:
    def test_basic_run_writes_outputs(self, tmp_path, capsys):
        code, curves, summary = run_cli(tmp_path)
        assert code == 0
        assert curves.exists() and summary.exists()
        out = capsys.readouterr().out
        assert "steady-state MSE" in out

    def test_reruns_are_byte_identical(self, tmp_path):
        _, c1, s1 = run_cli(tmp_path, name="one")
        _, c2, s2 = run_cli(tmp_path, name="two")
        assert c1.read_bytes() == c2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        _, c1, s1 = run_cli(tmp_path, name="serial")
        _, c2, s2 = run_cli(tmp_path, "--jobs", "2", name="parallel")
        assert c1.read_bytes() == c2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_noiseless_flag(self, tmp_path):
        code, _, summary = run_cli(tmp_path, "--snr-db", "none")
        assert code == 0
        entries = dict(
            line.split(" = ", 1) for line in summary.read_text().strip().split("\n")
        )
        assert entries["snr_db"] == "none"
        assert entries["noise_variance"] == "0.0"

    def test_single_algorithm(self, tmp_path):
        code, curves, summary = run_cli(tmp_path, "--algo", "lms")
        assert code == 0
        assert "ilms" not in curves.read_text()
        assert "speedup" not in summary.read_text()

    def test_flag_values_echoed(self, tmp_path):
        code, _, summary = run_cli(
            tmp_path, "--channel", "0.9,0.436", "--mu", "0.01", "--mode", "trained",
            "--train-len", "50", "--ff", "9", "--fb", "3", "--delay", "4",
        )
        assert code == 0
        entries = dict(
            line.split(" = ", 1) for line in summary.read_text().strip().split("\n")
        )
        assert entries["channel"] == "0.9,0.436"
        assert entries["mu"] == "0.01"
        assert entries["mode"] == "trained"
        assert entries["training_len"] == "50"
        assert entries["n_ff"] == "9"
        assert entries["n_fb"] == "3"
        assert entries["decision_delay"] == "4"


class TestConfigErrors:
    def test_bad_field_names_field_and_exits_2(self, tmp_path, capsys):
        code, *_ = run_cli(tmp_path, "--mu", "-1")
        assert code == 2
        assert "mu" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--bogus"], ["--bogus=1"], ["stray"], ["-x"]])
    def test_unknown_argument_exits_2_with_runs_usage(self, tmp_path, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, *extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: equalab run [-h] [--config FILE] ")
        assert "--out-summary PATH" in err
        assert err.endswith(f"equalab run: error: unrecognized arguments: {extra[0]}\n")
        assert not list(tmp_path.iterdir())

    def test_unknown_argument_before_run_keeps_the_top_level_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--bogus", "run"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: equalab [-h] {run} ...")
        assert err.endswith("equalab: error: unrecognized arguments: --bogus\n")

    def test_unknown_algo(self, tmp_path, capsys):
        code, *_ = run_cli(tmp_path, "--algo", "kalman")
        assert code == 2
        assert "algo" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_divergence_exits_3_naming_rule_seed_iteration(self, tmp_path, capsys, jobs):
        # Stepped through dfe_step, ilms reaches a non-finite combiner output
        # on seed 1 at iteration 30 and on seed 2 already at iteration 24; the
        # serial order (seed, then rule) names seed 1.
        code, curves, summary = run_cli(
            tmp_path, "--mode", "trained", "--train-len", "500", "--mu", "0.2",
            "--algo", "ilms", "--jobs", jobs,
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "ilms" in err and "seed 1:" in err and "iteration 30" in err
        assert not curves.exists() and not summary.exists()

    def test_overflow_exits_3_naming_rule_seed_iteration(self, tmp_path, capsys):
        # The cap keeps every error finite, but on seed 1 the squared error
        # overflows at iteration 172: a failed run, not an `inf` statistic.
        code, curves, summary = run_cli(
            tmp_path, "--algo", "ilms", "--mu", "0.2", "--step-floor", "0.01",
            "--step-cap", "5", "--mode", "trained", "--train-len", "500",
            "--n-symbols", "200", "--window", "10", "--seeds", "4",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Warning" not in err
        assert "ilms" in err and "seed 1:" in err and "overflows at iteration 172" in err
        assert not curves.exists() and not summary.exists()

    def test_channel_overflow_exits_3_naming_the_sample(self, tmp_path, capsys):
        # 1e308 + 1e308 overflows in the channel sum: a non-finite sample,
        # named on one line without numpy's overflow warning.
        code, curves, summary = run_cli(tmp_path, "--channel", "1e308,1e308")
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Warning" not in err
        assert err == "error: run failed: algorithm lms, seed 1: non-finite sample at iteration 1\n"
        assert not curves.exists() and not summary.exists()

    def test_negative_seed_exits_2_naming_field(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("base_seed = -3\n")
        for extra in (["--base-seed", "-1"], ["--config", str(cfg)]):
            code, curves, summary = run_cli(tmp_path, *extra)
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith("error: base_seed: ")
            assert not curves.exists() and not summary.exists()

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--mu", "inf", "mu"),
            ("--step-floor", "nan", "step_floor"),
            ("--step-cap", "inf", "step_cap"),
            ("--conv-ratio", "inf", "conv_ratio"),
        ],
    )
    def test_non_finite_value_exits_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, flag, value, field
    ):
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        code, curves, summary = run_cli(tmp_path, flag, value)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {field}: ")
        assert not curves.exists() and not summary.exists()

    @pytest.mark.parametrize("bad", ["summary_in_missing_dir", "curves_is_a_dir", "dir_not_writable"])
    def test_unwritable_output_exits_1_before_the_run(self, tmp_path, capsys, monkeypatch, bad):
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        out = tmp_path / "out"
        out.mkdir()
        curves, summary = out / "c.csv", out / "s.txt"
        if bad == "summary_in_missing_dir":
            summary = out / "missing" / "s.txt"
        elif bad == "curves_is_a_dir":
            curves = out
        else:  # chmod would not stop root, which may run the tests
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        code = main(["run", *FAST, "--out-curves", str(curves), "--out-summary", str(summary)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot write output: ")
        assert list(out.iterdir()) == []

    def test_existing_output_in_unwritable_dir_is_written(self, tmp_path, monkeypatch):
        """`open(path, "wb")` needs only the file's own write permission."""
        curves, summary = tmp_path / "c.csv", tmp_path / "s.txt"
        curves.write_bytes(b"old")
        summary.write_bytes(b"old")
        # Every directory refuses writes and every file allows them: chmod would not stop root.
        monkeypatch.setattr(cli.os, "access", lambda path, mode: not os.path.isdir(path))
        code = main(["run", *FAST, "--out-curves", str(curves), "--out-summary", str(summary)])
        assert code == 0
        assert curves.read_bytes().startswith(b"iteration,algo,")
        assert summary.read_bytes().startswith(b"tool_version = ")

    def test_read_only_output_exits_1_before_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        curves, summary = tmp_path / "c.csv", tmp_path / "s.txt"
        summary.write_bytes(b"old")
        # Only the existing summary refuses writes: chmod would not stop root.
        monkeypatch.setattr(cli.os, "access", lambda path, mode: path != os.path.realpath(summary))
        code = main(["run", *FAST, "--out-curves", str(curves), "--out-summary", str(summary)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot write output: [Errno 13] ")
        assert not curves.exists() and summary.read_bytes() == b"old"

    @pytest.mark.parametrize(
        "summary", ["out/c.txt", "out/../out/c.txt", "out/./c.txt"], ids=["same", "dotdot", "dot"]
    )
    def test_one_path_for_both_outputs_exits_1_before_the_run(
        self, tmp_path, capsys, monkeypatch, summary
    ):
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        monkeypatch.chdir(tmp_path)
        Path("out").mkdir()
        code = main(["run", *FAST, "--out-curves", "out/c.txt", "--out-summary", summary])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(
            "error: cannot write output: out_curves and out_summary name the same file"
        )
        assert list(Path("out").iterdir()) == []

    def test_hard_links_to_one_file_exit_1_before_the_run(self, tmp_path, capsys, monkeypatch):
        # Two names of one file: realpath tells them apart, samefile does not.
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        curves, summary = tmp_path / "a.csv", tmp_path / "b.txt"
        curves.write_text("kept\n")
        os.link(curves, summary)
        code = main(["run", *FAST, "--out-curves", str(curves), "--out-summary", str(summary)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(
            "error: cannot write output: out_curves and out_summary name the same file"
        )
        assert curves.read_text() == "kept\n"

    @pytest.mark.parametrize("link", ["same", "dotdot", "hard-link"])
    @pytest.mark.parametrize("setting", ["out_curves", "out_summary"])
    def test_config_file_as_output_exits_1_before_the_run(
        self, tmp_path, capsys, monkeypatch, setting, link
    ):
        # Writing there would replace the config with an output, and the
        # next run from it would fail on the output's keys.
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        monkeypatch.chdir(tmp_path)
        Path("out").mkdir()
        Path("out/run.cfg").write_text("seeds = 2\n")
        if link == "hard-link":
            os.link("out/run.cfg", "out/other.cfg")
        output = {"same": "out/run.cfg", "dotdot": "out/../out/run.cfg", "hard-link": "out/other.cfg"}[link]
        paths = {"out_curves": "c.csv", "out_summary": "s.txt", setting: output}
        code = main(["run", *FAST, "--config", "out/run.cfg", "--out-curves", paths["out_curves"],
                     "--out-summary", paths["out_summary"]])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write output: {setting} names the config file: {output!r}\n"
        assert Path("out/run.cfg").read_text() == "seeds = 2\n"
        written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
        assert written - {"out/other.cfg"} == {"out", "out/run.cfg"}

    @pytest.mark.parametrize("link", ["missing-dir", "loop"])
    @pytest.mark.parametrize("flag", ["--out-curves", "--out-summary"])
    def test_unresolvable_link_exits_1_before_the_run(self, tmp_path, capsys, monkeypatch, flag, link):
        # A symbolic link into a missing directory, or a link loop: opening it
        # fails, so the check fails first and the other output is left as it was.
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        monkeypatch.chdir(tmp_path)
        os.symlink("nodir/out.txt" if link == "missing-dir" else "link", "link")
        paths = {"--out-curves": "curves.csv", "--out-summary": "summary.txt", flag: "link"}
        kept = next(p for p in paths.values() if p != "link")
        Path(kept).write_text("kept\n")
        code = main(["run", *FAST, *(x for item in paths.items() for x in item)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot write output: ")
        assert Path(kept).read_text() == "kept\n"
        assert sorted(os.listdir()) == sorted([kept, "link"])

    @pytest.mark.parametrize("flag", ["--out-curves", "--out-summary"])
    def test_empty_output_path_exits_1_before_the_run(self, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        monkeypatch.chdir(tmp_path)
        paths = {"--out-curves": "c.csv", "--out-summary": "s.txt", flag: ""}
        code = main(["run", *FAST, *(x for item in paths.items() for x in item)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot write output: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag,value,field", [("--mode", "foo", "mode"), ("--snr-db", "-4000", "snr_db")]
    )
    def test_bad_value_exits_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, flag, value, field
    ):
        # -4000 dB is finite, but its noise variance 10**400 is not.
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        code, curves, summary = run_cli(tmp_path, flag, value)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {field}: ")
        assert not curves.exists() and not summary.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "key,value",
        [
            ("channel", "0.5,,0.3"),
            ("channel", "0.84,0.543,"),
            ("channel", " ,0.84"),
            ("algo", "lms,,ilms"),
            ("algo", "lms, "),
        ],
    )
    def test_empty_list_entry_exits_2_naming_setting(
        self, tmp_path, capsys, monkeypatch, source, key, value
    ):
        # Skipping the empty entry would run `0.5,,0.3` as the channel 0.5,0.3.
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        if source == "flag":
            flag = {s.key: s.flag for s in SETTINGS}[key]
            code, curves, summary = run_cli(tmp_path, flag, value)
            where = ""
        else:
            cfg = tmp_path / "list.cfg"
            cfg.write_text(f"{key} = {value}\n")
            code, curves, summary = run_cli(tmp_path, "--config", str(cfg))
            where = "line 1: "
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {key}: {where}empty entry in list ")
        assert not curves.exists() and not summary.exists()

    def test_write_failure_after_the_run_exits_1(self, tmp_path, capsys, monkeypatch):
        def full_disk(record, path):
            raise OSError(28, "No space left on device", path)

        monkeypatch.setattr(cli, "emit_summary", full_disk)
        code, curves, _ = run_cli(tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot write output: ") and "No space left" in err

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["--mu", "0.01", "--mu", "0.03"], "error: mu: --mu given 2 times\n"),
            (
                ["--center-spike", "--center-spike", "false"],
                "error: center_spike: --center-spike given 2 times\n",
            ),
            (["--seeds", "2", "--seeds", "2", "--seeds", "3"], "error: seeds: --seeds given 3 times\n"),
            (["--config", "a.cfg", "--config", "b.cfg"], "error: --config given 2 times\n"),
        ],
        ids=["mu", "bare-boolean", "thrice", "config"],
    )
    def test_flag_given_twice_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch, argv, err):
        # As a key set twice in a config file: the last value does not
        # silently win.
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        code, curves, summary = run_cli(tmp_path, *argv)
        assert code == 2
        assert capsys.readouterr().err == err
        assert not curves.exists() and not summary.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert "config" in capsys.readouterr().err.lower()


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comment line\n"
            "\n"
            "n_symbols = 250   # inline comment\n"
            "channel = 0.9,0.436\n"
            "algo = lms\n"
            "mode = dd\n"
            "step_cap = none\n"
            "center_spike = false\n"
            "seeds = 2\n"
        )
        overrides = read_config_file(str(cfg))
        assert overrides["n_symbols"] == 250
        assert overrides["channel"] == (0.9, 0.436)
        assert overrides["algos"] == ("lms",)
        assert overrides["mode"] == "decision_directed"
        assert overrides["step_cap"] is None
        assert overrides["center_spike"] is False
        assert overrides["n_seeds"] == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus_knob = 3\n")
        with pytest.raises(ConfigurationError) as exc:
            read_config_file(str(cfg))
        assert exc.value.field == "bogus_knob"

    def test_byte_order_mark_is_dropped(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes("\ufeffmu = 0.01\nseeds = 2\n".encode("utf-8"))
        assert read_config_file(str(cfg)) == {"mu": 0.01, "n_seeds": 2}

    @pytest.mark.parametrize(
        "content,err",
        [
            (b"mu = 0.01\n\xff\n", "error: cannot read config file: "),
            (b"seeds = 2\n= 5\n", "error: line 2: expected key = value, got '= 5'\n"),
            (b"mu = 0.01\n# again\nmu = 0.5\n", "error: mu: line 3: key already set on line 1\n"),
        ],
        ids=["not-utf8", "empty-key", "repeated-key"],
    )
    def test_unreadable_file_exits_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, content, err
    ):
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(content)
        code, curves, summary = run_cli(tmp_path, "--config", str(cfg))
        assert code == 2
        out = capsys.readouterr().err
        assert out.count("\n") == 1 and out.startswith(err)
        assert not curves.exists() and not summary.exists()

    def test_empty_config_path_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch):
        # "" is a path like any other, one that names no file: not "no config
        # file", which would run the defaults.
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        code, curves, summary = run_cli(tmp_path, "--config", "")
        assert code == 2
        out = capsys.readouterr().err
        assert out.count("\n") == 1 and out.startswith("error: cannot read config file: ")
        assert not curves.exists() and not summary.exists()

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ConfigurationError):
            read_config_file(str(cfg))

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_symbols = 250\nseeds = 2\nwindow = 15\nmu = 0.01\n")
        curves = tmp_path / "c.csv"
        summary = tmp_path / "s.txt"
        code = main(
            ["run", "--config", str(cfg), "--mu", "0.02",
             "--out-curves", str(curves), "--out-summary", str(summary)]
        )
        assert code == 0
        entries = dict(
            line.split(" = ", 1) for line in summary.read_text().strip().split("\n")
        )
        assert entries["mu"] == "0.02"  # flag wins
        assert entries["n_symbols"] == "250"  # file survives

    def test_config_from_args_takes_the_last_of_a_repeated_flag(self):
        # `main` refuses the repeat; the library call keeps the last value,
        # which the benchmark's counting pass relies on.
        assert parse_config("--seeds", "4", "--seeds", "2").n_seeds == 2

    def test_noiseless_key_in_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("snr_db = none\n")
        assert read_config_file(str(cfg)) == {"snr_db": None}

    @pytest.mark.parametrize("line", ["noiseless = true", "seed_list = 1,2,3"])
    def test_retired_keys_are_unknown(self, tmp_path, capsys, line):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(line + "\n")
        code, curves, summary = run_cli(tmp_path, "--config", str(cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {line.split()[0]}: unknown configuration key\n"
        assert not curves.exists() and not summary.exists()


def summary_entries(path):
    return dict(line.split(" = ", 1) for line in path.read_text().strip().split("\n"))


def parse_config(*argv):
    return config_from_args(build_parser().parse_args(["run", *argv]))


class TestRunTooShortForBer:
    @pytest.mark.parametrize(
        "extra,field",
        [
            (["--n-symbols", "1"], "window"),
            (["--n-symbols", "1", "--window", "1"], "n_symbols"),
            (["--n-symbols", "5", "--window", "1"], "n_symbols"),
        ],
    )
    def test_exits_2_before_any_equalizer_step(self, tmp_path, capsys, monkeypatch, extra, field):
        monkeypatch.setattr(experiment, "equalize", _no_steps)
        code, curves, summary = run_cli(tmp_path, *extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {field}: ")
        assert not curves.exists() and not summary.exists()


_NUMPY_OUT_OF_MEMORY = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"


class TestOversizedRuns:
    """A count too large for the run's arrays to be shaped is refused before
    the run, and a run that numpy or Python cannot allocate exits 3; each
    used to end in a traceback and exit 1."""

    @pytest.mark.parametrize(
        "argv,field,bound",
        [
            (["--n-symbols", str(10**20)], "n_symbols", 2**56),  # numpy's "Maximum allowed dimension exceeded"
            (["--n-symbols", str(2**56 + 1)], "n_symbols", 2**56),
            (["--n-symbols", str(10**400)], "n_symbols", 2**56),  # its 80% tail overflowed a float
            (["--seeds", str(10**19), "--n-symbols", "100", "--window", "5"], "seeds", 2**30 - 1),
            (["--seeds", str(2**30)], "seeds", 2**30 - 1),
            (["--fb", str(10**19), "--n-symbols", "100", "--window", "5", "--seeds", "1"], "n_fb", 2**30 - 1),
            (["--ff", str(2**30), "--delay", "0", "--center-spike", "false"], "n_ff", 2**30 - 1),
        ],
        ids=["symbols-1e20", "symbols-bound", "symbols-1e400", "seeds-1e19", "seeds-bound", "fb-1e19", "ff-bound"],
    )
    def test_a_count_too_large_to_shape_is_refused(self, argv, field, bound):
        with pytest.raises(ConfigurationError) as exc:
            parse_config(*argv)
        assert str(exc.value) == f"{field}: must be <= {bound} so that the run's arrays can be shaped"

    def test_counts_at_their_bounds_are_accepted(self):
        bound = str(2**30 - 1)
        cfg = parse_config(
            "--n-symbols", str(2**56), "--seeds", bound, "--ff", bound, "--fb", bound,
            "--delay", "0", "--center-spike", "false",
        )
        assert (cfg.n_symbols, cfg.n_seeds, cfg.n_ff, cfg.n_fb) == (2**56, *(2**30 - 1,) * 3)

    @pytest.mark.parametrize(
        "message,line",
        [
            (_NUMPY_OUT_OF_MEMORY, _NUMPY_OUT_OF_MEMORY),  # numpy's, for --n-symbols 1000000000000 --seeds 1
            ("", "out of memory"),  # Python's own has no message
        ],
        ids=["numpy", "python"],
    )
    def test_a_run_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch, message, line):
        def out_of_memory(config):
            raise MemoryError(*([message] if message else []))

        monkeypatch.setattr(cli, "run_experiment", out_of_memory)
        code, curves, summary = run_cli(tmp_path, "--n-symbols", "1000000000000", "--seeds", "1")
        assert code == 3
        assert capsys.readouterr().err == f"error: run failed: {line}\n"
        assert not curves.exists() and not summary.exists()


class TestBooleanFlags:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            ([], True),
            (["--center-spike"], True),
            (["--center-spike", "--seeds", "3"], True),
            (["--center-spike", "true"], True),
            (["--center-spike", "false"], False),
            (["--center-spike", "off"], False),
            (["--center-spike", "0"], False),
        ],
    )
    def test_center_spike(self, argv, expected):
        assert parse_config(*argv).center_spike is expected

    def test_bad_boolean_exits_2_naming_key(self, tmp_path, capsys):
        code, *_ = run_cli(tmp_path, "--center-spike", "maybe")
        assert code == 2
        assert "center_spike" in capsys.readouterr().err

    def test_center_spike_off_runs_like_config_file(self, tmp_path):
        cfg = tmp_path / "nospike.cfg"
        cfg.write_text("center_spike = false\n")
        code1, c1, s1 = run_cli(tmp_path, "--center-spike", "false", name="flag")
        code2, c2, s2 = run_cli(tmp_path, "--config", str(cfg), name="file")
        assert code1 == code2 == 0
        assert summary_entries(s1)["center_spike"] == "false"
        assert c1.read_bytes() == c2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()


# Values to give each setting, as a file line and as a flag.  Settings a
# value depends on are given the same way on both sides (`_CONTEXT`).
_VALUES = {
    "n_symbols": ["800"],
    "channel": ["0.9,0.436", "1.0"],
    "snr_db": ["12.5", "none"],
    "n_ff": ["9"],
    "n_fb": ["0"],
    "mu": ["0.01"],
    "algo": ["ilms", "ilms,lms"],
    "mode": ["trained", "dd", "decision_directed"],
    "training_len": ["50"],
    "decision_delay": ["3", "none"],
    "seeds": ["7"],
    "base_seed": ["11"],
    "window": ["40"],
    "conv_ratio": ["2.0"],
    "tail_frac": ["0.5"],
    "step_floor": ["0.01"],
    "step_cap": ["0.05", "none"],
    "center_spike": ["false", "true"],
    "jobs": ["2"],
    "out_curves": ["a.csv"],
    "out_summary": ["b.txt"],
}
_CONTEXT = {"training_len": ("mode", "trained")}


@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.key)
def test_flag_and_file_key_give_same_config(tmp_path, setting):
    flag_of = {s.key: s.flag for s in SETTINGS}
    context = [_CONTEXT[setting.key]] if setting.key in _CONTEXT else []
    for value in _VALUES[setting.key]:
        pairs = [*context, (setting.key, value)]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs))
        flags = [item for k, v in pairs for item in (flag_of[k], v)]
        assert parse_config(*flags) == parse_config("--config", str(cfg)), value


def test_spaces_around_list_entries_are_valid(tmp_path):
    cfg = tmp_path / "list.cfg"
    cfg.write_text("channel =  0.84, 0.543 \nalgo = ilms , lms\n")
    flags = parse_config("--channel", " 0.84, 0.543 ", "--algo", "ilms , lms")
    for config in (flags, parse_config("--config", str(cfg))):
        assert config.channel == (0.84, 0.543)
        assert config.algos == ("ilms", "lms")


def test_a_list_value_may_start_with_a_minus(tmp_path):
    """argparse reads `-0.5,0.9` as an option unless told that it is a value:
    the flag, the `--flag=` form and the file line give one config."""
    cfg = tmp_path / "negative.cfg"
    cfg.write_text("channel = -0.5, 0.9\n")
    forms = ("--channel", "-0.5,0.9"), ("--channel=-0.5,0.9",), ("--config", str(cfg))
    configs = [parse_config(*argv) for argv in forms]
    assert configs[0].channel == (-0.5, 0.9) and configs.count(configs[0]) == 3
    assert parse_config("--channel", "-.5,1").channel == (-0.5, 1.0)
    assert run_cli(tmp_path, "--channel", "-0.5,0.9")[0] == 0


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_lists_every_setting():
    readme = _readme()
    for s in SETTINGS:
        assert f"`{s.key}`" in readme, s.key
        assert s.flag in readme, s.flag


def test_settings_table_is_the_whole_config_surface():
    # One row per ExperimentConfig field, each with a flag ...
    columns = [s.field for s in SETTINGS]
    assert len(set(columns)) == len(columns)
    assert set(columns) == set(experiment.ExperimentConfig._fields)
    assert all(s.flag and s.flag.startswith("--") for s in SETTINGS)
    # ... and the README's key paragraph names no key that is not a row.
    paragraph = next(p for p in _readme().split("\n\n") if p.startswith("Config files are"))
    listed = set(re.findall(r"`([a-z_]+)`", paragraph))
    assert listed and listed <= {s.key for s in SETTINGS}, listed - {s.key for s in SETTINGS}
