"""Process-entry tests: `cli.entry` freezes the collector, `cli.main` does not;
the console script and `python -m equalab.cli` share the entry, its exit codes
and its error lines."""

import ast
import gc
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from equalab import cli

FAST = ["run", "--n-symbols", "300", "--seeds", "3", "--window", "15"]
DIVERGING = ["--mode", "trained", "--train-len", "500", "--mu", "0.2", "--algo", "ilms"]


def outputs(directory):
    return ["--out-curves", str(directory / "c.csv"), "--out-summary", str(directory / "s.txt")]


def test_entry_freezes_and_writes_what_main_writes(tmp_path, capsys, child_env):
    argv = [*FAST, *outputs(tmp_path)]
    # Importing equalab loads no numpy, so `entry` does before it freezes:
    # the freeze then holds numpy's objects too.
    code = (
        "import gc, sys\n"
        "from equalab.cli import entry\n"
        "freeze, numpy = gc.freeze, []\n"
        "gc.freeze = lambda: (numpy.append('numpy' in sys.modules), freeze())\n"
        "rc = entry()\n"
        "print(rc, gc.get_freeze_count() > 0, numpy, file=sys.stderr)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=child_env, check=True
    )
    assert child.stderr == "0 True [True]\n"
    written = [(tmp_path / name).read_bytes() for name in ("c.csv", "s.txt")]
    for name in ("c.csv", "s.txt"):
        (tmp_path / name).unlink()

    assert cli.main(argv) == 0
    assert capsys.readouterr().out == child.stdout
    assert [(tmp_path / name).read_bytes() for name in ("c.csv", "s.txt")] == written


@pytest.mark.parametrize(
    "argv, rc",
    [(["run", "--mu", "-1"], 2), (["run", "--help"], 0), (["run", "--out-curves", "missing/c.csv"], 1)],
    ids=["bad-value", "help", "unwritable"],
)
def test_entry_loads_no_numpy_before_the_checks_pass(tmp_path, child_env, argv, rc):
    # Help, a refused setting and an unwritable output exit before the run:
    # neither numpy's import nor the freeze is paid for them.
    code = (
        "import gc, sys\n"
        "from equalab.cli import entry\n"
        "rc = entry()\n"
        "print(rc, 'numpy' in sys.modules, gc.get_freeze_count(), file=sys.stderr)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=tmp_path, capture_output=True, text=True, env=child_env
    )
    assert child.returncode == 0
    assert child.stderr.splitlines()[-1] == f"{rc} False 0"
    assert (child.stdout != "") == (argv[-1] == "--help")


def test_main_does_not_freeze(tmp_path, capsys):
    before = gc.get_freeze_count()
    assert cli.main([*FAST, *outputs(tmp_path)]) == 0
    assert gc.get_freeze_count() == before


def test_console_script_and_main_block_name_one_function():
    tomllib = pytest.importorskip("tomllib")
    source = Path(cli.__file__)
    with open(source.parents[2] / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["equalab"]
    module, _, name = script.partition(":")
    assert module == cli.__name__ and callable(getattr(cli, name))

    tree = ast.parse(source.read_text(encoding="utf-8"))
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"sys.exit({name}())"]


@pytest.mark.parametrize(
    "extra, rc, err",
    [
        ([], 0, ""),
        (["--out-curves", "missing/c.csv"], 1, "error: cannot write output: [Errno 2] No such file or directory: '{missing}'\n"),
        (["--mu", "-1"], 2, "error: mu: must be finite and > 0\n"),
        (DIVERGING, 3, "error: run failed: algorithm ilms, seed 1: non-finite quantizer input at iteration 30\n"),
    ],
    ids=["ok", "unwritable", "bad-value", "diverged"],
)
def test_module_exit_codes_and_error_lines(tmp_path, child_env, extra, rc, err):
    argv = [*FAST, *extra]
    for flag, path in (("--out-curves", "c.csv"), ("--out-summary", "s.txt")):
        if flag not in extra:
            argv += [flag, path]
    proc = subprocess.run(
        [sys.executable, "-m", "equalab.cli", *argv], cwd=tmp_path, capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == rc
    assert proc.stderr == err.format(missing=os.path.realpath(tmp_path / "missing"))
    assert (proc.stdout != "") == (rc == 0)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_unwritable_report_exits_1_naming_it(tmp_path, child_env, unbuffered):
    child_env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        child_env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "equalab.cli", *FAST, *outputs(tmp_path)],
            stdout=full, stderr=subprocess.PIPE, text=True, env=child_env,
        )
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"
    assert (tmp_path / "c.csv").exists() and (tmp_path / "s.txt").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_unwritable_help_exits_1_naming_it(child_env, unbuffered):
    # argparse drops the OSError of its help text: unbuffered, it exited 0
    # with nothing written; buffered, the exit-time flush failed with 120.
    child_env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        child_env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "equalab.cli", "run", "--help"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=child_env,
        )
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(shutil.which("sh") is None, reason="no sh here")
@pytest.mark.parametrize(
    "argv, rc, err",
    [
        (FAST, 1, "error: cannot write output: [Errno 9] Bad file descriptor\n"),
        (["run", "--help"], 1, "error: cannot write output: [Errno 9] Bad file descriptor\n"),
        (["run", "--mu", "-1"], 2, "error: mu: must be finite and > 0\n"),
    ],
    ids=["run", "help", "bad-value"],
)
def test_closed_stdout_exits_naming_it(tmp_path, child_env, argv, rc, err):
    # With file descriptor 1 closed, Python sets sys.stdout to None: the
    # report's flush and the help text failed with an AttributeError, and
    # the entry's last flush turned a refused setting's exit 2 into 1.
    proc = subprocess.run(
        [shutil.which("sh"), "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "equalab.cli", *argv],
        cwd=tmp_path, stderr=subprocess.PIPE, text=True, env=child_env,
    )
    assert proc.returncode == rc
    assert proc.stderr == err
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == (["curves.csv", "summary.txt"] if argv is FAST else [])
