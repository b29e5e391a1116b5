import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def cli_env():
    """The CLI's environment: the source tree on the path, and stdout
    buffered as users get it (PYTHONUNBUFFERED would hide a missing flush)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_cli(*args, stdin_text=None, cwd=None):
    """Run the CLI in a subprocess and capture everything. stdin_text may
    be bytes, for input that is not UTF-8."""
    if isinstance(stdin_text, str):
        stdin_text = stdin_text.encode("utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "flowelm", *args],
        input=stdin_text,
        capture_output=True,
        env=cli_env(),
        cwd=cwd,
    )
    return subprocess.CompletedProcess(
        result.args,
        result.returncode,
        result.stdout.decode("utf-8", "replace"),
        result.stderr.decode("utf-8", "replace"),
    )


@pytest.fixture
def cli():
    return run_cli


@pytest.fixture
def small_synth_csv(tmp_path):
    """A small, well-separated synthetic CSV for fast CLI runs."""
    from flowelm import dataio

    path = tmp_path / "flows.csv"
    spec = dataio.SyntheticSpec(n_benign=250, n_attack=250, seed=7)
    dataio.write_csv(dataio.generate_synthetic(spec), path)
    return path
