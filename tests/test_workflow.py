"""The console-script job of .github/workflows/tier1.yml, run here.

Each ``run:`` step after the job installs the package runs under ``bash -e
-o pipefail``, from the repository root, with RUNNER_TEMP a fresh
directory and, first on PATH, ``graph-iwasawa`` a shim for ``python -m
graph_iwasawa.cli`` over src/.  The shim is not the entry point: ``pip
install .`` and the ``[project.scripts]`` script it writes stay unchecked
here; the job itself checks them.
"""

import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_console_script_job_runs_its_steps(tmp_path):
    shims, runner_temp = tmp_path / "bin", tmp_path / "runner"
    shims.mkdir()
    runner_temp.mkdir()
    for name, argv in (("python", sys.executable),
                       ("graph-iwasawa", f"{sys.executable} -m "
                                         "graph_iwasawa.cli")):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec {argv} "$@"\n')
        shim.chmod(0o755)
    env = dict(os.environ, RUNNER_TEMP=str(runner_temp),
               PATH=os.pathsep.join([str(shims), os.environ["PATH"]]),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["console-script"][
        "steps"]
    names = [step.get("name") for step in steps]
    after = steps[names.index("Install the package") + 1:]
    assert after
    for step in after:
        proc = subprocess.run(
            ["bash", "--noprofile", "--norc", "-e", "-o", "pipefail", "-c",
             step["run"]], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 0, (step["name"], proc.stdout, proc.stderr)
