"""The console-script and perfbench-smoke jobs of
.github/workflows/tier1.yml, run here.

Each console-script ``run:`` step after the job installs the package runs
under ``bash -e -o pipefail``, from the repository root, with RUNNER_TEMP a
fresh directory and, first on PATH, ``graph-iwasawa`` a shim for ``python
-m graph_iwasawa.cli`` over src/.  The shim is not the entry point: ``pip
install .`` and the ``[project.scripts]`` script it writes stay unchecked
here; the job itself checks them.

The perfbench-smoke matrix holds the one record of each workload's output
digest.  Its nine rows take about 16 s on a 2-core host, so its step runs
for the seed-0 untraced rows and for the traced level-sweep row, the
cheapest run that installs the tracer, which reads names inside the
package; about 6 s.  Rows that share a (workload, seed) record one digest.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
SMOKE = yaml.safe_load(WORKFLOW.read_text())["jobs"]["perfbench-smoke"]
SMOKE_ROWS = SMOKE["strategy"]["matrix"]["include"]
RUN_ROWS = [row for row in SMOKE_ROWS if row["seed"] == 0 and (
    "trace" not in row or row["workload"] == "level-sweep")]


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


def test_perfbench_smoke_records_one_digest_per_workload_and_seed():
    digests = {}
    for row in SMOKE_ROWS:
        assert re.fullmatch("[0-9a-f]{64}", row["digest"]), row
        digests.setdefault((row["workload"], row["seed"]), set()).add(
            row["digest"])
    assert all(len(found) == 1 for found in digests.values()), digests
    # every workload has an untraced seed-0 row, which runs below
    assert sorted(row["workload"] for row in RUN_ROWS
                  if "trace" not in row) == sorted(
        {row["workload"] for row in SMOKE_ROWS})


@pytest.mark.parametrize("row", RUN_ROWS, ids=lambda row: "-".join(
    [row["workload"], f"seed{row['seed']}"] + (["traced"] if "trace" in row
                                               else [])))
def test_perfbench_smoke_row_runs_its_step(row, tmp_path):
    # the step, with the row's matrix values put in, from a directory whose
    # perfbench/ is the repository's: run.py finds src/ from its own path,
    # and run.log is written to tmp_path
    [step] = [step for step in SMOKE["steps"]
              if "perfbench/run.py" in step.get("run", "")]
    script = re.sub(r"\$\{\{\s*matrix\.(\w+)\s*\}\}",
                    lambda m: str(row.get(m[1], "")), step["run"])
    (tmp_path / "perfbench").symlink_to(ROOT / "perfbench")
    shims = tmp_path / "bin"
    shims.mkdir()
    (shims / "python3").write_text(f'#!/bin/sh\nexec {sys.executable} "$@"\n')
    (shims / "python3").chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join([str(shims), os.environ["PATH"]]))
    proc = subprocess.run(
        ["bash", "--noprofile", "--norc", "-e", "-o", "pipefail", "-c",
         script], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, (script, proc.stdout[-2000:], proc.stderr)
    lines = (tmp_path / "run.log").read_text().splitlines()
    assert any(re.fullmatch(rf"outputs of \d+ jobs: sha256 {row['digest']}",
                            line) for line in lines), lines
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0), result
