"""README.md's examples run as written.

Every ```python block runs here, in a scratch directory.  The shell examples
run in CI through the installed ``krrsolve`` script (the workflow's README
step); here they are checked to be the ones that step runs.
"""

import re
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


def test_the_readme_has_a_python_example():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", PYTHON_BLOCKS)
def test_each_python_block_runs_in_under_a_second(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out


def test_ci_runs_every_shell_example_of_the_readme():
    commands = [line.split("#")[0].strip() for line in README.splitlines()
                if line.startswith(("krrsolve ", "python -c "))]
    assert len(commands) == 6  # the toy dataset, then one per subcommand
    step = WORKFLOW[WORKFLOW.index("README command-line examples"):]
    for command in commands:
        assert f"\n          {command}\n" in step, command
    config = re.search(r"^  ```\n(.*?)^  ```", README, re.S | re.M).group(1)
    lines = " ".join(f"'{line.strip()}'" for line in config.splitlines())
    assert f"printf '%s\\n' {lines} > configs/toy.cfg" in step
