"""The CI workflow installs what the project declares for its tests, and
runs them as the ROADMAP says, within a time limit.

`.github/workflows/tier1.yml` names its test packages on one `pip install`
line, and `pyproject.toml` names them in its `test` extra; a package added
to one list must be added to the other.
"""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def requirement_name(req: str) -> str:
    """The distribution name of a requirement, normalized, without its
    version, extras or markers."""
    return re.split(r"[\s<>=!~\[;(]", req.strip(), maxsplit=1)[0].lower().replace("_", "-")


def workflow_lines():
    return WORKFLOW.read_text().splitlines()


def test_ci_installs_exactly_the_test_extra():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    extra = tomllib.loads((ROOT / "pyproject.toml").read_text())
    declared = sorted(requirement_name(r) for r in extra["project"]["optional-dependencies"]["test"])
    installs = [line.split("pip install", 1)[1].split()
                for line in workflow_lines() if "pip install" in line]
    assert len(installs) == 1, "expected one pip install line in the workflow"
    installed = sorted(requirement_name(a) for a in installs[0] if not a.startswith("-"))
    assert installed == declared


def test_ci_job_has_a_timeout():
    """Tier-1 takes under a minute; without a limit a hung run holds its
    runner for GitHub's six-hour default."""
    lines = workflow_lines()
    job = lines.index("  tier1:")
    limits = [line.split(":", 1)[1].strip() for line in lines[job + 1:]
              if line.startswith("    timeout-minutes:")]
    assert len(limits) == 1 and limits[0].isdigit() and 1 <= int(limits[0]) <= 30


def test_ci_runs_the_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M).group(1)
    lines = workflow_lines()
    step = lines.index("      - name: Tier-1 tests")
    assert lines[step + 1] == "        run: " + command
