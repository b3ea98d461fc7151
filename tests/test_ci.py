"""The CI workflow installs what the project declares for its tests.

`.github/workflows/tier1.yml` names its test packages on one `pip install`
line, and `pyproject.toml` names them in its `test` extra; a package added
to one list must be added to the other.
"""
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def requirement_name(req: str) -> str:
    """The distribution name of a requirement, normalized, without its
    version, extras or markers."""
    return re.split(r"[\s<>=!~\[;(]", req.strip(), maxsplit=1)[0].lower().replace("_", "-")


def test_ci_installs_exactly_the_test_extra():
    extra = tomllib.loads((ROOT / "pyproject.toml").read_text())
    declared = sorted(requirement_name(r) for r in extra["project"]["optional-dependencies"]["test"])
    installs = [line.split("pip install", 1)[1].split()
                for line in WORKFLOW.read_text().splitlines() if "pip install" in line]
    assert len(installs) == 1, "expected one pip install line in the workflow"
    installed = sorted(requirement_name(a) for a in installs[0] if not a.startswith("-"))
    assert installed == declared
