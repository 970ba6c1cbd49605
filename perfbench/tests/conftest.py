"""Make the program (``src/``) and the benchmark package importable."""

import shutil
import sys
import uuid
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


@pytest.fixture
def scratch():
    """A directory under the checkout, removed afterwards."""
    path = ROOT / ".perfbench_tmp" / f"tests-{uuid.uuid4().hex[:8]}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
