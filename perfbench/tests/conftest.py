import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


@pytest.fixture(scope="session")
def jw():
    return run.import_jetweil()


@pytest.fixture
def workdir():
    """Scratch directory inside the checkout's ignored build directory."""
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as d:
        yield Path(d)
