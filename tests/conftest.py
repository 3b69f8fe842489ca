import os
from pathlib import Path

import pytest
from hypothesis import settings

# In-process imports find src/ through pytest's pythonpath setting; the CLI
# tests that start `python -m ordpat` need it on the child's path as well.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# Deterministic property tests: same examples every run.
settings.register_profile("deterministic", derandomize=True, max_examples=150)
settings.load_profile("deterministic")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
