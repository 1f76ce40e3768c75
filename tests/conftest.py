import json
from pathlib import Path

import hypothesis
import pytest

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None, print_blob=True)
hypothesis.settings.load_profile("ci")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def video_fixtures() -> dict:
    return json.loads((FIXTURES / "videos.json").read_text("utf-8"))
