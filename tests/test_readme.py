"""The README's library example runs against the package as it stands."""

import re
from pathlib import Path

import numpy as np

from sawsps import PHOTON_DTYPE

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first ```python block under the "## Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    scope = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    stream = scope["stream"]
    assert stream.dtype == PHOTON_DTYPE and stream.size > 0
    assert np.all(np.diff(stream["time_ns"]) >= 0.0)
    assert scope["hist"].counts.sum() > 0
