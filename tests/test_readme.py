"""The README's library example and quoted signatures match the package as
it stands."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from sawsps import PHOTON_DTYPE, run_device, sample_cascade_from_loads

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


@pytest.mark.parametrize("func", [run_device, sample_cascade_from_loads],
                         ids=lambda f: f.__name__)
def test_quoted_signature_matches(func):
    # the module table quotes these signatures; a renamed, added or dropped
    # parameter must show there too
    text = README.read_text(encoding="utf-8")
    quoted = re.findall(rf"`{func.__name__}\(([^`]*)\)`", text)
    assert len(quoted) == 1
    names = [p.split("=")[0].strip() for p in quoted[0].split(",")]
    assert names == list(inspect.signature(func).parameters)
