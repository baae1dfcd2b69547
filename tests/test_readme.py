"""The README's library quickstart runs as written."""

import importlib
import re
from pathlib import Path

import numpy as np

from helpers import bvh_text

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    t = np.arange(400) / 40.0
    hips = {
        "hips.Xrotation": 30 * np.sin(2 * np.pi * 1.0 * t),
        "hips.Yrotation": 20 * np.sin(2 * np.pi * 0.5 * t) + 5 * np.sin(2 * np.pi * 3 * t),
        "hips.Zrotation": 10 * np.cos(2 * np.pi * 2.0 * t) + 0.5 * t,
    }
    (tmp_path / "dance.bvh").write_text(bvh_text(hips, frame_time=1 / 40.0))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})


def test_module_table_lists_each_modules_api():
    """Each row of the README's module table names exactly its module's ``__all__``."""
    rows = re.findall(r"^\| `(hhtmotion\.\w+)` \| (.+) \|$", README.read_text(), re.MULTILINE)
    assert len(rows) == 8
    for module, names in rows:
        assert set(re.findall(r"`(\w+)`", names)) == set(importlib.import_module(module).__all__)


def _form_list(form):
    """The names the README's "Which function takes which form" bullet for
    ``form`` lists."""
    section = README.read_text().split("Which function takes which form:", 1)[1]
    bullet = re.search(rf"^- {form}: (.*?)(?=^- |^$)", section, re.MULTILINE | re.DOTALL)
    return set(re.findall(r"`(\w+)`", bullet.group(1)))


def test_form_lists_match_the_refusals():
    """The README names, as one channel or channel axis only, exactly the
    functions that refuse the other form."""
    from test_signal_core import CHANNEL_AXIS_ONLY, ONE_CHANNEL_ONLY

    assert _form_list("one channel") == set(ONE_CHANNEL_ONLY)
    # memd refuses one channel by its 2-channel minimum instead
    assert _form_list("a channel axis") == set(CHANNEL_AXIS_ONLY) | {"memd"}
