"""The walkthrough script in scripts/ runs and prints the same atlas."""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "region_atlas.py"

# sha256 of the atlas below: one panel per bundle, a 1..5 x b -4..3
ATLAS_DIGEST = "a15ae298e81cc00d177cfa98721dcf9a0ff1b51b5b6c41973632f934957f9e52"


def test_region_atlas_output_is_pinned(capsys):
    spec = importlib.util.spec_from_file_location("region_atlas", SCRIPT)
    atlas = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(atlas)
    atlas.main(["--bundles", "2:1;2:0;3:2;1:2,2:3;1:0,1:1,2:1",
                "--a-max", "5", "--b-min", "-4", "--b-max", "3"])
    out = capsys.readouterr().out
    assert out.count("E = ") == 5
    assert "?" in out  # the open strip of 3:2 and of the exception family
    assert hashlib.sha256(out.encode()).hexdigest() == ATLAS_DIGEST
