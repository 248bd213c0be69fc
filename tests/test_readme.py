"""Every config example of README.md parses as it stands."""

import re
from pathlib import Path

import pytest

from gaprad import rectangle_mesh, save_obj
from gaprad.cli import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_shows_a_gap_and_a_geometry_config():
    geometry = ["[geometry]" in block for block in BLOCKS]
    assert True in geometry and False in geometry


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_config_parses(block, tmp_path):
    if "[geometry]" not in block:
        parse_config(block, base_dir=tmp_path)
        return
    # the meshes the geometry example names
    save_obj(rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 2, 2), tmp_path / "square1.obj")
    save_obj(rectangle_mesh([0, 0, 1], [0, 1, 0], [1, 0, 0], 2, 2), tmp_path / "square2.obj")
    for mode in ("viewfactor", "bb-heat"):
        cfg = parse_config(block, base_dir=tmp_path, mode=mode)
        assert cfg.meshes is not None
