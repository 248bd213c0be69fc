"""The benchmark's own configs parse.

bench/workloads.py writes the configs that every spectrum and mesh
operation runs through the CLI; a parser that refused one would fail all
of those operations.  This test only reads bench/.
"""

from pathlib import Path

import pytest

from gaprad.cli import parse_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", ["spectrum", "mesh"])
def test_benchmark_configs_parse(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    workdir = tmp_path / name
    workloads.build(name, 0, workdir)
    configs = sorted(workdir.glob("*.conf"))
    assert configs
    for conf in configs:
        cfg = parse_config(conf.read_text(encoding="utf-8"), base_dir=workdir)
        assert cfg.system is not None or cfg.meshes is not None, conf.name
