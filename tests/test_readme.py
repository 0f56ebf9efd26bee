"""The README's python examples and sweep configs run as written."""

import csv
import re
from pathlib import Path

from acbott.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    section = README.read_text().split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under the quick tour heading"
    exec(compile(block[1], "README.md (Library quick tour)", "exec"), {})


def test_sweep_configs_run(tmp_path, capsys):
    section = README.read_text().split("Sweep configs are flat `key=value` files", 1)[1]
    blocks = re.findall(r"```\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    assert len(blocks) == 2, "expected the voiculescu and the harper config"
    for i, (block, points) in enumerate(zip(blocks, (6, 8))):
        cfg, out = tmp_path / f"sweep{i}.cfg", tmp_path / f"sweep{i}.csv"
        cfg.write_text(block)
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == points
        assert [row["error"] for row in rows] == [""] * points


def test_lattice_config_runs(tmp_path, capsys):
    section = README.read_text().split("`gen harper --config lattice.cfg` reads", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S)
    assert block is not None, "no lattice config block"
    cfg = tmp_path / "lattice.cfg"
    cfg.write_text(block[1])
    assert main(["gen", "harper", "--config", str(cfg), "--out", str(tmp_path / "model")]) == 0
    assert "wrote W (288x96)" in capsys.readouterr().out


def test_cli_block_parses():
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S)
    assert block is not None, "no CLI block"
    words = [line.split("#", 1)[0].split() for line in block[1].splitlines()]
    commands = [argv[1:] for argv in words if argv[:1] == ["acbott"]]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # argparse exits 2 on a flag the command does not take
