import importlib.util
import math
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ablations.py"


def test_tiny_run_prints_every_table(capsys):
    spec = importlib.util.spec_from_file_location("ablations", SCRIPT)
    ablations = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ablations)
    ablations.main(["--seeds", "1", "--frames", "6"])
    blocks = capsys.readouterr().out.strip().split("\n\n")
    tables = ablations.tables([0.0, 0.5, 0.95])
    assert len(blocks) == len(tables)
    for block, table in zip(blocks, tables):
        title, header, *lines = block.splitlines()
        assert title == table.title
        assert header.split()[1:] == " ".join(table.columns).split()
        assert len(lines) == len(table.rows)
        for line, row in zip(lines, table.rows):
            label, *cells = line.rsplit(maxsplit=len(table.columns))
            assert label.strip() == row.label
            assert all(math.isfinite(float(c)) for c in cells)
