import collections
import importlib.util
import math
import pathlib

import pytest

from poselink import metrics, oracles

from helpers import table_means_row_by_row

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ablations.py"
DEFAULT_THRESHOLDS = [0.0, 0.5, 0.95]


@pytest.fixture(scope="module")
def ablations():
    spec = importlib.util.spec_from_file_location("ablations", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_run_prints_every_table(ablations, capsys):
    assert ablations.main(["--seeds", "1", "--frames", "6"]) == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    tables = ablations.tables(DEFAULT_THRESHOLDS)
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


@pytest.mark.parametrize("k", range(3))
def test_table_means_equal_the_row_by_row_reference(ablations, k):
    table = ablations.tables(DEFAULT_THRESHOLDS)[k]
    got = ablations.table_means(table, range(2), 8, 4)
    want = table_means_row_by_row(table, range(2), 8, 4, ablations.COLUMNS)
    assert [v.tolist() for v in got] == [v.tolist() for v in want]


def test_one_match_per_threshold_and_one_track_per_linker_row(ablations, monkeypatch):
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.update([name]) or original(*a, **k))

    count(metrics, "match_sequence")
    count(oracles, "match_sequence")
    count(metrics, "track_video_with_stats")
    for table in ablations.tables(DEFAULT_THRESHOLDS):
        ablations.table_means(table, range(2), 6, 3)
    # per seed: 3 + 1 + 1 thresholds, plus the upper-bound table's 3 oracle
    # evaluations and the 2 association oracles; 4 + 5 + 1 linker rows
    assert calls == {"match_sequence": 2 * 10, "track_video_with_stats": 2 * 10}


@pytest.mark.parametrize("flags, code, message", [
    (["--seeds", "0"], 2, "argument --seeds: must be at least 1, got 0"),
    (["--frames", "0"], 2, "argument --frames: must be at least 1, got 0"),
    (["--actors", "0"], 2, "argument --actors: must be at least 1, got 0"),
    (["--thresholds", "0,,x"], 2, "argument --thresholds: invalid"),
    (["--thresholds", ","], 2, "argument --thresholds: empty list"),
    (["--seed", "1"], 2, "unrecognized arguments: --seed 1"),
    (["--thresholds", "nan"], 1, "ablations: thresholds must not be NaN"),
])
def test_bad_input_is_one_line_error(ablations, capsys, flags, code, message):
    try:
        result = ablations.main(flags)
    except SystemExit as exc:
        result = exc.code
    assert result == code
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert message in err.splitlines()[-1]
    if code == 1:
        assert err.count("\n") == 1
