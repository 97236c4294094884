"""Every CLI command's CSV bytes against recordings in tests/data/golden.

Each ``<command>.ini`` there was run with ``--out`` at the seed it names,
and the CSVs it wrote are stored under ``<command>/``.  The recorded floats
come from numpy 2.4.6 and scipy 1.17.1 on Python 3.11; other builds may
round differently, so re-record there rather than loosen the comparison.
A deliberate change to CSV bytes re-records the files and is declared in
CHANGES.md.
"""

from pathlib import Path

import pytest

from wzsim.cli import COMMANDS, main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("command", COMMANDS)
def test_csv_bytes_match_the_recording(tmp_path, command):
    out = tmp_path / "out"
    assert main(["--config", str(GOLDEN / f"{command}.ini"), "--out", str(out)]) == 0
    recorded = sorted(p.name for p in (GOLDEN / command).glob("*.csv"))
    assert sorted(p.name for p in out.glob("*.csv")) == recorded
    for name in recorded:
        assert (out / name).read_bytes() == (GOLDEN / command / name).read_bytes(), name
