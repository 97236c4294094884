"""Every CLI command's CSV bytes against recordings in tests/data/golden.

Each ``<name>.ini`` there was run with ``--out`` at the seed it names, and
the CSVs it wrote are stored under ``<name>/``; the command is the one its
``[run]`` section names.  Every command has a recording, and
``coeffs-mollified`` pins the mollified family's bytes.  The recorded floats
come from numpy 2.4.6 and scipy 1.17.1 on Python 3.11; other builds may
round differently, so re-record there rather than loosen the comparison.
Only the rate-sweep and tube recordings go through SciPy (its t and beta
quantiles); the others, the mollified family's among them, are numpy alone.
A deliberate change to CSV bytes re-records the files and is declared in
CHANGES.md.
"""

from pathlib import Path

import pytest

from wzsim.cli import COMMANDS, load_config, main

GOLDEN = Path(__file__).parent / "data" / "golden"
RECORDINGS = sorted(p.stem for p in GOLDEN.glob("*.ini"))


def test_every_command_has_a_recording():
    commands = {load_config(str(GOLDEN / f"{name}.ini")).command for name in RECORDINGS}
    assert commands == set(COMMANDS)


@pytest.mark.parametrize("name", RECORDINGS)
def test_csv_bytes_match_the_recording(tmp_path, name):
    out = tmp_path / "out"
    assert main(["--config", str(GOLDEN / f"{name}.ini"), "--out", str(out)]) == 0
    recorded = sorted(p.name for p in (GOLDEN / name).glob("*.csv"))
    assert recorded
    assert sorted(p.name for p in out.glob("*.csv")) == recorded
    for csv in recorded:
        assert (out / csv).read_bytes() == (GOLDEN / name / csv).read_bytes(), csv
