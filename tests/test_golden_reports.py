"""Pinned report bytes: an optimization may not change what a run reports.

The systems under tests/data/ are run from inside that directory, so the
report's input path is the bare file name, and the sha256 of each report
file is compared with the value recorded when the report was last changed
on purpose.  A change that alters a report must say why and update the pin.
The `--verify` pins cover the numeric verifier's counts and deviations.
"""

import hashlib
import pathlib

import pytest

from flatdec.cli import main

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = {
    ("chain4", "analyze"): "d22b8a5e8d3a8d2e6e45fa339856be1f53cae4963a7a3516ce425c905820fc8e",
    ("chain4", "decompose"): "163ddd6804414f6f7d837ebf86f2d3b2e8c07a843bfa5a7a4c3bf4c937417135",
    ("chain4", "decompose --verify --samples 6"): "383c794b7b4df9224243c3457c805b3158f247180936c8256431558d37ff1f08",
    ("coupled", "analyze"): "49539235cbd983f463346647786d8cf434b24abef70075e1baa2549d991557b6",
    ("coupled", "decompose"): "7990d953c3f672cd90f89aec262312a22c888979305b1efbec044a63407227d3",
    ("nfd", "analyze"): "30dd776bd5d27d422ba9ef4142241add6c97f1124c4f11526b98df242008e3c6",
    ("nfd", "decompose"): "f0626aa024cd108597f0d341d30d25866375cc729c3aac03e66f460ba11c4eaa",
    ("nfd2", "analyze"): "e0369730191845c56cc8b94839100418bd542ebe46659a7a754c49f4d1fdeeb0",
    ("nfd2", "decompose"): "9e1a182eaee0006111cf85119b8fd07ed19e99b6cf075596f25f318d100179b9",
    ("sinex", "analyze"): "c806bc5621921a3234154c6035e39350e58c912ada66040ca1dfdf13cc531b45",
    ("sinex", "decompose"): "9a7ef97c16b0059cd99ca4ed092ee73f6758472e608dac5fc2b7a131914a18b1",
    ("sinex", "decompose --verify --samples 6"): "4e44bec46d2beebb6182ca37c74c0926fabd83059cdc7d51a4f9b22aaf734826",
}


@pytest.mark.parametrize("name, command", sorted(GOLDEN),
                         ids=[f"{n}-{c}" for n, c in sorted(GOLDEN)])
def test_report_bytes_are_pinned(name, command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    report = tmp_path / "report.json"
    cmd, *flags = command.split()
    code = main([cmd, f"{name}.fds", *flags, "--seed", "0",
                 "--report", str(report)])
    capsys.readouterr()
    assert code == (3 if name.startswith("nfd") and command == "decompose" else 0)
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == GOLDEN[(name, command)]
