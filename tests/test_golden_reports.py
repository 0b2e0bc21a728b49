"""Pinned report bytes: an optimization may not change what a run reports.

The systems under tests/data/ are run from inside that directory, so the
report's input path is the bare file name, and the sha256 of each report
file is compared with the value recorded when the report was last changed
on purpose.  A change that alters a report must say why and update the pin.
The `--verify` pins cover the numeric verifier's counts and deviations:
chain4, sinex and coupled recover only one-unknown blocks, unicycle also
a block with two unknowns.  The wrong sinex claim `x3; x2` is pinned on
`verify`: its trials fail or turn singular, so that pin exits 4.
chained5, three, nfd3, car and trailer1 are the textbook fixtures of the
ROADMAP, pinned on `decompose`.  gb3 and gb6 are generated flat systems
(a random change of coordinates and feedback applied to a Brunovsky
form), pinned on `decompose --verify`.  gc11 is a flat system whose flow
fields mention coordinates they do not depend on; it is pinned on
`decompose` only, since every numeric trial of it is singular.  pvtol (the
planar VTOL aircraft) is pinned on `decompose` and on `verify` of the
certificate its `decompose` reports; both live in data/slow/, outside the
`data/*.fds` glob.  Its verifier finds every trial singular (Newton stalls
at the rounding floor of residuals with about a million terms), so that
pin exits 4.
"""

import hashlib
import pathlib
import shlex

import pytest

from flatdec.cli import main

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = {
    ("car", "decompose"): "0a6fc83202306db1770ebee9014ccb7d6024ca3a9d48490f6326734f4952ef91",
    ("chain4", "analyze"): "dc7242f6f2266ef100995d1db95fab5cab7799b3975e086e10b5525349b93110",
    ("chain4", "decompose"): "26274b691a0d1a08f6563c2533446e762bdc5c01e499f0b5a25f75495f0fb5c9",
    ("chain4", "decompose --verify --samples 6"): "5e80a500d11f987db2499626f27f744fe0b33b20fb02570f31133d335f3f12b6",
    ("chained5", "decompose"): "a102269f31dfd4bbef8e848ccf7c5aae80ed2db6d5ea071c79ed82b0907ef9bd",
    ("coupled", "analyze"): "9372c82b93e8af4b8c9d111b21cd9a382acc1836cb943d7be5c338a02c25c0f6",
    ("coupled", "decompose"): "71e8226229cf59dc684cc94f7b44f7e7838a9af75e6b962723a4466f56885526",
    ("coupled", "decompose --verify --samples 6"): "58cfe335ad9955212461c694761df55b87794dcd0d489e653fdc67b7c5daa13a",
    ("gb3", "decompose --verify --samples 6"): "756256c132950b93019dc27164407f0e934a0aa74cdc0ec05356e67ccece1513",
    ("gb6", "decompose --verify --samples 6"): "e75b66d39794fb0a2d63ea4e6f7ff17f60b00bd3b1219d120e6f280b66b43f9d",
    ("gc11", "decompose"): "5939ff3ac864323259d80000790f51d17789f7adf5779504b4776d2e89076c53",
    ("nfd", "analyze"): "025fcb5d227499aa3de449a2d15a464fca81d0b3310412783b0a5b0c747c3c35",
    ("nfd", "decompose"): "d6d757f05843b01b163739990508f7760259c7fbd601725a4fd5ba903cecd0d7",
    ("nfd2", "analyze"): "a769d9f09398d4a8aba8524b9e059737f5626f419ffd67db71753494331e8a8c",
    ("nfd2", "decompose"): "9c43c977bb342b8082befe65224a8602a501cf47e5f54af8803cd318d4808616",
    ("nfd3", "decompose"): "4e5689046413e08f6e28eb8a86e00b39d8c16a81986213565b77831a1603f0ab",
    ("slow/pvtol", "decompose"): "f52eacb5d81bfcf1190c3a40d1505df59b652c883f23f6eaa47f3ccc70bc85fa",
    ("slow/pvtol", "verify --certificate slow/pvtol.cert.json --samples 2"): "883e9de3b196458f8af6f0a7b2677227f45ff2810aad34ce0c05e5987ea35d0b",
    ("sinex", "analyze"): "3ad4d8b735d142464b2f3360952c88169ab9b5525bc9f1eef7a69cf0f393c962",
    ("sinex", "decompose"): "7b66311307319d50d6000dbe3e6693fe21c28ae834e4cc57e3acedaf237ba75c",
    ("sinex", "decompose --verify --samples 6"): "0f7ca785f19933dea8ea54c2eeeaf5cdba5e0a77677a59a51fd91256ee03da91",
    ("sinex", 'verify --outputs "x3; x2" --samples 6'): "3c19d0f18de2b3066ebb6355754b295a73b78b369ae5bdf9161e01fa8206ceed",
    ("three", "decompose"): "2a3acbf69bf001856b6f2ed878b687b181776f3798abfe02070603c2a99f79dc",
    ("trailer1", "decompose"): "978e4fed6c9909976c92c38919efee06d2ae25d350668242b40c60ee9a68dbc6",
    ("unicycle", "decompose --verify --samples 6"): "09a31fd01e1ce3e3805889bc54376d2d8c46bc6edeafc310ccf28f5b294cc8e9",
}


@pytest.mark.parametrize("name, command", sorted(GOLDEN),
                         ids=[f"{n}-{c}" for n, c in sorted(GOLDEN)])
def test_report_bytes_are_pinned(name, command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    report = tmp_path / "report.json"
    cmd, *flags = shlex.split(command)
    code = main([cmd, f"{name}.fds", *flags, "--seed", "0",
                 "--report", str(report)])
    capsys.readouterr()
    if name.startswith("nfd") and command == "decompose":
        assert code == 3
    else:
        assert code == (4 if command.startswith("verify --certificate")
                        or "--outputs" in command else 0)
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == GOLDEN[(name, command)]
