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
    ("car", "decompose"): "541400a3039288f2740990c0b0c170f4b630d4703758ebebb032d3402f80ae3d",
    ("chain4", "analyze"): "c5fcd5c219fa862a108d251a5ab479332a90c5635ee30a8fe1d898db94e58427",
    ("chain4", "decompose"): "91f2b857575efc785559eae1f8e201d481969739722227446fc8114801f618aa",
    ("chain4", "decompose --verify --samples 6"): "95bb051c4ecb5e576fe74f337ec4054b4812b280a89daef6d22052f770bda907",
    ("chained5", "decompose"): "55d85df8fc83e6b255b1e94b50c3040d5d1db3310bede4306cb4f8ea0cf93f42",
    ("coupled", "analyze"): "5ff2c68c0a1ecc728d50ee504f4038d7ee276c47ac198dfca4b27b21c4c0ff49",
    ("coupled", "decompose"): "325aa0249e7a169cff9dfa705296faae8b18419e59cd3bf2453ba1939a61b404",
    ("coupled", "decompose --verify --samples 6"): "80cb4b2745be65cab27cd27e2eb6bec7412b8326a7f562125b3d2376987e6847",
    ("gb3", "decompose --verify --samples 6"): "861c8e9838f197e808e1c023679d16d37e4e4aa4bf121362e5964d8a0cfc58ed",
    ("gb6", "decompose --verify --samples 6"): "4f8a19a2c9e3d0c42cccf16db5e4068118b9ec7ccfeb4521f47af27fc03b227b",
    ("gc11", "decompose"): "f2e0b3da01cc7237a0cb19601e4b3c1f734e9916438696e546688ef9c689cea1",
    ("nfd", "analyze"): "4f8ff65fa6e926adfb1a5040961ae98d6ebb5a21673a18bacea556599f10aec8",
    ("nfd", "decompose"): "b7c5de82bad2369187ae165bab80ba8a0a1b4c7d350488cc63a685ed597731e3",
    ("nfd2", "analyze"): "35750a731dfe473021b61e85136fae304420b93ecc012c5e189c577c94c76161",
    ("nfd2", "decompose"): "d484870f9a4be0d0c2409a1a4461ecc01c81d0e9cbfedf1e55f9773b75f1ce45",
    ("nfd3", "decompose"): "d79ecff7be376bf1e005539820aa0cc00c6bb51fa738fb35c8784082be9c6320",
    ("slow/pvtol", "decompose"): "59e988860297bb759539229d0ef24fe5524eb9e52b0172ba304f9a5a76ed545f",
    ("slow/pvtol", "verify --certificate slow/pvtol.cert.json --samples 2"): "94ab3d4e79ad18a9b0d8845898d53f080b26fafb3220174e7198a13795bf2479",
    ("sinex", "analyze"): "fec21cf3abe4b09ccb000df06c39c7b2bee22ef60e554908b0e70d6ce2181a48",
    ("sinex", "decompose"): "71bcde0bafef01c40e194ea770114dedce90df02203214fdc0fcf8057aa2c8a3",
    ("sinex", "decompose --verify --samples 6"): "f1687a18f4a168bf58c886a8276e4464f0bb15be9719d1f9416147a558e3e730",
    ("sinex", 'verify --outputs "x3; x2" --samples 6'): "a42d1c0ce0994145b08035760eb9faa599acb303f1b150abd7afbc7abbbed110",
    ("three", "decompose"): "87878a164773d144932147c9b995b835890239deed09b7db7374acecd7f7616b",
    ("trailer1", "decompose"): "996d43ce91d74af7ca94ddcd5731556dfdc7b683cb7d48d18bb9173506ca6575",
    ("unicycle", "decompose --verify --samples 6"): "511f80c396eed5304da8adb35573fffec953d0292c5a3976afbcf2a612b17df5",
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
