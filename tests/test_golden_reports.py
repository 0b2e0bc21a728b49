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
    ("car", "decompose"): "1cd103b1a9498fdde79521744916045db64334ca1cc4f6b9994d0a2f3e8a186b",
    ("chain4", "analyze"): "ff180ee873f0be96b837b8bee23bebac48c3fbb35c314f2dfe7a9d2e5ef8e2f2",
    ("chain4", "decompose"): "662c9a92f7b704f7d5c4d7b5abe17abe141a069729c6fb8ba2a6c94ae1f0f277",
    ("chain4", "decompose --verify --samples 6"): "c3d47e58e0b164ea4875ff2a9ead69d296926d909c6109d19be2a8eade1d1b20",
    ("chained5", "decompose"): "c30b09e8562be80ce084448547cb4d2622093e1d4050b2c033c6092924cb41c6",
    ("coupled", "analyze"): "9ab54fb78ca41dc8cb3f13b2e9a850bc150b8135fe189eda921e1ee14eb32bf9",
    ("coupled", "decompose"): "09cfa06da232e79d1e8052e3e2ddba7e31222f4263f650093195e0dd0da746e5",
    ("coupled", "decompose --verify --samples 6"): "d6338d5ee295d9073aebcb316fd917b35f0cfdc9d5c29adb9749a5db61936c05",
    ("gb3", "decompose --verify --samples 6"): "c27de0a7fc865d907e507cc3bca5a1382cae93411d9778362097042c76f96b9d",
    ("gb6", "decompose --verify --samples 6"): "c5d55c708e80fff77b83a71c19e7b08073b093f100e7a4a8ac29b5b465290991",
    ("gc11", "decompose"): "191c4a754d4feddc7c23456ef2c81e695adb31e3a7db87b3f78923151bee8187",
    ("nfd", "analyze"): "947a61077299c7e87556e3e9760638de886f77ed795217535465a457e629c1a3",
    ("nfd", "decompose"): "4c42e98b62079438bbf47653e23ee1a27f1db3310ca69e0e12513b6b3a3f6ef8",
    ("nfd2", "analyze"): "7948ec33aed06802e1d8c0d87f86f362fb9b35b533649478705b79f42827a331",
    ("nfd2", "decompose"): "af95502ae6ba4c529cd86d4a3f4a6ac109d4bd4e39401e8613703652cfb97fa0",
    ("nfd3", "decompose"): "c2a914a1e6c8c10202419c729f0a01d8164396671b500fb867801e0ec196b1e6",
    ("slow/pvtol", "decompose"): "11adf3ab8e3bf59111934380ff07d5dc2b1a07e17c7a7e37f2fdf11a6deb9dd2",
    ("slow/pvtol", "verify --certificate slow/pvtol.cert.json --samples 2"): "48187a11d0c9c5e9f9ac423bc6ce10f4547279ed44c4e76e1a7f18f0ce6afb95",
    ("sinex", "analyze"): "8527ebc4987ce8d670ecd03f8b97ac09886057f6902c11075be464e5a4c9b6c0",
    ("sinex", "decompose"): "dbd026688a76fab5f30e0496d9583a3461d5412e4800c29cbae6688cbba1c941",
    ("sinex", "decompose --verify --samples 6"): "4d3d552ea693d0dcbe714ae2132230682efe86c74fb7e9f2f95295e71ece3d60",
    ("sinex", 'verify --outputs "x3; x2" --samples 6'): "53fdc15ccded2ca19b8ac04729f8df50ba1a26d0deba409daa67166930696791",
    ("three", "decompose"): "fec936ba23576a84861deb5fe4a3fc3fddd3dee444611cfa9c5cbb97143459a1",
    ("trailer1", "decompose"): "8f852125769a227f3838addd3472633a7485fe7b2b97687988b0b3086300d2f9",
    ("unicycle", "decompose --verify --samples 6"): "ed41844f5099b27123c2ba0596ab381d4430cb60b89e2054dfcc324562093b93",
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
