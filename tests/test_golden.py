"""The behaviour contract: every paper output, byte for byte.

The 21 commands that reproduce the paper (4 table presets, 10 figures,
7 scans) and the known-red envelope scan at a = 4, b = 3 run in-process.
Tables and figures write their csv under a temporary directory, and
scans print their report.  Each output's sha256 and the exit code must
match GOLDEN.  A change that moves an output on purpose says why, and
regenerates the dict from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import pytest

from marcumq.cli import main

SCANS = ("g_negative", "f_dec_eq2", "f_inc_sinh", "chain_eq6", "envelope", "sandwich", "jp_dominance")

# label -> (exit code, sha256 of the output)
GOLDEN = {
    "fig01": (0, "61ab07d1f48e3e426b108b5c17e95ea199aecfcb793464373173c3522ca07d03"),
    "fig02": (0, "4d60f35c110469307b22788d1cb2ba064c8f55d57541fdafa9c67c3f83dd0ccb"),
    "fig03": (0, "51fd61a06b31ecd9c7c70f0b375ad701128ffb55f80bba842ac2d917c20a6099"),
    "fig04": (0, "d6d0f10171463e41566b55e78be135dfd2aee91689cbe4f4d43f10c29115ba96"),
    "fig05": (0, "d5a19f4732a86d6f1375ab5245ca4ee30a3febbcb017125ad51d670ee197d5c0"),
    "fig06": (0, "c716a93d7a0a74afeefe3c97c60f3827c5e6f6ddfb92ba6d642a2392dda6ca5d"),
    "fig07": (0, "62b381f69b4e40880da59ad1d6787fad0d19a12ad513597e980ea45188cd10ee"),
    "fig08": (0, "9cf25507279811c7269c4654067784ee54d3800538ec80197866b2de4903db89"),
    "fig09": (0, "de94d2dd871e7debc87b5da19c3f7414dcb8bc26cde73d40383865cf6b3adb12"),
    "fig10": (0, "ad1aae7e328b755ec192d11abde105152583d92182df545c8ae9d9f5d6f232af"),
    "scan_chain_eq6": (0, "79f97310ec0ba1059ecafd30b8a8c00203a58694941ab0bff7e09852b5cb21df"),
    "scan_envelope": (0, "f02c69b492443236aacc542bb72646cdb97fafa620f512cf5e38310ccc69d238"),
    "scan_envelope_a4_b3": (1, "dd5669e80ac79380a57867f6f690ca072aa1107aaf6dc2325a0c9ce059f0d2fb"),
    "scan_f_dec_eq2": (0, "827bc7755bf816c1bda6c9baa0ca7f897f29fae452fd9f1f3cbc04ec36a1c51c"),
    "scan_f_inc_sinh": (0, "ee39b17c2654f852f58b8978c4cfe3ca9920f08086c48811929fcdbec6076575"),
    "scan_g_negative": (0, "9dee13abc2287d4209be20a0d666cb3a4a24154e2a145d02c3e5ba2e0e96e0af"),
    "scan_jp_dominance": (0, "183217a43a0a85e9ecc25f1024f1a01ee6991e3dd732f6c9f6af0450ac26a2b1"),
    "scan_sandwich": (0, "0735ad1fc5ac7132aa132c2bc80f9c86adaca808ef2c669b6d8b7c36a8ce7b7f"),
    "table_V": (0, "25556c418894e500af75845961afe669492ec0ce04a1ff2cd9755cd50d52940f"),
    "table_VI": (0, "210ba2201405c2ffc99ccc4757e2319f2399f4fb86770211ca6da934b5af5968"),
    "table_VII": (0, "bc04dd5a1962b969029213e7be7db0d3f460296ba63861089ce9e80a4cc060d6"),
    "table_VIII": (0, "1b96b48a1cff2d12537a031923a2b22890e27dd446a7d95f75937c7d1cc7f5dc"),
}


def commands(out_dir: str) -> dict[str, tuple[list[str], str | None]]:
    """label -> (argv, the file the output goes to, or None for stdout)."""
    cmds = {}
    for p in ("V", "VI", "VII", "VIII"):
        path = os.path.join(out_dir, f"table_{p}.csv")
        cmds[f"table_{p}"] = (["table", "--preset", p, "--out", path], path)
    for f in range(1, 11):
        path = os.path.join(out_dir, f"fig{f:02d}.csv")
        cmds[f"fig{f:02d}"] = (["figdata", "--figure", str(f), "--out", path], path)
    for s in SCANS:
        cmds[f"scan_{s}"] = (["scan", "--property", s], None)
    cmds["scan_envelope_a4_b3"] = (["scan", "--property", "envelope", "--a", "4", "--b", "3"], None)
    return cmds


def digest(argv: list[str], path: str | None) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if path is None:
        data = buf.getvalue().encode("utf-8")
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return rc, hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("label", sorted(commands("")))
def test_output_matches_golden(label, tmp_path):
    argv, path = commands(str(tmp_path))[label]
    assert digest(argv, path) == GOLDEN[label]


def test_golden_covers_every_command():
    assert sorted(GOLDEN) == sorted(commands(""))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = []
        for label, (argv, path) in sorted(commands(tmp).items()):
            rc, sha = digest(argv, path)
            rows.append(f'    "{label}": ({rc}, "{sha}"),')
    sys.stdout.write("GOLDEN = {\n" + "\n".join(rows) + "\n}\n")
