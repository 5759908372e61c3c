"""The behaviour contract: every paper output, byte for byte.

The 21 commands that reproduce the paper (4 table presets, 10 figures,
7 scans) run in-process in csv and in json, and the known-red envelope
scan at a = 4, b = 3 in csv.  Tables and figures write their csv under a
temporary directory and print their json; scans print their report.
``eval`` runs in both formats at (1, 2), (2, 1), the tie (2, 2), the
origin, and at (1, 2e5) and (99.9, 1e6), far-tail points where Q1
underflows and the trapezoid runs beside the Bessel series (the Poisson
series' windows would be disjoint there, far over its cap).  So does a
custom table whose ids span both regimes (UB1JP, UB2JP at a = 2, b = 1, 2, 3), which pins its empty
cells and skip notes.  Each output's sha256 and the exit code must match GOLDEN,
and every json output must parse as RFC 8259 json, with no NaN or Infinity.  A
change that moves an output on purpose says why, and regenerates the dict from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from marcumq.cli import main

SCANS = ("g_negative", "f_dec_eq2", "f_inc_sinh", "chain_eq6", "envelope", "sandwich", "jp_dominance")

# label -> (exit code, sha256 of the output)
GOLDEN = {
    "eval_a0_b0": (0, "8dbcfcc526b84044fb04f2f05d75154020cc2c1308ce36c85d980deaaa5061f3"),
    "eval_a0_b0_json": (0, "8f4882edbb4c5779b4f5e26fcb551ee1711549b752ecd24c98b3b9804207b762"),
    "eval_a1_b2": (0, "b05cd82583ff0a5e6c3443eb9f534f6d0519ad4c9036f2706dbaca96f735c985"),
    "eval_a1_b200000": (0, "d6d92f564b0548e93b4d85b685c177a752bb56d73ec17acd9ef8aba5125d3b8d"),
    "eval_a1_b200000_json": (0, "b08c651e19c2aab1fc72109fb3c1cbb2611b68a3f1e1ab7294aa5c0588ea3666"),
    "eval_a1_b2_json": (0, "27243c8cf6f5346bd522b741055227eababe1543993a27f076612d7f38cec966"),
    "eval_a2_b1": (0, "98b1416dab9d949724cd5c6fd203d500c2baf10a7f82e708f34d3eb932fb5473"),
    "eval_a2_b1_json": (0, "989758c63a56c8b8fafb8da91ebdbe09ff3c95fa6834256b61a220c9d6cc7c13"),
    "eval_a2_b2": (0, "89ba452c0ef6a315c9623c9fee6fba383e03051135cde80e2acefb0b54359e13"),
    "eval_a2_b2_json": (0, "ecea112de978069f1402b9d4400643074797fcd4490b291ceebb84a909bbf604"),
    "eval_a99.9_b1000000": (0, "9ea53ff6de42bdfe7c1c6f0f741c31a350bc17398d32552daaa59b80dc2f6356"),
    "eval_a99.9_b1000000_json": (0, "79166bd5f951fe0eba49d631396eb26b82d1dade3d0005857bcbb75a0263869d"),
    "fig01": (0, "61ab07d1f48e3e426b108b5c17e95ea199aecfcb793464373173c3522ca07d03"),
    "fig01_json": (0, "fc10f3c05de9f91c52ed4805721e1ab0639c767e51c6e906fb049886da1de138"),
    "fig02": (0, "4d60f35c110469307b22788d1cb2ba064c8f55d57541fdafa9c67c3f83dd0ccb"),
    "fig02_json": (0, "176dacd2262f513c6993a4abc06e9e98a0b772805ed581a36d83be67c4b98ec6"),
    "fig03": (0, "723bdfeff0e9566a9255871ce71f560a60d04cbec0e931e387f1b9afd747aae7"),
    "fig03_json": (0, "612573eb302c7494c964cf24634bb72ad6e1bc9153d82c826b3fdef190a9de39"),
    "fig04": (0, "f1d9c36c1489fc121b0c635fb450d2dc76fff57bb6eee79e049041d2322bd5fd"),
    "fig04_json": (0, "d06b4de3d05106ef838e91987b65cfddc65185cde9e1668b655aad944379301d"),
    "fig05": (0, "f73cb3bff3be4bdec5bc5b25a91fdef85e1f5aa2a0a42d2f253ebfc449f79159"),
    "fig05_json": (0, "35d68d322fe0f1105e999128b1284f86bd6f0d503b808ddc2343824aac601b11"),
    "fig06": (0, "6379d04b5d2efac2113acbcaa5a4a34389628f1b788b8ca48a62595091fb188f"),
    "fig06_json": (0, "fb7b250ae8abfcdafd16f377b5e34c5baa0c96138b22ef61ca5b6666684e5cae"),
    "fig07": (0, "4b4a9ea68877a1c0a09b6d279b4f9f1bdcc8da1f4f2cf0b8a36831e50418817d"),
    "fig07_json": (0, "1f829600f5f298bbf928c46309077423c083bdf7d37cbb85db2c74291f03e686"),
    "fig08": (0, "c74523cfb99d3853963f9d9fa8d0ab41471aa275c4c97bdebc2398b9b0363271"),
    "fig08_json": (0, "20397607f82359be7a9fe188e25cc39caf09c5fbd61ea81e7aec5b40094cc540"),
    "fig09": (0, "51b603190d6af2d83483913cce06c926c4117af685d2044a5c4a0ce939eb050c"),
    "fig09_json": (0, "af577b6930d7835f13cc8e534056b6d2045dcfdd527b1b0decd5f2d20f9258be"),
    "fig10": (0, "44976998429e97b4338865d02162018416bc9a3d4484a1ca4f11f1b641703614"),
    "fig10_json": (0, "68d6b003d86fa3d27a4cbcb3783b386294aaec57adb9549a1a0a2639f9650f4f"),
    "scan_chain_eq6": (0, "79f97310ec0ba1059ecafd30b8a8c00203a58694941ab0bff7e09852b5cb21df"),
    "scan_chain_eq6_json": (0, "746a4bbb6f456d219adf047304e3e42860fedc467f39d17589b6dd0d9d39f81f"),
    "scan_envelope": (0, "ea3be2272067916d2ad98e720becfef8dee7f64d2896d019682dd47bd94539ba"),
    "scan_envelope_a4_b3": (1, "dd5669e80ac79380a57867f6f690ca072aa1107aaf6dc2325a0c9ce059f0d2fb"),
    "scan_envelope_json": (0, "db3ee838b11a03efab10cc64f99109c7fae03f0589c1858b8fa3e6d0d9176fd9"),
    "scan_f_dec_eq2": (0, "827bc7755bf816c1bda6c9baa0ca7f897f29fae452fd9f1f3cbc04ec36a1c51c"),
    "scan_f_dec_eq2_json": (0, "477f7095f4566472632ff2157d893e5844a3334583d8b82773b0882dfe335d7c"),
    "scan_f_inc_sinh": (0, "ee39b17c2654f852f58b8978c4cfe3ca9920f08086c48811929fcdbec6076575"),
    "scan_f_inc_sinh_json": (0, "963bc96ce1654b43a3032c84dc12989650c2261c500662b0c8f691834a414156"),
    "scan_g_negative": (0, "9dee13abc2287d4209be20a0d666cb3a4a24154e2a145d02c3e5ba2e0e96e0af"),
    "scan_g_negative_json": (0, "5b1515e0e6b831298cd0aac6f5f4aa60121ecb512c34f34f68ab5109b2af87be"),
    "scan_jp_dominance": (0, "183217a43a0a85e9ecc25f1024f1a01ee6991e3dd732f6c9f6af0450ac26a2b1"),
    "scan_jp_dominance_json": (0, "062a5eec826657db7b19aa2385fc595c6e0cef9c2d56220cc44ef2bf56126d45"),
    "scan_sandwich": (0, "0735ad1fc5ac7132aa132c2bc80f9c86adaca808ef2c669b6d8b7c36a8ce7b7f"),
    "scan_sandwich_json": (0, "cf7d688765814de2fa58b1098db6889b64da2e4ce1312c115740b06195da23ed"),
    "table_V": (0, "25556c418894e500af75845961afe669492ec0ce04a1ff2cd9755cd50d52940f"),
    "table_VI": (0, "210ba2201405c2ffc99ccc4757e2319f2399f4fb86770211ca6da934b5af5968"),
    "table_VII": (0, "5c2410f522b809d02c4d2bd56aea122f490971bf2fbda7fe92417531a6434b64"),
    "table_VIII": (0, "3cbb4d16875c97638976310b0b60001b10cfd256f9675ca66ffd5320bc79139a"),
    "table_VIII_json": (0, "16c9d2f33b91023955d8fe1fd1676085b01050422f247dd02f8a218e7ae72ad8"),
    "table_VII_json": (0, "1f419445ee880f937fc334005ce85a354c67d3332b38c29d8d51c9172dae7996"),
    "table_VI_json": (0, "0c037cb0d653866bc0a1b21938b285bc5ccca4cc0b7d3bd59ddf607a0ff5554a"),
    "table_V_json": (0, "63373d98dcfcf02ec50c24d45f5eb2366c44cc65ca70f47463b541c2c15c1875"),
    "table_custom": (0, "a3eee0933a67ec2b7f641a721b4b35b223175ddd12a4611e79ab03efc02b8c9a"),
    "table_custom_json": (0, "50856fb1f9d9b3fb8a9a5172da28b180fff30a48cdb37e9ae5d2b52631477296"),
}


def commands(out_dir: str) -> dict[str, tuple[list[str], str | None]]:
    """label -> (argv, the file the output goes to, or None for stdout)."""
    cmds = {}
    json = ["--format", "json"]
    for p in ("V", "VI", "VII", "VIII"):
        path = os.path.join(out_dir, f"table_{p}.csv")
        cmds[f"table_{p}"] = (["table", "--preset", p, "--out", path], path)
        cmds[f"table_{p}_json"] = (["table", "--preset", p] + json, None)
    for f in range(1, 11):
        path = os.path.join(out_dir, f"fig{f:02d}.csv")
        cmds[f"fig{f:02d}"] = (["figdata", "--figure", str(f), "--out", path], path)
        cmds[f"fig{f:02d}_json"] = (["figdata", "--figure", str(f)] + json, None)
    for s in SCANS:
        cmds[f"scan_{s}"] = (["scan", "--property", s], None)
        cmds[f"scan_{s}_json"] = (["scan", "--property", s] + json, None)
    cmds["scan_envelope_a4_b3"] = (["scan", "--property", "envelope", "--a", "4", "--b", "3"], None)
    path = os.path.join(out_dir, "table_custom.csv")
    custom = ["table", "--a", "2", "--b-start", "1", "--b-end", "3", "--b-step", "1", "--ids", "UB1JP,UB2JP"]
    cmds["table_custom"] = (custom + ["--out", path], path)
    cmds["table_custom_json"] = (custom + json, None)
    for a, b in ((1, 2), (2, 1), (2, 2), (0, 0), (1, 200000), (99.9, 1000000)):
        argv = ["eval", "--a", str(a), "--b", str(b)]
        cmds[f"eval_a{a}_b{b}"] = (argv, None)
        cmds[f"eval_a{a}_b{b}_json"] = (argv + json, None)
    return cmds


def output(argv: list[str], path: str | None) -> tuple[int, bytes]:
    """(exit code, the bytes written to path, or to stdout if it is None)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if path is None:
        return rc, buf.getvalue().encode("utf-8")
    with open(path, "rb") as fh:
        return rc, fh.read()


def digest(argv: list[str], path: str | None) -> tuple[int, str]:
    rc, data = output(argv, path)
    return rc, hashlib.sha256(data).hexdigest()


def _refuse(token: str):
    raise ValueError(f"{token} is not RFC 8259 json")


@pytest.mark.parametrize("label", sorted(commands("")))
def test_output_matches_golden(label, tmp_path):
    argv, path = commands(str(tmp_path))[label]
    rc, data = output(argv, path)
    assert (rc, hashlib.sha256(data).hexdigest()) == GOLDEN[label]
    if label.endswith("_json"):
        # NaN and Infinity are written as null; json.loads takes those
        # tokens only through parse_constant
        json.loads(data, parse_constant=_refuse)


def test_golden_covers_every_command():
    assert sorted(GOLDEN) == sorted(commands(""))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = []
        for label, (argv, path) in sorted(commands(tmp).items()):
            rc, sha = digest(argv, path)
            rows.append(f'    "{label}": ({rc}, "{sha}"),')
    sys.stdout.write("GOLDEN = {\n" + "\n".join(rows) + "\n}\n")
