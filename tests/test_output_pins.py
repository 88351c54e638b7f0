"""Byte pins of every file three CLI commands write.

The commands cover a quadratic with a compressed init, a manual stepsize and a
non-identity master; a bidirectional synthetic run that stops on its bit
budget; and a reference-minimum cache file. The digests hold for the BLAS
build named in ``test_acceptance.py``.
"""

import hashlib
from pathlib import Path

import pytest

from adacgd.cli import main as cli_main

COMMANDS = {
    "quadratic-compressed-init": (
        ["run", "--dataset", "quadratic:diag=1|2|4,n=3", "--method", "gd lag:zeta=2 adacgd:klist=1|2",
         "--master", "ef21:k=2", "--stepsize", "manual:0.05", "--init", "compressed", "--multipliers", "1 3",
         "--stop", "rounds=3"],
        {
            "traces/adacgd_z1_x1.csv": "415f6a0156774bfc5ee91ed11c3b35ce98d6e476c0265e5c0d57c9f4fb4d1bf2",
            "traces/adacgd_z1_x3.csv": "3a3f78ba57d52095721fa25fc27af87ffea14bc14fc9dc75c0f0e14f18b39dd4",
            "traces/gd_x1.csv": "6d66484b85e01c5bf755472ebf01d965b7f069f2ab4a14bd723d6b947ba1790a",
            "traces/gd_x3.csv": "76090636864a14c01308a609487dec72150dd91a18742e79b8cf95a5441b3fff",
            "traces/lag_z2_x1.csv": "4ee98141d4d160f42124a8cc009b642ff7c724bbd4d6a2d0ff12fe02de581600",
            "traces/lag_z2_x3.csv": "0e81a9177e144db7728f8150a6f8f8f52cafd9a80a875e0eef268e02db788692",
            "traces/summary.csv": "959ddedaa57de9c1aefabd3c19e9756fc08678f52e53594726ec6b48d8ff0382",
        },
    ),
    "synthetic-bidirectional-bit-budget": (
        ["run", "--dataset", "synthetic:n=40,d=6,seed=3", "--n-clients", "4", "--method", "ef21:k=2 clag:k=1,zeta=0.5",
         "--stepsize", "bidirectional", "--master", "ef21:k=3", "--stop", "rounds=50,bits=20000"],
        {
            "traces/clag_k1_z0.5_x1.csv": "482f3a87c774280deddd353128c15a9163da1c1f360e900de0e6b0884313bcf1",
            "traces/ef21_k2_x1.csv": "b4701183df46f1e9d53ddb4fb6002a449a4e4cad5f601c20b218c704bfa0453f",
            "traces/summary.csv": "f95a9dc4e80f58a3a2c3ca3b1be45ab490f7fe15c5900dc056e6abe3826d8f51",
        },
    ),
    "solve-reference": (
        ["solve-reference", "--dataset", "synthetic:n=30,d=4,seed=2", "--n-clients", "2", "--lam", "0.1",
         "--tolerance", "1e-6"],
        {"traces/ref_f7bbc070fc775d1c.txt": "253f066b06f9c33e49fa6f2d672a3799c4bf577ff59a97eec497ca8ef1882ba4"},
    ),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_cli_output_files_are_pinned(tmp_path, monkeypatch, capsys, name):
    argv, pinned = COMMANDS[name]
    monkeypatch.chdir(tmp_path)  # every command writes under the default ./traces
    monkeypatch.delenv("ADACGD_OUT_DIR", raising=False)
    assert cli_main(argv) == 0
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert written == pinned
