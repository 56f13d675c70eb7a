"""End-to-end contracts of CLI outputs, checked in-process."""

import json

from repro.cli import main


def test_contiguous_exposure_exceeds_pseudo_random(tmp_path, capsys):
    out = tmp_path / "attack_seq.json"
    code = main([
        "attack", "--strategy", "known-assignment",
        "--trials", "2", "--seed", "7", "--json", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    contiguous = doc["contiguous"]["summary"]["victim_gain"]["mean"]
    random = doc["pseudo-random"]["summary"]["victim_gain"]["mean"]
    assert contiguous > random, (contiguous, random)
    assert doc["exposure_ratio"] > 1.5, doc["exposure_ratio"]
