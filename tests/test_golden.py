"""Byte identity of the CLI on a small seeded corpus.

Each case pins the exit code and stdout of one call by a SHA-256 prefix.
The certificates, reports and exit codes are the program's contract, so a
change to any of these bytes is a deliberate one: update the table and say
why in CHANGES.md.
"""

import hashlib
import random

import pytest

from shellsat.cli import main
from shellsat.harness import enumerate_pure2, sample_connected_graph, sample_pure2

BUDGET = "20000"

EXPECTED = {
    "complex0 shell": "be87d50451af0581",
    "complex0 collapse": "aa2dd75f89a303cf",
    "complex0 collapse --k 0": "aa2dd75f89a303cf",
    "complex0 wsat": "ba22ea0045ea092e",
    "complex0 chain --json": "ce9fbce1f9670115",
    "complex1 shell": "5d6c1c32d8e39d4a",
    "complex1 collapse": "48ae1f6449c4d8af",
    "complex1 collapse --k 0": "48ae1f6449c4d8af",
    "complex1 wsat": "84ab26f209106a33",
    "complex1 chain --json": "8e8364f0edaf9e48",
    "complex2 shell": "11dc465e765204cf",
    "complex2 collapse": "acb28384f7640609",
    "complex2 collapse --k 0": "acb28384f7640609",
    "complex2 wsat": "374b94b9e995d6ec",
    "complex2 chain --json": "7f137da19b954918",
    "complex3 shell": "a2b368b1ec9f0108",
    "complex3 collapse": "6ea60cad0dea0721",
    "complex3 collapse --k 0": "6ea60cad0dea0721",
    "complex3 wsat": "2ddb72fbc8493a3f",
    "complex3 chain --json": "bf93630406723a6f",
    "complex4 shell": "4db309e4774e69ef",
    "complex4 collapse": "c7e8469a05c4eca4",
    "complex4 collapse --k 0": "c7e8469a05c4eca4",
    "complex4 wsat": "1e8eef54eb03319e",
    "complex4 chain --json": "e4b8d84dcab38164",
    "complex5 shell": "4c0970c6bd883f8a",
    "complex5 collapse": "e49868473b35966c",
    "complex5 collapse --k 0": "e49868473b35966c",
    "complex5 wsat": "8aaf9aa3953521eb",
    "complex5 chain --json": "58888c3d881c12fe",
    "complex6 shell": "11dc465e765204cf",
    "complex6 collapse": "47239610e7f0710b",
    "complex6 collapse --k -1": "1121cfccd5913f0a",
    "complex6 wsat": "157d1d3cfa5fa4e1",
    "complex6 chain --json": "25c527b6d85f083d",
    "complex7 shell": "11dc465e765204cf",
    "complex7 collapse": "47239610e7f0710b",
    "complex7 collapse --k -1": "1121cfccd5913f0a",
    "complex7 wsat": "7c884d033383f549",
    "complex7 chain --json": "e795599f24bc41b2",
    "complex8 shell": "c8f3a1ef3cf55d31",
    "complex8 collapse": "e6bed2f93e8ba669",
    "complex8 collapse --k 0": "e6bed2f93e8ba669",
    "complex8 wsat": "7b5efab53f0d9c20",
    "complex8 chain --json": "73220e2ff6f7b634",
    "complex9 shell": "11f80686846ef518",
    "complex9 collapse": "3eb7484cdb7b0b08",
    "complex9 collapse --k 0": "3eb7484cdb7b0b08",
    "complex9 wsat": "6f3c02317f825e7d",
    "complex9 chain --json": "0844d67430042a21",
    "complex10 shell": "fd7c95ed65debfcf",
    "complex10 collapse": "b3ef3bcd494f1761",
    "complex10 collapse --k 0": "b3ef3bcd494f1761",
    "complex10 wsat": "09bf80db39f348de",
    "complex10 chain --json": "d4a33f303a025871",
    "complex11 shell": "3eb206f7371c41fd",
    "complex11 collapse": "e73beaac4717e6d5",
    "complex11 collapse --k 0": "e73beaac4717e6d5",
    "complex11 wsat": "eebb95e0a3d85d87",
    "complex11 chain --json": "af4deb533608ea09",
    "graph0 wsat": "3f2895adaa593979",
    "graph0 wsat --number": "3884c5d83ce5746b",
    "graph1 wsat": "c68ca2aad581ceb8",
    "graph1 wsat --number": "3884c5d83ce5746b",
    "graph2 wsat": "1dab3f430c65735f",
    "graph2 wsat --number": "3884c5d83ce5746b",
    "graph3 wsat": "86f04eda11ce09c2",
    "graph3 wsat --number": "21dff6a60c023a2e",
}


def corpus() -> dict[str, tuple[str, list[list[str]]]]:
    """Case name -> (.sc text, argument lists after ``--in FILE``)."""
    rng = random.Random(2025)
    complexes = list(enumerate_pure2(5, 3))
    complexes += [sample_pure2(rng, 6, 5)[0] for _ in range(4)]
    complexes += [complexes[1].barycentric_subdivision()]
    cases = {}
    for i, K in enumerate(complexes):
        chi = str(K.reduced_euler_characteristic())
        cases[f"complex{i}"] = (K.to_sc(), [
            ["shell"], ["collapse"], ["collapse", "--k", chi], ["wsat"],
            ["chain", "--json"]])
    for i in range(4):
        graph = sample_connected_graph(rng, 6, 0.5)
        cases[f"graph{i}"] = (graph.to_sc(), [["wsat"], ["wsat", "--number"]])
    return cases


def digests(directory, capsys) -> dict[str, str]:
    out = {}
    for name, (text, commands) in corpus().items():
        path = directory / f"{name}.sc"
        path.write_text(text, encoding="utf-8")
        for argv in commands:
            code = main([argv[0], "--in", str(path), "--budget", BUDGET, *argv[1:]])
            stdout = capsys.readouterr().out
            digest = hashlib.sha256(f"{code}\n{stdout}".encode("utf-8")).hexdigest()
            out[" ".join([name, *argv])] = digest[:16]
    return out


def test_cli_output_bytes_are_pinned(tmp_path, capsys):
    assert digests(tmp_path, capsys) == EXPECTED
