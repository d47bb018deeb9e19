"""Seeded fuzz of every subcommand over mutated .sc and certificate bytes.

Whatever the bytes, the exit code stays a verdict (0, 1, 2) or an input
error (3), no traceback leaks, and an input error says so on exactly one
``error:`` line.
"""

import random

from shellsat.cli import main

SEED = 0
MUTANTS = 10
BUDGET = "2000"

COMPLEXES = {
    "fan": "a b c\na c d\na d e\n",
    "bowtie": "a b c\nc d e\n",
    "sphere": "a b c\na b d\na c d\nb c d\n",
    "graph": "a b\na c\na d\nb c\nc d\n",
}
BUDGETED = [["shell"], ["collapse"], ["collapse", "--k", "1"], ["wsat"],
            ["wsat", "--number"], ["chain"]]
COMMANDS = [["info"], ["sd"]] + [[*argv, "--budget", BUDGET] for argv in BUDGETED]
# (input, subcommand) pairs whose certificates are mutated.
CERTIFIED = [("fan", "shell"), ("fan", "collapse"), ("fan", "wsat"), ("graph", "wsat")]


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One byte flip, truncation, duplicated or swapped line, or non-UTF-8 byte."""
    lines = data.split(b"\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    at = rng.randrange(len(data))
    kind = rng.randrange(5)
    if kind == 0:
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    if kind == 1:
        return data[:at]
    if kind == 2:
        lines.insert(i, lines[i])
    elif kind == 3:
        lines[i], lines[j] = lines[j], lines[i]
    else:
        return data[:at] + bytes([rng.randrange(0x80, 0x100)]) + data[at:]
    return b"\n".join(lines)


def fuzz(directory, capsys) -> list[tuple[str, int, str, str]]:
    """Run every fuzz call; returns (call, exit code, stdout, stderr) rows."""
    rng = random.Random(SEED)
    rows = []

    def call(*argv: str) -> tuple[int, str, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        rows.append((" ".join(argv).replace(str(directory), "."),
                     code, captured.out, captured.err))
        return code, captured.out, captured.err

    for name, text in COMPLEXES.items():
        base = directory / f"{name}.sc"
        base.write_text(text, encoding="utf-8")
        for m in range(MUTANTS):
            path = directory / f"{name}.{m}.sc"
            path.write_bytes(mutate(text.encode(), rng))
            for argv in COMMANDS:
                call(argv[0], "--in", str(path), *argv[1:])
    for name, kind in CERTIFIED:
        base = str(directory / f"{name}.sc")
        code, cert, _ = call(kind, "--in", base, "--budget", BUDGET)
        assert code == 0
        for m in range(MUTANTS):
            path = directory / f"{name}.{kind}.{m}.cert"
            path.write_bytes(mutate(cert.encode(), rng))
            call(kind, "--in", base, "--verify", "--cert", str(path))
            call("convert", "--in", base, "--cert", str(path))
    return rows


def test_mutated_inputs_keep_the_verdict_channel(tmp_path, capsys):
    for argv, code, _, err in fuzz(tmp_path, capsys):
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code == 3:
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1, (argv, err)
