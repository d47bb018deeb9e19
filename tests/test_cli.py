"""CLI behaviour: exit codes, certificate round trips, determinism, JSON."""

import argparse
import json

import pytest

from shellsat import shelling
from shellsat.cli import _build_parser, _parse, main, to_json
from shellsat.collapse import is_collapsible
from shellsat.complexes import from_facets
from shellsat.errors import ConnectivityError
from shellsat.outcomes import Budget, BudgetExceeded, NotCollapsible, Unshellable

TWO_TRIANGLES = "a b c\nb c d\n"
BOWTIE = "a b c\nc d e\n"
C4 = "a b\nb c\nc d\na d\n"
THREE_CYCLE = "a b\nb c\na c\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "two.sc").write_text(TWO_TRIANGLES)
    (tmp_path / "bowtie.sc").write_text(BOWTIE)
    (tmp_path / "c4.sc").write_text(C4)
    (tmp_path / "cyc3.sc").write_text(THREE_CYCLE)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


# -- info ------------------------------------------------------------------------

def test_info_reports_structure(workdir, capsys):
    assert run("info", "--in", workdir / "two.sc") == 0
    out = capsys.readouterr().out
    assert "reduced-euler-characteristic: 0" in out
    assert "pure: true" in out
    assert "dimension: 2" in out
    assert "flag: true" in out
    assert "connected: true" in out


def test_info_json(workdir, capsys):
    assert run("info", "--in", workdir / "two.sc", "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["f_vector"] == [1, 4, 5, 2]
    assert data["flag"] is True


# The whole info report, text and JSON, for a 2-complex, a 3-complex (no
# flagness: "n/a", null) and a non-pure one whose file name has capitals.
INFO_CASES = {
    "two.sc": (TWO_TRIANGLES, """\
fingerprint: 06f1d56e5bffdc2b
dimension: 2
f-vector: 1 4 5 2
reduced-euler-characteristic: 0
pure: true
connected: true
flag: true
facets: 2
""", {"fingerprint": "06f1d56e5bffdc2b", "dimension": 2, "f_vector": [1, 4, 5, 2],
      "reduced_euler_characteristic": 0, "pure": True, "connected": True,
      "flag": True, "facets": 2}),
    "solid.sc": ("a b c d\nb c d e\n", """\
fingerprint: 6b800fd93283a8a8
dimension: 3
f-vector: 1 5 9 7 2
reduced-euler-characteristic: 0
pure: true
connected: true
flag: n/a
facets: 2
""", {"fingerprint": "6b800fd93283a8a8", "dimension": 3,
      "f_vector": [1, 5, 9, 7, 2], "reduced_euler_characteristic": 0,
      "pure": True, "connected": True, "flag": None, "facets": 2}),
    "Flag_True.sc": ("A b c\nc D\n", """\
fingerprint: c66d679424d50856
dimension: 2
f-vector: 1 4 4 1
reduced-euler-characteristic: 0
pure: false
connected: true
flag: true
facets: 2
""", {"fingerprint": "c66d679424d50856", "dimension": 2, "f_vector": [1, 4, 4, 1],
      "reduced_euler_characteristic": 0, "pure": False, "connected": True,
      "flag": True, "facets": 2}),
}


@pytest.mark.parametrize("name", INFO_CASES)
def test_info_report_is_pinned(workdir, capsys, name):
    sc, text, data = INFO_CASES[name]
    path = workdir / name
    path.write_text(sc)
    assert run("info", "--in", path) == 0
    assert capsys.readouterr().out == f"file: {path}\n" + text
    assert run("info", "--in", path, "--json") == 0
    assert capsys.readouterr().out == json.dumps(
        {"file": str(path), **data}, indent=2) + "\n"


# -- verdict exit codes --------------------------------------------------------------

def test_wsat_c4_refuted(workdir):
    assert run("wsat", "--in", workdir / "c4.sc") == 1


def test_shell_bowtie_refuted(workdir):
    assert run("shell", "--in", workdir / "bowtie.sc") == 1


def test_collapse_three_cycle_refuted(workdir):
    assert run("collapse", "--in", workdir / "cyc3.sc") == 1


def test_collapse_solid_tetrahedron_is_a_usage_error(workdir, capsys):
    solid = workdir / "solid.sc"
    solid.write_text("a b c d\n")
    assert run("collapse", "--in", solid) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_collapse_verify_rejects_a_removed_triangle_that_is_no_facet(workdir, capsys):
    tet = workdir / "tet.sc"
    tet.write_text("a b c d\n")
    assert run("info", "--json", "--in", tet) == 0
    fingerprint = json.loads(capsys.readouterr().out)["fingerprint"]
    cert = workdir / "tet.cert"
    cert.write_text(f"# collapse of {fingerprint}\n# removed: a b c\n"
                    "a -> a b c d\n# target:\nb c d\n")
    assert run("collapse", "--verify", "--in", tet, "--cert", cert) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a triangle facet" in err


# -- connectivity, checked only where a search has no answer --------------------------------------

ANNULUS = ["0 1 3", "1 3 4", "1 2 4", "2 4 5", "0 2 5", "0 3 5"]
WEDGE = ["a b c", "b c d", "d e f", "e f g"]  # two disks sharing the vertex d


def strip(prefix, m=5):
    return [" ".join(f"{prefix}{i + j}" for j in range(3)) for i in range(m)]


def refuses_as_disconnected(workdir, capsys, command, facets, budget=None):
    """The search on the complex raises ConnectivityError after spending
    nodes, and the CLI exits 3 with the line it printed when connectivity
    was checked before any search; returns the nodes spent."""
    search, what = {"shell": (shelling.find_shelling, "shelling search"),
                    "collapse": (is_collapsible, "collapsibility search")}[command]
    spent = Budget(budget)
    with pytest.raises(ConnectivityError, match=f"^{what} requires a connected complex$"):
        search(from_facets(facets), spent)
    (workdir / "apart.sc").write_text("".join(f"{f}\n" for f in facets))
    argv = ["--budget", budget] if budget is not None else []
    assert run(command, "--in", workdir / "apart.sc", *argv) == 3
    assert capsys.readouterr() == ("", f"error: {what} requires a connected complex\n")
    return spent.used


def test_disjoint_triangles_shell_raises_when_first_stuck(workdir, capsys):
    # a b c is placed, then no facet shares one of its edges
    assert refuses_as_disconnected(workdir, capsys, "shell", ["a b c", "d e f"]) == 1


def test_disjoint_triangles_collapse_raises_on_the_forest_left(workdir, capsys):
    # two free edges, then two leaves of each path, which keeps a vertex each
    assert refuses_as_disconnected(workdir, capsys, "collapse", ["a b c", "d e f"]) == 6


def test_annulus_and_triangle_collapse_raises_on_the_core_left(workdir, capsys):
    assert is_collapsible(from_facets(ANNULUS)) == NotCollapsible()
    assert refuses_as_disconnected(workdir, capsys, "collapse", ANNULUS + ["x y z"]) > 0


@pytest.mark.parametrize("command", ["shell", "collapse"])
def test_disjoint_strips_raise_when_the_budget_runs_out(workdir, capsys, command):
    search = {"shell": shelling.find_shelling, "collapse": is_collapsible}[command]
    assert isinstance(search(from_facets(strip("a")), 2), BudgetExceeded)
    assert refuses_as_disconnected(workdir, capsys, command, strip("a") + strip("b"), 2) > 2


def test_wedge_and_triangle_shell_raises_before_the_refutation(workdir, capsys, monkeypatch):
    assert shelling.find_shelling(from_facets(WEDGE)) == Unshellable(decided_by="link")
    asked = []
    refuted = shelling._refuted
    monkeypatch.setattr(shelling, "_refuted", lambda K, budget: asked.append(K) or refuted(K, budget))
    assert refuses_as_disconnected(workdir, capsys, "shell", WEDGE + ["x y z"]) == 2
    assert asked == []


def test_a_single_vertex_collapses_to_itself(workdir, capsys):
    cert = is_collapsible(from_facets(["a"]))
    assert cert.steps == () and cert.target == ((0,),)
    (workdir / "point.sc").write_text("a\n")
    assert run("collapse", "--in", workdir / "point.sc", "--json") == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "collapsible"


def test_budget_exit_code(workdir):
    assert run("shell", "--in", workdir / "two.sc", "--budget", 0) == 2


def test_malformed_input_exit_code(workdir, capsys):
    bad = workdir / "bad.sc"
    bad.write_text("a b c\na a b\n")
    assert run("info", "--in", bad) == 3
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_code(workdir):
    assert run("info", "--in", workdir / "nope.sc") == 3


def test_non_utf8_input_exit_code(workdir, capsys):
    latin = workdir / "latin.sc"
    latin.write_bytes(b"a b \xe9\n")
    assert run("info", "--in", latin) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_directory_input_exit_code(workdir, capsys):
    assert run("shell", "--in", workdir) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("failure", [RecursionError, MemoryError])
def test_resource_failure_is_not_a_refutation(workdir, capsys, monkeypatch, failure):
    def exhausted(*args, **kwargs):
        raise failure()

    monkeypatch.setattr("shellsat.shelling.find_shelling", exhausted)
    assert run("shell", "--in", workdir / "two.sc") == 3
    assert capsys.readouterr().err == f"error: {failure.__name__}\n"


@pytest.mark.parametrize("argv", [
    ["shell", "--in", "two.sc", "--budget", -1],
    ["collapse", "--in", "two.sc", "--budget", -1],
    ["wsat", "--in", "c4.sc", "--budget", -1],
    ["chain", "--in", "two.sc", "--budget", -1],
    ["gen", "--out", "x", "--mode", "enumerate-all", "--n", 4, "--t", 2, "--count", -1],
    ["gen", "--out", "x", "--mode", "random-pure-2", "--n", 4, "--t", 2, "--count", -1],
    ["sd", "--in", "two.sc", "--depth", -1],
])
def test_negative_argument_is_a_usage_error(workdir, capsys, monkeypatch, argv):
    monkeypatch.chdir(workdir)
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_usage_error_exit_code():
    assert main(["shell"]) == 3          # missing --in
    assert main(["no-such-command"]) == 3


def test_threads_validation(workdir):
    # --threads was removed: it selected nothing, so any use is a usage error.
    assert run("shell", "--in", workdir / "two.sc", "--threads", 0) == 3
    assert run("shell", "--in", workdir / "two.sc", "--threads", 4) == 3


def parser_rows():
    """One argv per way the parse can go: for each command a valid call,
    help, a required option missing, a bad or unknown option; then no
    command, top-level help, an unknown command and an option first."""
    valid = {
        "info": ["--in", "k.sc"], "sd": ["--in", "k.sc", "--depth", "2"],
        "shell": ["--in", "k.sc", "--budget", "5"],
        "collapse": ["--in", "k.sc", "--k", "1", "--json"],
        "wsat": ["--in", "k.sc", "--number"],
        "convert": ["--in", "k.sc", "--cert", "c.cert"],
        "chain": ["--in", "k.sc", "--out", "r.txt"],
        "gen": ["--out", "d", "--mode", "enumerate-all", "--n", "4", "--t", "2"],
    }
    assert valid.keys() == _build_parser().commands.keys()
    for command, args in valid.items():
        yield [command, *args]
        yield [command, *args, "-h"]
        yield [command, *args[2:]]  # without --in (gen: without --out)
        for extra in (["--budget", "x"], ["--threads", "4"], ["--bogus"]):
            yield [command, *args, *extra]
    yield from ([], ["-h"], ["no-such-command"], ["--json", "info", "--in", "k.sc"])


def test_command_parser_selection_matches_the_full_parser(capsys):
    """main's one-pass parse gives the full parser's namespace, or exits
    with its code and its output, on every row."""
    def outcome(parse, argv):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    namespaces = 0
    for argv in parser_rows():
        ours, full = outcome(_parse, argv), outcome(_build_parser().parse_args, argv)
        assert ours == full, argv
        namespaces += isinstance(full[0], argparse.Namespace)
    assert namespaces == 8  # the valid calls


def test_absorbed_face_warning_on_stderr(workdir, capsys):
    absorb = workdir / "absorb.sc"
    absorb.write_text("a b\nb\n")
    assert run("info", "--in", absorb) == 0
    assert "absorbed" in capsys.readouterr().err


# -- searches and round trips ------------------------------------------------------------

def test_shell_certificate_round_trip(workdir, capsys):
    cert = workdir / "shelling.cert"
    assert run("shell", "--in", workdir / "two.sc", "--cert", cert) == 0
    assert run("shell", "--in", workdir / "two.sc", "--cert", cert, "--verify") == 0
    capsys.readouterr()
    # Tampering: swap the two facets; the bowtie-style break is caught.
    lines = cert.read_text().splitlines()
    cert.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    assert run("shell", "--in", workdir / "two.sc", "--cert", cert, "--verify") in (0, 1)


def test_collapse_certificate_round_trip(workdir):
    cert = workdir / "collapse.cert"
    assert run("collapse", "--in", workdir / "two.sc", "--cert", cert) == 0
    assert run("collapse", "--in", workdir / "two.sc", "--cert", cert,
               "--verify") == 0


def test_collapse_after_removal_flag(workdir):
    tetra = workdir / "tetra.sc"
    tetra.write_text("a b c\na b d\na c d\nb c d\n")
    cert = workdir / "removal.cert"
    assert run("collapse", "--in", tetra, "--k", 1, "--cert", cert) == 0
    assert run("collapse", "--in", tetra, "--cert", cert, "--verify") == 0
    assert run("collapse", "--in", tetra, "--k", 0) == 1  # chi = 1, Euler gate


def test_wsat_certificate_round_trip(workdir):
    k4 = workdir / "k4.sc"
    k4.write_text("a b\na c\na d\nb c\nb d\nc d\n")
    cert = workdir / "sat.cert"
    assert run("wsat", "--in", k4, "--cert", cert) == 0
    assert run("wsat", "--in", k4, "--cert", cert, "--verify") == 0


def test_wsat_verify_rejects_a_start_entry_that_is_no_edge(workdir, capsys):
    # "# start:" lists edges.  An entry of one label or of four is malformed
    # (exit 3) and the error names its line; without it the rest verifies.
    for entry in ("a", "a b c d"):
        cert = workdir / "start.cert"
        cert.write_text(f"# pattern: K3\n# start: {entry}, a c, b d, c d\n"
                        "b c : b c d\na b : a b c\n")
        assert run("wsat", "--verify", "--in", workdir / "two.sc", "--cert", cert) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"error: line 2: start entry '{entry}' is not an edge"
    cert.write_text("# pattern: K3\n# start: a c, b d, c d\nb c : b c d\na b : a b c\n")
    assert run("wsat", "--verify", "--in", workdir / "two.sc", "--cert", cert) == 0


def test_wsat_verify_rejects_a_witness_that_is_no_3_set(workdir, capsys):
    # A witness of two, four, or three distinct labels with one repeated is
    # malformed (exit 3), not merely a witness that fails its replay (exit 1).
    cert = workdir / "witness.cert"
    for witness in ("a b", "a b c d", "a b c c", "b c b a"):
        cert.write_text(
            f"# pattern: K3\n# start: a b, a c, b d\nb c : {witness}\nc d : b c d\n")
        assert run("wsat", "--verify", "--in", workdir / "two.sc", "--cert", cert) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "error: witness 0 is not a 3-vertex set of the host"
    cert.write_text("# pattern: K3\n# start: a b, a c, b d\nb c : a b c\nc d : b c d\n")
    assert run("wsat", "--verify", "--in", workdir / "two.sc", "--cert", cert) == 0


def test_verify_requires_cert(workdir, capsys):
    for command in ("shell", "collapse", "wsat"):
        assert run(command, "--verify", "--in", workdir / "two.sc") == 3
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: --verify requires --cert\n")


def test_wsat_number_flag(workdir, capsys):
    k4 = workdir / "k4.sc"
    k4.write_text("a b\na c\na d\nb c\nb d\nc d\n")
    assert run("wsat", "--in", k4, "--number", "--json") == 0
    assert json.loads(capsys.readouterr().out)["wsat_number"] == 3


def test_wsat_number_rejects_certificates(workdir, capsys):
    # --number yields a count, not a certificate to write or replay.
    k4 = workdir / "k4.sc"
    k4.write_text("a b\na c\na d\nb c\nb d\nc d\n")
    cert = workdir / "sat.cert"
    assert run("wsat", "--in", k4, "--cert", cert) == 0
    written = cert.read_text()
    capsys.readouterr()
    for extra in (["--cert", workdir / "new.cert"], ["--verify"],
                  ["--verify", "--cert", cert]):
        assert run("wsat", "--in", k4, "--number", *extra) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert not (workdir / "new.cert").exists()
    assert cert.read_text() == written


def test_collapse_k_rejects_verify(workdir, capsys):
    # A replay cannot check the removal count, so --k with --verify is refused
    # rather than replayed as a plain collapse.
    two = workdir / "two.sc"
    cert = workdir / "col.cert"
    assert run("collapse", "--in", two, "--k", "0", "--cert", cert) == 0
    capsys.readouterr()
    for k in ("0", "5"):
        assert run("collapse", "--in", two, "--k", k, "--cert", cert, "--verify") == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert run("collapse", "--in", two, "--cert", cert, "--verify") == 0


def test_convert_chain_of_certificates(workdir, capsys):
    shell_cert = workdir / "shelling.cert"
    sat_cert = workdir / "saturation.cert"
    col_cert = workdir / "collapse.cert"
    assert run("shell", "--in", workdir / "two.sc", "--cert", shell_cert) == 0
    assert run("convert", "--in", workdir / "two.sc", "--cert", shell_cert,
               "--out", sat_cert) == 0
    # wsat takes the 1-skeleton of a 2-complex as the host graph
    assert run("wsat", "--in", workdir / "two.sc", "--cert", sat_cert,
               "--verify") == 0
    assert run("convert", "--in", workdir / "two.sc", "--cert", sat_cert,
               "--out", col_cert) == 0
    assert run("collapse", "--in", workdir / "two.sc", "--cert", col_cert,
               "--verify") == 0
    # A saturation certificate without its header is known by "# start:".
    bare = workdir / "bare.cert"
    bare.write_text(sat_cert.read_text().split("\n", 1)[1])
    assert run("convert", "--in", workdir / "two.sc", "--cert", bare,
               "--out", workdir / "bare-collapse.cert") == 0
    assert (workdir / "bare-collapse.cert").read_text() == col_cert.read_text()
    # The engine decides K3-saturation only: another pattern is an input error.
    k4 = workdir / "k4.cert"
    k4.write_text(sat_cert.read_text().replace("# pattern: K3", "# pattern: K4"))
    capsys.readouterr()
    for argv in (["wsat", "--verify"], ["convert", "--out", workdir / "k4-collapse.cert"]):
        assert run(*argv, "--in", workdir / "two.sc", "--cert", k4) == 3
        out, err = capsys.readouterr()
        # wsat may first note that it uses the 1-skeleton as the host.
        assert out == "" and err.count("error: ") == 1
        assert err.splitlines()[-1].startswith("error: ") and "K4" in err
    assert not (workdir / "k4-collapse.cert").exists()


def test_convert_rejects_unknown_certificate(workdir, capsys):
    mystery = workdir / "mystery.cert"
    mystery.write_text("nonsense\n")
    assert run("convert", "--in", workdir / "two.sc", "--cert", mystery) == 3
    # Collapse certificates end the chain; there is nothing to convert to.
    assert run("collapse", "--in", workdir / "two.sc", "--cert", mystery) == 0
    assert run("convert", "--in", workdir / "two.sc", "--cert", mystery) == 3
    assert capsys.readouterr().err.endswith("error: unrecognized certificate kind\n")


# -- sd / chain / gen -------------------------------------------------------------------------

def test_sd_writes_subdivision(workdir, capsys):
    out = workdir / "sd.sc"
    assert run("sd", "--in", workdir / "two.sc", "--out", out) == 0
    assert run("info", "--in", out, "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["f_vector"] == [1, 11, 22, 12]


def test_sd_label_clash_exit_code(workdir, capsys):
    # The edge "a b" and the vertex "a|b" both serialize to "{a|b}".
    pipe = workdir / "pipe.sc"
    pipe.write_text("a b a|b\nb c y\na c z\n")
    assert run("sd", "--in", pipe) == 3
    assert "'{a|b}'" in capsys.readouterr().err
    assert run("chain", "--in", pipe) == 3


def test_sd_depth_one_twice_is_depth_two(workdir):
    once, twice, direct = (workdir / name for name in ("1.sc", "11.sc", "2.sc"))
    assert run("sd", "--in", workdir / "two.sc", "--out", once) == 0
    assert run("sd", "--in", once, "--out", twice) == 0
    assert run("sd", "--depth", 2, "--in", workdir / "two.sc", "--out", direct) == 0
    body = [path.read_text().split("\n", 1)[1] for path in (twice, direct)]
    assert body[0] == body[1]


def test_chain_report(workdir, capsys):
    report = workdir / "report.txt"
    assert run("chain", "--in", workdir / "two.sc", "--out", report) == 0
    text = report.read_text()
    assert "# status: complete" in text
    assert "# removed-count: 0" in text
    assert "# stage shelling" in text and "# stage collapse" in text


def test_chain_bowtie_exit(workdir, capsys):
    assert run("chain", "--in", workdir / "bowtie.sc", "--json") == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "unshellable"


def test_chain_budget_exit(workdir, capsys):
    assert run("chain", "--in", workdir / "two.sc", "--budget", 0) == 2
    assert "# status: budget-exceeded:shelling\n" in capsys.readouterr().out
    assert run("chain", "--in", workdir / "two.sc", "--budget", 0, "--json") == 2
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "budget-exceeded:shelling"
    assert data["removed_count"] is None and data["shelling"] is None


def test_chain_json_fields(workdir, capsys):
    assert run("chain", "--in", workdir / "two.sc", "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"original", "subject", "subdivision_depth", "chi",
                         "status", "removed_count", "verdicts", "shelling",
                         "saturation", "collapse"}
    assert data["verdicts"]["removal_count_matches_chi"] is True


def test_gen_manifest_and_files(workdir, capsys):
    corpus = workdir / "corpus"
    assert run("gen", "--out", corpus, "--mode", "enumerate-all",
               "--n", 4, "--t", 2) == 0
    capsys.readouterr()
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["spec"]["mode"] == "enumerate-all"
    assert len(manifest["instances"]) == 2
    for entry in manifest["instances"]:
        assert run("info", "--in", corpus / entry["file"], "--json") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["fingerprint"] == entry["fingerprint"]


def test_gen_count_takes_a_prefix_of_the_enumeration(workdir, capsys):
    full, prefix = workdir / "full", workdir / "prefix"
    spec = ["--mode", "enumerate-all", "--n", 5, "--t", 3, "--seed", 4]
    assert run("gen", "--out", full, *spec) == 0
    capsys.readouterr()
    assert run("gen", "--out", prefix, *spec, "--count", 2, "--json") == 0
    assert json.loads(capsys.readouterr().out) == {"count": 2, "directory": str(prefix)}
    every = json.loads((full / "manifest.json").read_text())
    some = json.loads((prefix / "manifest.json").read_text())
    assert len(every["instances"]) > 2
    assert some == {"spec": every["spec"], "instances": every["instances"][:2]}
    assert list(some["spec"].items()) == [
        ("seed", 4), ("n_vertices", 5), ("n_triangles", 3), ("mode", "enumerate-all"),
        ("depth", 1)]
    assert sorted(p.name for p in prefix.iterdir()) == [
        "inst_0000.sc", "inst_0001.sc", "manifest.json"]


def test_gen_random_records_retries(workdir):
    corpus = workdir / "rand"
    assert run("gen", "--out", corpus, "--mode", "random-pure-2",
               "--n", 6, "--t", 3, "--seed", 9, "--count", 4) == 0
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert len(manifest["instances"]) == 4
    assert all("retries" in entry for entry in manifest["instances"])


def test_gen_random_writes_ten_instances_without_count(workdir, capsys):
    corpus = workdir / "rand"
    assert run("gen", "--out", corpus, "--mode", "random-pure-2",
               "--n", 6, "--t", 3, "--json") == 0
    assert json.loads(capsys.readouterr().out) == {"count": 10, "directory": str(corpus)}
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert [entry["file"] for entry in manifest["instances"]] == [
        f"inst_{i:04d}.sc" for i in range(10)]
    assert len(list(corpus.iterdir())) == 11


def test_gen_infeasible_spec(workdir):
    assert run("gen", "--out", workdir / "x", "--mode", "random-pure-2",
               "--n", 4, "--t", 9) == 3


@pytest.mark.parametrize("mode", ["enumerate-all", "subdivide-depth-k"])
def test_gen_enumeration_refuses_more_than_seven_vertices(workdir, capsys, mode):
    """The orbit enumeration lists all n! vertex permutations before its
    first instance, so n = 8 is refused by validation, before any is built
    or the output directory is made."""
    assert run("gen", "--out", workdir / "x", "--mode", mode, "--n", 8, "--t", 2) == 3
    assert capsys.readouterr().err == (
        f"error: {mode} enumerates all vertex permutations, so n <= 7, got 8\n")
    assert not (workdir / "x").exists()


# -- the JSON writer -------------------------------------------------------------------------

def test_json_writer_matches_the_indented_encoder_on_edge_values():
    """Empty containers, scalars and strings that need escapes, alone and
    nested in the shapes the writer lays out itself.  The raw joins must
    refuse a list when any one character of any string needs an escape:
    the control and delete characters, and one bad string at the end of a
    long plain list or inside one pair."""
    odd = ['say "hi"', "back\\slash", "two\nlines", "caf\u00e9 \u2603", "tab\t", "",
           "del\x7f", "nul\x00", "unit\x1f"]
    plain = [f"v{i} v{i + 1} x_{{{i}}}|.-" for i in range(500)]
    values = [{}, [], None, True, False, 0, -7, 2.5, *odd, odd, [odd, odd[::-1]],
              {"a": [], "b": {}, "c": None, "d": [True, 1, "x"], "e": [[], []]},
              {"steps": [["a b", "a b c"], ["c", "b c"]], "nested": {"deep": [odd]}},
              [["a"], ["b", "c"]], [[1, 2]], [{"k": "v"}, {}], (1, "t"), {1: "int key"},
              plain, [*plain, "last\x7f"], [*plain, 'last"'],
              [[p, p] for p in plain], [*([p, p] for p in plain), ["a b", "a\\b"]],
              [["a b", "a b c"], ["c", "b\x00c"], ["d", "d e"]], [["a", "b"], [None, "c"]]]
    for value in values:
        assert to_json(value) == json.dumps(value, indent=2), value
        assert to_json({"wrap": [value]}) == json.dumps({"wrap": [value]}, indent=2), value


def test_json_reports_are_the_indented_encoder_bytes(workdir, capsys):
    """Every subcommand's --json report, and the gen manifest, is what
    json.dumps(..., indent=2) writes for the same data."""
    (workdir / "nf.sc").write_text("a b c\nb c d\na c d\n")
    (workdir / "odd dir").mkdir()
    path = workdir / "odd dir" / "caf\u00e9 \"q\".cert"
    calls = [["info", "--in", workdir / "two.sc"], ["info", "--in", workdir / "c4.sc"],
             ["shell", "--in", workdir / "two.sc"], ["shell", "--in", workdir / "bowtie.sc"],
             ["shell", "--in", workdir / "two.sc", "--cert", path],
             ["shell", "--in", workdir / "two.sc", "--verify", "--cert", path],
             ["collapse", "--in", workdir / "two.sc"], ["collapse", "--in", workdir / "c4.sc"],
             ["collapse", "--in", workdir / "two.sc", "--k", 0, "--budget", 0],
             ["wsat", "--in", workdir / "c4.sc"], ["wsat", "--in", workdir / "two.sc"],
             ["wsat", "--in", workdir / "two.sc", "--number"],
             ["chain", "--in", workdir / "two.sc"], ["chain", "--in", workdir / "nf.sc"],
             ["chain", "--in", workdir / "bowtie.sc"],
             ["chain", "--in", workdir / "two.sc", "--budget", 0],
             ["gen", "--out", workdir / "corpus", "--mode", "random-pure-2", "--n", 6,
              "--t", 3, "--count", 2]]
    for argv in calls:
        run(*argv, "--json")
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
    manifest = (workdir / "corpus" / "manifest.json").read_text()
    assert manifest == json.dumps(json.loads(manifest), indent=2) + "\n"


# -- determinism ---------------------------------------------------------------------------------

def test_identical_invocations_identical_bytes(workdir, capsys):
    for argv in (["chain", "--in", workdir / "two.sc", "--json"],
                 ["shell", "--in", workdir / "two.sc"],
                 ["wsat", "--in", workdir / "c4.sc", "--json"]):
        run(*argv)
        first = capsys.readouterr()
        run(*argv)
        second = capsys.readouterr()
        assert first.out == second.out


def test_shared_parser_leaks_no_state(workdir, capsys):
    """The parser is built once per process; a call that follows another
    prints what it prints when it runs first."""
    (workdir / "tetra.sc").write_text("a b c\na b d\na c d\nb c d\n")
    tetra = workdir / "tetra.sc"
    pairs = [(["wsat", "--in", tetra, "--number"], ["wsat", "--in", tetra]),
             (["collapse", "--in", tetra, "--k", 1], ["collapse", "--in", tetra]),
             (["chain", "--in", tetra, "--json"], ["chain", "--in", tetra])]

    def first_run(argv):
        _build_parser.cache_clear()
        return run(*argv), capsys.readouterr()

    for before, after in pairs:
        alone = first_run(after)
        first_run(before)
        assert (run(*after), capsys.readouterr()) == alone


def test_gen_deterministic_across_runs(workdir):
    a, b = workdir / "a", workdir / "b"
    for target in (a, b):
        assert run("gen", "--out", target, "--mode", "random-pure-2",
                   "--n", 7, "--t", 4, "--seed", 3, "--count", 5) == 0
    assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()
    for i in range(5):
        name = f"inst_{i:04d}.sc"
        assert (a / name).read_bytes() == (b / name).read_bytes()
