"""End-to-end command-line behavior: output shapes, exit codes, caps."""

import argparse
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import helpers as H
from raagkit import cli
from raagkit.words import MAX_WORD_LETTERS


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.graph"
    path.write_text("vertices: a b c\nedges: a-b b-c\n")
    return str(path)


@pytest.fixture()
def free2_file(tmp_path):
    path = tmp_path / "f2.graph"
    path.write_text("vertices: a b\nedges:\n")
    return str(path)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- word commands ----------------------------------------------------------


def test_nf(p3_file):
    code, out, err = run(["nf", p3_file, "ba"])
    assert (code, out, err) == (0, "ab\n", "")


def test_cyc(p3_file):
    code, out, _ = run(["cyc", p3_file, "cabC"])
    assert code == 0
    assert out == "core: ab\nconjugator: c\n"


def test_eq(p3_file):
    assert run(["eq", p3_file, "ab", "ba"])[:2] == (0, "equal\n")
    assert run(["eq", p3_file, "ac", "ca"])[:2] == (0, "not equal\n")


# -- graph commands ---------------------------------------------------------


def test_chromatic(p3_file):
    code, out, _ = run(["chromatic", p3_file])
    assert code == 0
    assert out.startswith("chromatic number: 2 (exact)\n")
    assert "a=" in out


def test_chromatic_m5(m5, tmp_path):
    path = tmp_path / "m5.graph"
    edges = " ".join(f"{a}-{b}" for a, b in sorted(m5.edges))
    path.write_text(f"vertices: {' '.join(m5.vertices)}\nedges: {edges}\n")
    code, out, _ = run(["chromatic", str(path)])
    assert code == 0
    assert out.startswith("chromatic number: 5 (exact)\n")


def test_exact_cap_names_the_heuristic_flag(tmp_path):
    # 25 vertices, one past the exact-mode cap; a-b commute, a-c do not
    path = tmp_path / "big.graph"
    names = ["a", "b", "c"] + [f"v{i}" for i in range(22)]
    path.write_text(f"vertices: {' '.join(names)}\nedges: a-b\n")
    for argv in (["chromatic", str(path)], ["scl-bound", str(path), "acAC"]):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        # the usage line below always lists the flag; the message must name it
        message = err.splitlines()[0]
        assert message.startswith("error: 25 vertices exceeds the exact-mode cap of 24")
        assert "--heuristic" in message


def test_scl_bound_text(p3_file):
    code, out, _ = run(["scl-bound", p3_file, "acAC"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bound: 1/12"
    assert lines[1] == "route: best-of-both"
    assert "finite: true" in lines
    assert any(l.startswith("references: ") for l in lines)


def test_scl_bound_json_round_trip(p3_file):
    code, out, _ = run(["scl-bound", p3_file, "acAC", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == "1/12"
    # serializing the parsed object again reproduces the bytes exactly
    assert json.dumps(data) + "\n" == out


def test_scl_bound_infinite(free2_file):
    code, out, _ = run(["scl-bound", free2_file, "a"])
    assert code == 0
    assert out.splitlines()[0] == "bound: inf"


# -- verify-overlap ---------------------------------------------------------


def test_verify_overlap_text(free2_file):
    code, out, _ = run(["verify-overlap", free2_file, "abAB", "--n-max", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n=1 ")
    assert "violated=false" in lines[0]


def test_verify_overlap_json_round_trip(free2_file):
    code, out, _ = run(["verify-overlap", free2_file, "abAB", "--n-max", "1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data[0]["n"] == 1
    assert json.dumps(data) + "\n" == out


def test_verify_overlap_identity_is_an_input_error(p3_file):
    code, out, err = run(["verify-overlap", p3_file, "abAB"])
    assert code == 2
    assert "error:" in err
    assert "usage: raagkit verify-overlap" in err


# -- cube commands ----------------------------------------------------------


def test_cube_interval(p3_file):
    code, out, _ = run(["cube", "interval", p3_file, "1", "ab"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "distance: 2"
    assert set(lines[1:]) == {"(1, a, +)", "(1, b, +)"}


def test_cube_median(p3_file):
    code, out, _ = run(["cube", "median", p3_file, "a", "b", "ab"])
    assert (code, out) == (0, "ab\n")


def test_cube_axioms(p3_file):
    code, out, _ = run(
        ["cube", "axioms", p3_file, "--samples", "40", "--radius", "2", "--seed", "9"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "ok"
    assert "s4_eligible=" in out


def test_cube_chains(p3_file):
    code, out, _ = run(
        ["cube", "chains", p3_file, "--samples", "15", "--radius", "2"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "ok"
    assert "nested pairs:" in out


# -- gauss-bonnet -----------------------------------------------------------


def test_gauss_bonnet_ok(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(H.torus_grid(2, 2).to_json_dict()))
    code, out, _ = run(["gauss-bonnet", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert "euler characteristic: 0" in lines[0]
    assert lines[-1] == "ok"
    assert "residual: 0" in out


@pytest.mark.parametrize(
    "body",
    [
        {"vertices": [[1]], "edges": [], "faces": []},
        {"vertices": [1, 2], "edges": [{"id": 1, "ends": [1, [2]]}], "faces": []},
        {
            "vertices": [1],
            "edges": [{"id": 1, "ends": [1, 1]}],
            "faces": [{"id": [1], "boundary": [1], "angles": ["1"]}],
        },
    ],
    ids=["vertex", "edge-end", "face"],
)
def test_gauss_bonnet_list_ids_are_input_errors(tmp_path, body):
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(body))
    # an uncaught TypeError would escape run() and fail the test here
    code, out, err = run(["gauss-bonnet", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "edge, face",
    [
        ({"id": 1, "ends": "vw"}, None),
        ({"id": 1, "ends": ["v", "w", "v"]}, None),
        ({"id": 1, "ends": ["v", "v"]}, {"id": "f", "boundary": [1], "angles": "1"}),
    ],
    ids=["string-ends", "three-ends", "string-angles"],
)
def test_gauss_bonnet_rejects_ends_and_angles_not_given_as_lists(tmp_path, edge, face):
    """Ends and angles are checked as given: not split from a string, not cut to two."""
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"vertices": ["v", "w"], "edges": [edge], "faces": [face] if face else []}))
    code, out, err = run(["gauss-bonnet", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("angle", ["1e400", "1E-2"])
def test_gauss_bonnet_rejects_exponent_angles(tmp_path, angle):
    data = H.torus_grid(2, 2).to_json_dict()
    data["faces"][0]["angles"][0] = angle
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["gauss-bonnet", str(path)])
    assert (code, out) == (2, "")
    assert f"angle '{angle}' is not a rational" in err


def test_gauss_bonnet_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": []}')
    code, _, err = run(["gauss-bonnet", str(path)])
    assert code == 2
    assert "error:" in err


# -- exit codes and caps ----------------------------------------------------


def test_usage_errors():
    assert run([])[0] == 2
    assert run(["nf"])[0] == 2
    assert run(["no-such-command"])[0] == 2
    assert run(["--help"])[0] == 0


def test_argparse_messages_use_the_given_streams(free2_file, capsys):
    for argv in (["nf"], ["verify-overlap", free2_file, "ab", "--mode", "bogus"]):
        code, out, err = run(argv)
        assert code == 2
        assert out == ""
        assert "usage:" in err and "error:" in err
    code, out, err = run(["--help"])
    assert code == 0
    assert "usage:" in out and err == ""
    assert capsys.readouterr() == ("", "")


def test_shared_parser_gives_the_same_streams_twice(p3_file, capsys):
    # help, a usage error, an input error and a good call on the one parser
    calls = [["--help"], ["nf"], ["nf", p3_file, "axq"], ["nf", p3_file, "ba"]]
    first = [run(argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 2, 2, 0]
    assert first[3] == (0, "ab\n", "")
    assert [run(argv) for argv in calls] == first
    assert capsys.readouterr() == ("", "")


def test_missing_graph_file():
    code, _, err = run(["nf", "/no/such/file.graph", "a"])
    assert code == 2
    assert "error: cannot read graph file" in err


# Each graph subcommand's argparse usage, on one line when 200 columns wide.
_USAGES = {
    "nf": "usage: raagkit nf [-h] graph word",
    "cyc": "usage: raagkit cyc [-h] graph word",
    "eq": "usage: raagkit eq [-h] graph word1 word2",
    "chromatic": "usage: raagkit chromatic [-h] [--heuristic] graph",
    "scl-bound": "usage: raagkit scl-bound [-h] [--heuristic] [--json] graph word",
    "verify-overlap": (
        "usage: raagkit verify-overlap [-h] [--n-max N_MAX] [--reps-cap REPS_CAP] "
        "[--mode {disjoint,any}] [--json] graph word"
    ),
    "cube interval": "usage: raagkit cube interval [-h] graph x y",
    "cube median": "usage: raagkit cube median [-h] graph x y z",
    "cube axioms": (
        "usage: raagkit cube axioms [-h] [--radius RADIUS] [--samples SAMPLES] [--seed SEED] graph"
    ),
    "cube chains": (
        "usage: raagkit cube chains [-h] [--radius RADIUS] [--samples SAMPLES] [--seed SEED] graph"
    ),
}


def _cases(path):
    """Argv and usage of each graph subcommand on ``path``, once per word position.

    Words before the position are valid and words from it on name unknown
    generators x, y, z in turn, so a left-to-right parse fails on the word at
    the position, returned third (None for a command that takes no words).
    """
    for command, usage in _USAGES.items():
        count = len(usage.split(" graph")[1].split())
        for bad in range(max(count, 1)):
            words = ["ab"] * bad + [f"a{q}" for q in "xyz"[bad:count]]
            yield command.split() + [path, *words], usage, words[bad] if count else None


def test_bad_word_is_usage_error(p3_file, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    cases = [case for case in _cases(p3_file) if case[2]]
    assert len(cases) == 11  # the word positions of the eight commands that take words
    for argv, usage, bad in cases:
        assert run(argv) == (
            2, "", f"error: unknown generator {bad[1]!r} in {bad!r}\n{usage}\n"
        ), argv
    # exponents are ASCII digits only
    for tok in ("a^\u0663", "a^\uff13"):
        usage = _USAGES["nf"]
        assert run(["nf", p3_file, tok]) == (2, "", f"error: malformed token {tok!r}\n{usage}\n")


@pytest.mark.parametrize("tok", ["a^100000000000000000000", "a^" + "9" * 5000])
def test_oversized_exponent_is_usage_error(p3_file, tok):
    code, out, err = run(["nf", p3_file, f"{tok} b"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: exponent too large to expand in token {tok!r}\n")
    assert err.endswith("usage: raagkit nf [-h] graph word\n")


def test_exponent_past_the_expansion_cap_is_usage_error(p3_file):
    tok = f"a^{MAX_WORD_LETTERS + 1}"
    code, out, err = run(["nf", p3_file, tok])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: exponent too large to expand in token {tok!r}\n")
    assert err.endswith("usage: raagkit nf [-h] graph word\n")


def test_non_utf8_graph_file_is_usage_error(tmp_path, monkeypatch):
    """The graph file is read before any word is parsed, so it is the input named."""
    monkeypatch.setenv("COLUMNS", "200")
    path = tmp_path / "latin1.graph"
    path.write_bytes(b"vertices: a \xe9\nedges:\n")
    for argv, usage, _ in _cases(str(path)):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: cannot read graph file {path}: 'utf-8' codec can't decode")
        assert err.endswith(f"\n{usage}\n"), argv


def test_nul_in_path_is_usage_error(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    for argv, usage, _ in _cases("p3\0.graph"):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: cannot read graph file p3\0.graph: embedded null")
        assert err.endswith(f"\n{usage}\n"), argv


def test_unreadable_complex_files_are_usage_errors(tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"vertices": ["\xe9"], "edges": [], "faces": []}')
    overlong = tmp_path / "overlong.json"
    overlong.write_text('{"vertices": [' + "1" * 5000 + '], "edges": [], "faces": []}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for path, message in [
        (latin1, f"error: cannot read complex file {latin1}: 'utf-8' codec can't decode"),
        (overlong, "error: invalid JSON: "),
        (deep, "error: invalid JSON: "),
    ]:
        code, out, err = run(["gauss-bonnet", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(message)
        assert err.endswith("usage: raagkit gauss-bonnet [-h] complex.json\n")


def test_reps_cap_flag(p3_file):
    # aabbcc has 10 rotation classes in its closure at n = 1
    argv = ["verify-overlap", p3_file, "aabbcc", "--n-max", "1"]
    code, out, _ = run(argv + ["--reps-cap", "5"])
    assert code == 0
    assert "reps=5 " in out
    assert "(cap exceeded)" in out
    code, out, _ = run(argv)
    assert code == 0
    assert "reps=10 " in out
    assert "(cap exceeded)" not in out


def test_caps_environment_is_not_read(p3_file, monkeypatch):
    monkeypatch.setenv("RAAG_KIT_CAPS", "reps=lots")
    assert run(["nf", p3_file, "ba"]) == (0, "ab\n", "")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify-overlap", "{f2}", "abAB", "--n-max", "0"], "--n-max"),
        (["verify-overlap", "{f2}", "abAB", "--reps-cap", "0"], "--reps-cap"),
        (["cube", "axioms", "{f2}", "--radius", "-1"], "--radius"),
        (["cube", "chains", "{f2}", "--samples", "-3"], "--samples"),
    ],
)
def test_numeric_flags_below_minimum(free2_file, monkeypatch, argv, flag):
    monkeypatch.setenv("COLUMNS", "200")
    command = " ".join(argv[: argv.index("{f2}")])
    least = {"--n-max": 1, "--reps-cap": 1, "--radius": 0, "--samples": 0}[flag]
    argv = [a.format(f2=free2_file) for a in argv]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    usage, message = err.splitlines()
    assert usage == _USAGES[command]
    assert message == (
        f"raagkit {command}: error: argument {flag}: must be at least {least}, got {argv[-1]}"
    )
    # a value that is not an integer keeps argparse's own message
    code, out, err = run(argv[:-1] + ["x"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"raagkit {command}: error: argument {flag}: invalid int value: 'x'"
    )


def test_console_script_installed(p3_file):
    # the child imports the package from where this process imported it
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "raagkit.cli", "nf", p3_file, "ba"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "ab\n"


# -- README ----------------------------------------------------------------


def _readme_cli_section():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _usage_argv(usage):
    """Fill a README usage line with sample values, every optional flag included."""
    argv = []
    for tok in usage.split()[1:]:
        tok = tok.strip("[]")
        choices = re.fullmatch(r"\{([^,}]+),.*\}", tok)
        if choices:
            tok = choices.group(1)
        argv.append("1" if tok[0].isupper() else tok)
    return argv


def _leaf_progs(parser):
    """The ``prog`` of every subcommand that takes no further subcommand."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {parser.prog}
    return {prog for sub in subparsers[0].choices.values() for prog in _leaf_progs(sub)}


def test_readme_cli_section_matches_parser():
    section = _readme_cli_section()
    usages = [
        re.split(r"\s{2,}", line)[0]
        for line in section.split("```", 2)[1].splitlines()
        if line.startswith("raagkit ")
    ]
    for usage in usages:
        try:
            cli._PARSER.parse_args(_usage_argv(usage))
        except cli._ParserExit:
            pytest.fail(f"README usage {usage!r} is rejected by the parser")
    flags = re.compile(r"--[a-z][a-z-]*")
    unlisted = set(flags.findall(section)) - set(flags.findall(" ".join(usages)))
    assert not unlisted, f"README names flags outside every usage line: {unlisted}"
    for prog in _leaf_progs(cli._PARSER):
        assert any(
            usage == prog or usage.startswith(prog + " ") for usage in usages
        ), f"README has no usage line for {prog!r}"
