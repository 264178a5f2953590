"""Command-line interface: subcommands, exit codes, JSON reports, errors."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kkmfix
from kkmfix import TheoremId, b_value, parse_scalar, serialize
from kkmfix import cli
from kkmfix.cli import Report, UsageError, main, run_command

from conftest import EDGE_MAPS, HULL_KINDS, fib

_IDENTITY_MAP = """\
label identity on the unit interval
domain [0, 1]
piece [0, 1] all: x
"""

_BAD_MAP = """\
domain [0, 1]
piece [0, 1] all: x + 4
"""

_SYNTAX_ERROR_MAP = """\
domain [0, 1
piece [0, 1] all: x
"""


@pytest.fixture(scope="module")
def maps(tmp_path_factory):
    from kkmfix.verdict import corpus_entry

    d = tmp_path_factory.mktemp("maps")
    paths = {}
    for n in (2, 4, 8, 9, 14):
        p = d / f"ex{n:02d}.map"
        p.write_text(serialize(corpus_entry(n).spec), encoding="utf-8")
        paths[n] = str(p)
    identity = d / "identity.map"
    identity.write_text(_IDENTITY_MAP, encoding="utf-8")
    paths["identity"] = str(identity)
    bad = d / "bad.map"
    bad.write_text(_BAD_MAP, encoding="utf-8")
    paths["bad"] = str(bad)
    syntax = d / "syntax.map"
    syntax.write_text(_SYNTAX_ERROR_MAP, encoding="utf-8")
    paths["syntax"] = str(syntax)
    return paths


_CORPUS_DIR = Path(kkmfix.__file__).parent / "data"
_GOLDEN = Path(__file__).parent / "data" / "golden"
_MAPS = [f"corpus{n:02d}.map" for n in range(1, 15)]


def _stdout(argv) -> bytes:
    # what ``main`` prints
    return (run_command(argv).rendered + "\n").encode()


def test_corpus_json_is_byte_identical_to_golden():
    """The committed bytes are ``python -m kkmfix corpus --json``; refresh
    them only for an intended output change."""
    assert _stdout(["corpus", "--json"]) == (_GOLDEN / "corpus.json").read_bytes()


def test_check_json_is_byte_identical_to_golden(monkeypatch):
    """check/corpusNN.T.json is ``python -m kkmfix check --json --map
    corpusNN.map --theorem T`` run in the package's data directory."""
    monkeypatch.chdir(_CORPUS_DIR)
    for name in _MAPS:
        for theorem in TheoremId:
            argv = ["check", "--json", "--map", name, "--theorem", theorem.value]
            golden = _GOLDEN / "check" / f"{name[:-4]}.{theorem.value}.json"
            assert _stdout(argv) == golden.read_bytes(), (name, theorem)


_KKM_KINDS = {"g1": [], "g2": [], "g3": ["--delta", "1/2"]}
_KKM_POINTS = "0,3,sqrt2,7,10"


def test_kkm_json_is_byte_identical_to_golden(monkeypatch):
    """kkm/corpusNN.K.json is ``python -m kkmfix kkm --json --map
    corpusNN.map --kind K --points 0,3,sqrt2,7,10`` (with ``--delta 1/2``
    for g3) run in the package's data directory."""
    monkeypatch.chdir(_CORPUS_DIR)
    for name in _MAPS:
        for kind, extra in _KKM_KINDS.items():
            argv = ["kkm", "--json", "--map", name, "--kind", kind, *extra,
                    "--points", _KKM_POINTS]
            golden = _GOLDEN / "kkm" / f"{name[:-4]}.{kind}.json"
            assert _stdout(argv) == golden.read_bytes(), (name, kind)


def test_plot_is_byte_identical_to_golden(monkeypatch, tmp_path):
    """plot/corpusNN.F is ``python -m kkmfix plot --map corpusNN.map --out
    corpusNN.F --format F`` (default ``--samples 101``) run in the package's
    data directory."""
    monkeypatch.chdir(_CORPUS_DIR)
    for name in _MAPS:
        for fmt in ("svg", "csv"):
            out = tmp_path / f"{name[:-4]}.{fmt}"
            run_command(["plot", "--map", name, "--out", str(out), "--format", fmt])
            golden = _GOLDEN / "plot" / out.name
            assert out.read_bytes() == golden.read_bytes(), out.name


def test_kkm_builds_each_witness_set_once(monkeypatch):
    import kkmfix.kkm

    built = []
    build = kkmfix.kkm.g_set

    def counted(kind, spec, x):
        built.append(x)
        return build(kind, spec, x)

    monkeypatch.setattr(kkmfix.kkm, "g_set", counted)
    monkeypatch.chdir(_CORPUS_DIR)
    for kind, extra in _KKM_KINDS.items():
        built.clear()
        run_command(["kkm", "--map", "corpus09.map", "--kind", kind, *extra,
                     "--points", _KKM_POINTS])
        assert len(built) == 5, kind


def test_parse_json_is_byte_identical_to_golden(monkeypatch):
    """golden/parse/NAME.json is ``python -m kkmfix parse --json --map
    NAME.map`` run in data/parse: one malformed map per Violation kind, one
    with several kinds in report order, and overlaps whose reported point
    override sources or sqrt2 ends move."""
    parse_dir = _GOLDEN.parent / "parse"
    monkeypatch.chdir(parse_dir)
    names = sorted(p.name for p in parse_dir.glob("*.map"))
    assert len(names) == 10
    kinds = set()
    for name in names:
        report = run_command(["parse", "--json", "--map", name])
        golden = _GOLDEN / "parse" / f"{name[:-4]}.json"
        assert (report.rendered + "\n").encode() == golden.read_bytes(), name
        kinds.update(v["kind"] for v in report.verdicts["violations"])
    assert kinds == {
        "piece-outside",
        "coverage-overlap",
        "coverage-gap",
        "override-outside",
        "override-duplicate",
        "override-value-outside",
        "not-self-map",
    }


def test_check_text_separates_key_and_status(monkeypatch):
    monkeypatch.chdir(_CORPUS_DIR)
    for name in _MAPS:
        for theorem in TheoremId:
            report = run_command(["check", "--map", name, "--theorem", theorem.value])
            # condition lines are indented two spaces, witness lines more
            rows = [
                line.split()[:2]
                for line in report.rendered.splitlines()
                if line.startswith("  ") and not line.startswith("   ")
            ]
            conditions = report.verdicts["verdict"]["conditions"]
            assert rows == [[key, c["status"]] for key, c in conditions.items()]


_TEXT_OUTPUTS = _GOLDEN / "text_outputs.txt"
_TEXT_COMMANDS = {
    **{f"check-{t.value}": ["check", "--theorem", t.value] for t in TheoremId},
    "fixed-points": ["fixed-points"],
}


def _text_digests(edge_dir: Path) -> list[tuple[str, str, str]]:
    """(map, command, digest) per line of text_outputs.txt: the first 16
    hex digits of the sha256 of what ``main`` prints without ``--json``,
    for ``check`` under each theorem and ``fixed-points`` on each corpus
    map (run in the package's data directory) and each edge map (written
    to and run in ``edge_dir``), then for ``corpus`` and ``corpus --only 3``."""
    edge_names = []
    for name, text in EDGE_MAPS.items():
        edge_names.append(f"edge-{name}.map")
        (edge_dir / edge_names[-1]).write_text(text, encoding="utf-8")
    rows = []
    home = os.getcwd()
    try:
        for cwd, names in ((_CORPUS_DIR, _MAPS), (edge_dir, edge_names)):
            os.chdir(cwd)
            for name in names:
                for command, argv in _TEXT_COMMANDS.items():
                    text = _stdout([*argv, "--map", name])
                    digest = hashlib.sha256(text).hexdigest()[:16]
                    rows.append((name, command, digest))
    finally:
        os.chdir(home)
    for command, argv in (
        ("corpus", ["corpus"]),
        ("corpus-only-3", ["corpus", "--only", "3"]),
    ):
        digest = hashlib.sha256(_stdout(argv)).hexdigest()[:16]
        rows.append(("builtin", command, digest))
    return rows


def test_text_outputs_match_golden(tmp_path):
    """Refresh the file, with ``python tests/test_cli.py`` and src and
    tests on the path, only for an intended output change."""
    golden = [
        line.split()
        for line in _TEXT_OUTPUTS.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    got = [list(row) for row in _text_digests(tmp_path)]
    assert len(got) == len(golden) == (14 + len(EDGE_MAPS)) * len(_TEXT_COMMANDS) + 2
    for row, want in zip(got, golden):
        assert row == want, f"{row[1]} on {row[0]} changed"


def test_corpus_all_match():
    report = run_command(["corpus"])
    assert isinstance(report, Report) and report.exit_code == 0
    lines = report.rendered.splitlines()
    rows = [line for line in lines if line.endswith("MATCH")]
    assert len(rows) == 14
    assert not any(line.endswith("MISMATCH") for line in lines)
    assert "14/14 entries match" in report.rendered
    # every condition is decided: no search seed or budget to report
    assert "seed" not in report.rendered and "budget" not in report.rendered


def test_corpus_only():
    report = run_command(["corpus", "--only", "9"])
    assert report.exit_code == 0
    assert "1/1 entries match" in report.rendered
    assert len(report.verdicts["entries"]) == 1
    assert report.verdicts["entries"][0]["fixed_points"] == ["5"]


def test_corpus_decides_every_hull_condition():
    from kkmfix.verdict import corpus_entry

    body = json.loads(run_command(["corpus", "--json"]).rendered)
    assert body["inputs"] == "only=None"
    falsified = set()
    for row in body["verdicts"]["entries"]:
        for key, cond in row["verdict"]["conditions"].items():
            assert cond["status"] in ("Proven", "Falsified"), (row["index"], key)
            assert set(cond) == {"status", "detail", "witness"}
            if key in HULL_KINDS and cond["status"] == "Falsified":
                falsified.add(row["index"])
                witness = cond["witness"]
                points = [parse_scalar(p) for p in witness["points"]]
                u = parse_scalar(witness["u"])
                spec = corpus_entry(row["index"]).spec
                assert b_value(HULL_KINDS[key], spec, points, u) < 0
    assert falsified == {4, 14}
    # the search's budget and seed flags are gone
    for flag in ("--budget", "--seed"):
        with pytest.raises(UsageError):
            run_command(["corpus", flag, "0"])


def test_check_falsified(maps):
    report = run_command(["check", "--map", maps[4], "--theorem", "t1"])
    assert report.exit_code == 1
    assert "kkm_anchor" in report.rendered
    assert "Falsified" in report.rendered
    assert "violated by 3/5 at u = 6" in report.rendered
    assert "u = 6; points = 0, 7; weights = 1/7, 6/7" in report.rendered
    assert "fixed points: (none)" in report.rendered
    assert "consistent: yes" in report.rendered
    # the anchor form is decided: no search seed or budget to report
    assert "seed" not in report.rendered and "budget" not in report.rendered


def test_check_favorable(maps):
    report = run_command(["check", "--map", maps[9], "--theorem", "t5"])
    assert report.exit_code == 0
    assert "fixed points: 5" in report.rendered
    assert "consistent: yes" in report.rendered
    # every t5 condition is decided exactly: no seed to report
    assert "seed 0, budget 2000" not in report.rendered


def test_check_json_round_trip(maps):
    argv = ["check", "--map", maps[4], "--theorem", "t1", "--json"]
    report = run_command(argv)
    body = json.loads(report.rendered)
    assert set(body) == {"command", "inputs", "verdicts", "exit_code"}
    assert body["command"] == "check" and body["exit_code"] == 1
    witness = body["verdicts"]["verdict"]["conditions"]["kkm_anchor"]["witness"]
    assert parse_scalar(witness["u"]) == 6
    assert [parse_scalar(p) for p in witness["points"]] == [0, 7]
    assert sum(parse_scalar(w) for w in witness["weights"]) == 1
    # byte-identical rerun
    assert run_command(argv).rendered == report.rendered


def test_check_header_is_read_from_the_payload(maps, tmp_path):
    # the text header names the label that --json carries, or none
    unlabelled = tmp_path / "unlabelled.map"
    unlabelled.write_text(_IDENTITY_MAP.split("\n", 1)[1], encoding="utf-8")
    for path, label in (
        (maps["identity"], "identity on the unit interval"),
        (str(unlabelled), ""),
    ):
        argv = ["check", "--map", path, "--theorem", "t1"]
        body = json.loads(run_command([*argv, "--json"]).rendered)
        assert body["verdicts"]["label"] == label
        shown = f" ({label})" if label else ""
        header = run_command(argv).rendered.splitlines()[0]
        assert header == f"check t1 on {path}{shown}"


def test_fixed_points(maps):
    assert run_command(["fixed-points", "--map", maps[8]]).rendered == "0, 10"
    assert run_command(["fixed-points", "--map", maps[4]]).rendered == "(none)"
    infinite = run_command(["fixed-points", "--map", maps["identity"]])
    assert infinite.exit_code == 0
    assert infinite.rendered == "fixed-point set (infinite): [0, 1]"


def test_kkm_gap_failure(maps):
    argv = ["kkm", "--map", maps[14], "--kind", "g3", "--delta", "2",
            "--points", "3,7"]
    report = run_command(argv)
    assert report.exit_code == 1
    assert "FAILS, uncovered 5" in report.rendered
    assert "intersection of witness sets: [0, 4] U [6, 10]" in report.rendered
    uncovered = parse_scalar(report.verdicts["uncovered"])
    assert 4 < uncovered < 6


def test_kkm_gap_default_delta(maps):
    report = run_command(["kkm", "--map", maps[14], "--kind", "g3",
                          "--points", "3,7"])
    # twice the infimum displacement is the default gap
    assert "delta: 4" in report.rendered
    assert report.exit_code == 1


def test_kkm_anchor_holds(maps):
    report = run_command(["kkm", "--map", maps[2], "--kind", "g1",
                          "--points", "0, 5, 7"])
    assert report.exit_code == 0
    assert "covers the hull" in report.rendered
    assert report.verdicts["uncovered"] is None


def test_parse_reports_shape(maps):
    report = run_command(["parse", "--map", maps[9]])
    assert report.exit_code == 0
    assert "violations: none" in report.rendered
    assert "pieces: 3, overrides: 2" in report.rendered


def test_parse_reports_violations(maps):
    report = run_command(["parse", "--map", maps["bad"]])
    assert report.exit_code == 1
    assert "not-self-map" in report.rendered


# a window beyond the float range, and one too narrow for floats to tell
# its ends apart
_EXTREME_MAPS = {
    "huge": f"domain [0, {10**400}]\npiece [0, {10**400}] all: 1/2 x\n",
    "narrow": (
        f"domain [{10**20}, {10**20 + 1}]\n"
        f"piece [{10**20}, {10**20 + 1}] all: -x + {2 * 10**20 + 1}\n"
    ),
}


@pytest.mark.parametrize("name", sorted(_EXTREME_MAPS))
def test_plot_survives_extreme_magnitudes(name, tmp_path, capsys):
    path = tmp_path / f"{name}.map"
    path.write_text(_EXTREME_MAPS[name], encoding="utf-8")
    for fmt in ("svg", "csv"):
        out = tmp_path / f"{name}.{fmt}"
        argv = ["plot", "--map", str(path), "--out", str(out), "--format", fmt]
        assert main(argv) == 0, fmt
        assert capsys.readouterr().err == ""
        assert "nan" not in out.read_text(encoding="utf-8")
    if name == "huge":
        # the decimal columns overflow to inf, the exact ones keep the value
        last = (tmp_path / "huge.csv").read_text(encoding="utf-8").splitlines()[-1]
        row = last.split(",")
        assert row[:4] == ["inf"] * 4
        assert parse_scalar(row[4]) == 10**400
    else:
        # the fixed point 10^20 + 1/2 sits mid-frame
        svg = (tmp_path / "narrow.svg").read_text(encoding="utf-8")
        assert 'cx="260.00" cy="260.00"' in svg


def test_plot_writes_file(maps, tmp_path):
    out = tmp_path / "plot.svg"
    report = run_command(["plot", "--map", maps[9], "--out", str(out)])
    assert report.exit_code == 0
    assert out.read_text(encoding="utf-8").startswith("<svg")
    assert f"wrote {out}" in report.rendered

    csv_out = tmp_path / "plot.csv"
    run_command(["plot", "--map", maps[9], "--out", str(csv_out),
                 "--format", "csv", "--samples", "11"])
    lines = csv_out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("x,f_rational_branch")
    assert len(lines) == 12


def test_main_prints_rendered(maps, capsys):
    code = main(["fixed-points", "--map", maps[8]])
    assert code == 0
    assert capsys.readouterr().out == "0, 10\n"


_USAGE_CASES = [
    (["check", "--theorem", "t1"], "--map"),
    (["check", "--map", "nowhere.map", "--theorem", "t1"], "--map"),
    (["check", "--map", "x", "--theorem", "t9"], "--theorem"),
    (["corpus", "--only", "15"], "--only"),
    (["kkm", "--map", "x", "--kind", "g1", "--delta", "2",
      "--points", "1"], "--delta"),
    (["plot", "--map", "x", "--out", "/no/such/dir/a.svg"], "--out"),
    (["plot", "--map", "x", "--out", "a", "--samples", "0"], "--samples"),
    (["kkm", "--map", "x", "--kind", "g1", "--points", "20,30"], "--points"),
    (["kkm", "--map", "x", "--kind", "g3", "--delta", "abc",
      "--points", "1"], "--delta"),
    # entry 9 has a fixed point, so no displacement gap to default to
    (["kkm", "--map", "x", "--kind", "g3", "--points", "1"], "--delta"),
    (["kkm", "--map", "x", "--kind", "g1", "--points", "1,zz"], "--points"),
    (["kkm", "--map", "x", "--kind", "g1", "--points", ","], "--points"),
    (["check", "--map", "syntax", "--theorem", "t1"], "--map"),
    (["parse", "--map", "syntax"], "--map"),
]


@pytest.mark.parametrize("argv, flag", _USAGE_CASES)
def test_usage_errors(maps, capsys, argv, flag):
    named = {"x": maps[9], "syntax": maps["syntax"]}
    argv = [named.get(token, token) for token in argv]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("kkmfix: error:")
    assert err.count("\n") == 1
    assert flag in err


# the exact stderr of each _USAGE_CASES entry, then of errors argparse
# reports for the top-level parser
_USAGE_TEXTS = [
    "the following arguments are required: --map",
    "--map: [Errno 2] No such file or directory: 'nowhere.map'",
    "argument --theorem: invalid choice: 't9' (choose from 't1', 'cor3', 't3', "
    "'cor4', 't5')",
    "--only: corpus index out of range 1..14",
    "--delta: only meaningful with --kind g3",
    "--out: [Errno 2] No such file or directory: '/no/such/dir/a.svg'",
    "argument --samples: must be >= 1",
    "--points: 20 outside the domain [0, 10]",
    "--delta: malformed scalar 'abc'",
    "--delta: required for --kind g3 (the map has no displacement gap to "
    "default to)",
    "--points: malformed scalar 'zz'",
    "--points: expected at least one point",
    "--map: line 1, column 8: malformed interval '[0, 1'",
    "--map: line 1, column 8: malformed interval '[0, 1'",
]
_TOP_LEVEL_ERRORS = [
    ([], "the following arguments are required: command"),
    (["frob"], "argument command: invalid choice: 'frob' (choose from 'check', "
     "'fixed-points', 'kkm', 'corpus', 'parse', 'plot')"),
    (["check", "--map", "x", "--theorem", "t1", "extra"],
     "unrecognized arguments: extra"),
    (["--json", "check"], "the following arguments are required: --map, --theorem"),
    (["corpus", "--only", "x"], "argument --only: invalid int value: 'x'"),
]


def test_usage_error_texts_are_pinned(maps, capsys):
    named = {"x": maps[9], "syntax": maps["syntax"]}
    cases = [argv for argv, _ in _USAGE_CASES] + [argv for argv, _ in _TOP_LEVEL_ERRORS]
    texts = _USAGE_TEXTS + [text for _, text in _TOP_LEVEL_ERRORS]
    assert len(cases) == len(texts)
    for argv, text in zip(cases, texts):
        if argv[:1] != ["corpus"]:
            argv = [named.get(token, token) for token in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"kkmfix: error: {text}\n", argv


def test_points_outside_a_point_domain(tmp_path, capsys):
    # a one-point domain prints as a set, {5}, not as [5, 5]
    path = tmp_path / "point.map"
    path.write_text("domain [5, 5]\npiece [5, 5] all: 5\n", encoding="utf-8")
    assert main(["kkm", "--map", str(path), "--kind", "g1", "--points", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "kkmfix: error: --points: 0 outside the domain {5}\n"


_HELP_TEXTS = {
    "": """\
usage: kkmfix [-h] {check,fixed-points,kkm,corpus,parse,plot} ...

Command-line front end: parse mapping files, run checks, emit plots.

positional arguments:
  {check,fixed-points,kkm,corpus,parse,plot}
    check               run one theorem
    fixed-points        exact fixed points
    kkm                 witness-set coverage
    corpus              run the built-in examples
    parse               validate a mapping file
    plot                render a mapping file

options:
  -h, --help            show this help message and exit
""",
    "check": """\
usage: kkmfix check [-h] [--json] --map MAP --theorem {t1,cor3,t3,cor4,t5}

options:
  -h, --help            show this help message and exit
  --json                structured report on stdout
  --map MAP
  --theorem {t1,cor3,t3,cor4,t5}
""",
    "fixed-points": """\
usage: kkmfix fixed-points [-h] [--json] --map MAP

options:
  -h, --help  show this help message and exit
  --json      structured report on stdout
  --map MAP
""",
    "kkm": """\
usage: kkmfix kkm [-h] [--json] --map MAP --kind {g1,g2,g3} [--delta DELTA]
                  --points POINTS

options:
  -h, --help         show this help message and exit
  --json             structured report on stdout
  --map MAP
  --kind {g1,g2,g3}
  --delta DELTA
  --points POINTS
""",
    "corpus": """\
usage: kkmfix corpus [-h] [--json] [--only ONLY]

options:
  -h, --help   show this help message and exit
  --json       structured report on stdout
  --only ONLY
""",
    "parse": """\
usage: kkmfix parse [-h] [--json] --map MAP

options:
  -h, --help  show this help message and exit
  --json      structured report on stdout
  --map MAP
""",
    "plot": """\
usage: kkmfix plot [-h] [--json] --map MAP --out OUT [--format {svg,csv}]
                   [--samples SAMPLES]

options:
  -h, --help          show this help message and exit
  --json              structured report on stdout
  --map MAP
  --out OUT
  --format {svg,csv}
  --samples SAMPLES
""",
}


def test_help_texts_are_pinned(monkeypatch, capsys):
    # argparse wraps help to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    for command, text in _HELP_TEXTS.items():
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"] if command else ["--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == text, command


def test_map_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.map"
    path.write_bytes(b"domain [0, 1]\npiece [0, 1] all: x \xff\n")
    assert main(["parse", "--map", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kkmfix: error: --map: ")
    assert err.count("\n") == 1


def test_map_with_byte_order_mark_reads_as_without(tmp_path):
    plain = _CORPUS_DIR / "corpus09.map"
    bom = tmp_path / "corpus09-bom.map"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    got, want = (
        json.loads(_stdout(["check", "--json", "--map", str(p), "--theorem", "t5"]))
        for p in (bom, plain)
    )
    assert got.pop("inputs") != want.pop("inputs")
    assert got == want


def test_check_onto_long_continued_fraction(tmp_path, capsys):
    # f misses (a, b) for neighbouring golden-ratio convergents a < b; the
    # missed point onto reports takes ~1,500 continued-fraction terms
    a, b, mediant = (f"{fib(n + 1)}/{fib(n)}" for n in (1501, 1502, 1503))
    path = tmp_path / "fib.map"
    path.write_text(
        f"domain [0, 2]\npiece [0, {a}] all: x\npiece ({a}, {b}) all: 0\n"
        f"piece [{b}, 2] all: x\n",
        encoding="utf-8",
    )
    code = main(["check", "--json", "--map", str(path), "--theorem", "t1"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    onto = json.loads(out)["verdicts"]["verdict"]["conditions"]["onto"]
    assert (onto["status"], onto["witness"]) == ("Falsified", mediant)


def test_numeral_over_the_int_digit_limit_names_its_length(maps, tmp_path, capsys):
    # CPython refuses int text longer than its limit; the error says how
    # long the numeral is, not which Python call raises the limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python reads int text of any length")
    big = "1" * (limit + 1)
    reason = (
        f"numeral of {limit + 1} digits exceeds the limit of {limit} "
        "(PYTHONINTMAXSTRDIGITS sets it)"
    )
    path = tmp_path / "big.map"
    for text, where in (
        (f"domain [0, {big}]\npiece [0, {big}] all: x\n", "line 1, column 12"),
        (f"domain [0, 1]\npiece [0, 1] all: 1/{big} x\n", "line 2, column 19"),
        (f"domain [0, 1]\npiece [0, 1] all: x - {big}\n", "line 2, column 19"),
    ):
        path.write_text(text, encoding="utf-8")
        assert main(["parse", "--map", str(path)]) == 2
        assert capsys.readouterr().err == f"kkmfix: error: --map: {where}: {reason}\n"
    for flag, delta, points in (("--delta", big, "1"), ("--points", "1/2", f"1,-{big}/3")):
        argv = ["kkm", "--map", maps[9], "--kind", "g3", "--delta", delta,
                "--points", points]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"kkmfix: error: {flag}: {reason}\n"
    assert parse_scalar(f"{'1' * limit}/3 - sqrt2").a.denominator == 3


def test_value_over_the_int_digit_limit_is_a_usage_error(tmp_path, capsys):
    # a valid map whose plotted values outgrow the limit: one error line,
    # exit 2 and no file, where the csv once ended in a traceback
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python prints int text of any length")
    n, p = int("7" * (limit * 7 // 10)), int("3" * (limit * 7 // 10))
    path, out = tmp_path / "long.map", tmp_path / "f.csv"
    path.write_text(
        f"domain [0, {n}]\npiece [0, {n}] all: {p}/{2 * p + 1} x + 1/3\n",
        encoding="utf-8",
    )
    argv = ["plot", "--map", str(path), "--out", str(out), "--format", "csv",
            "--samples", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"kkmfix: error: a computed numeral exceeds the limit of {limit} "
        "(PYTHONINTMAXSTRDIGITS sets it)\n"
    )
    assert not out.exists()


def test_usage_error_is_exception(maps):
    with pytest.raises(UsageError):
        run_command(["kkm", "--map", maps[9], "--kind", "g3", "--delta", "-1",
                     "--points", "1"])


def test_module_entry_point(maps):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "kkmfix", "corpus", "--only", "9"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "MATCH" in proc.stdout


@pytest.mark.parametrize("extra", [["--only", "4"], ["--only", "4", "--json"], []])
def test_closed_stdout_ends_quietly(extra):
    # `kkmfix corpus | head -3`: the reader goes away before the output
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kkmfix", "corpus", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 0
    assert "Traceback" not in err
    assert err == ""


def test_closed_stdout_ends_quietly_in_process(monkeypatch):
    # main's broken-pipe branch in this process: stdout is a pipe whose
    # read end is closed, and the branch points it at devnull
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    with open(write_fd, "w", encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["corpus", "--only", "4"]) == 0
        out.write("after")  # the flush at close goes to devnull


def test_rendered_determinism(maps):
    argv = ["check", "--map", maps[2], "--theorem", "t1"]
    assert run_command(argv).rendered == run_command(argv).rendered


def _process(code: str, *argv, env=None):
    """Run code with argv in a fresh interpreter: the finished process,
    its stderr as the code left it, and the modules it held at exit,
    which an atexit hook lists on stderr after a NUL."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **(env or {}))
    probe = (
        "import atexit, sys\n"
        "atexit.register(lambda: print('\\0', *sys.modules, file=sys.stderr))\n"
        + code
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env
    )
    proc.stderr, _, listing = proc.stderr.partition("\0")
    return proc, set(listing.split())


def _modules(code: str, *argv) -> set[str]:
    """The modules a fresh interpreter holds when it exits after running
    code with argv."""
    proc, loaded = _process(code, *argv)
    assert proc.returncode in (0, 1), proc.stderr
    return loaded


_RUN_CLI = "import runpy\nrunpy.run_module('kkmfix', run_name='__main__', alter_sys=True)\n"
_DECIDERS = {"kkmfix.conditions", "kkmfix.verdict", "kkmfix.kkm", "kkmfix.randmaps"}


def test_each_command_loads_only_its_modules(maps, tmp_path):
    # what the interpreter itself loads (site hooks included) is no one's cost
    bare = _modules("")
    assert {m for m in _modules("import kkmfix") if m.startswith("kkmfix.")} == set()
    for argv in (
        ["parse", "--map", maps[9]],
        ["fixed-points", "--map", maps[9]],
        ["plot", "--map", maps[9], "--out", str(tmp_path / "f.csv"), "--format", "csv"],
    ):
        loaded = _modules(_RUN_CLI, *argv, "--json") - bare
        assert "kkmfix.mapdef" in loaded
        assert loaded & (_DECIDERS | {"dataclasses"}) == set(), argv
    assert "json" not in _modules(_RUN_CLI, "parse", "--map", maps[9]) - bare
    # kkm builds its witness sets itself: no hull decider, no dataclass
    loaded = _modules(_RUN_CLI, "kkm", "--map", maps[9], "--kind", "g3", "--delta",
                      "1/2", "--points", "3,7", "--json") - bare
    assert "kkmfix.kkm" in loaded
    banned = {"kkmfix.conditions", "kkmfix.verdict", "dataclasses", "inspect"}
    assert loaded & banned == set()
    loaded = _modules(_RUN_CLI, "check", "--map", maps[9], "--theorem", "t5", "--json")
    assert "kkmfix.verdict" in loaded
    assert loaded & {"kkmfix.kkm", "kkmfix.plotting", "kkmfix.randmaps"} == set()



# the modules argparse (gettext, locale) and fractions (decimal, numbers)
# bring, which a well-formed command loads none of
_HEAVY = {"argparse", "gettext", "locale", "fractions", "decimal", "numbers"}
_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _script_entry() -> str:
    """What the installed ``kkmfix`` script runs: the function that
    pyproject.toml names for it, called as the script calls it."""
    text = _PYPROJECT.read_text(encoding="utf-8")
    module, func = re.search(r'^kkmfix = "([\w.]+):(\w+)"$', text, re.M).groups()
    return f"from {module} import {func}\n{func}()\n"


def _workload_argvs(maps, out):
    # one argv per command the benchmark's cli workload runs
    return [
        *(["check", "--map", maps[9], "--theorem", t.value] for t in TheoremId),
        ["fixed-points", "--map", maps[9]],
        ["parse", "--map", maps[9]],
        ["plot", "--map", maps[9], "--out", str(out), "--format", "csv"],
        ["kkm", "--map", maps[9], "--kind", "g3", "--delta", "1/2", "--points", "3,7"],
    ]


@pytest.mark.parametrize("entry", ["module", "script"])
def test_command_processes_load_no_argparse_or_fractions(entry, maps, tmp_path):
    code = _RUN_CLI if entry == "module" else _script_entry()
    bare = _modules("")
    out = tmp_path / "plot.csv"
    for argv in _workload_argvs(maps, out):
        argv = [*argv, "--json"]
        proc, loaded = _process(code, *argv)
        assert (loaded - bare) & _HEAVY == set(), argv
        written = out.read_bytes() if argv[0] == "plot" else None
        # the same exit code, stdout and plot file as in this process
        report = run_command(argv)
        assert (proc.returncode, proc.stderr) == (report.exit_code, ""), argv
        assert proc.stdout == report.rendered + "\n"
        assert json.loads(proc.stdout)["exit_code"] == report.exit_code
        if written is not None:
            assert written == out.read_bytes()
            assert len(written) == report.verdicts["bytes"]


@pytest.mark.parametrize("entry", ["module", "script"])
def test_help_and_usage_errors_still_load_argparse(entry, maps):
    code = _RUN_CLI if entry == "module" else _script_entry()
    proc, loaded = _process(code, "--help", env={"COLUMNS": "80"})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, _HELP_TEXTS[""], "")
    assert "argparse" in loaded
    argv = ["check", "--map", maps[9], "--theorem", "t9"]
    proc, loaded = _process(code, *argv)
    want = f"kkmfix: error: {_USAGE_TEXTS[2]}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)
    assert "argparse" in loaded


def test_entry_freezes_the_collector_after_the_output(maps, monkeypatch, capsys):
    # in this process, with the freeze recorded instead of made
    import gc

    seen = []
    monkeypatch.setattr(gc, "freeze", lambda: seen.append(capsys.readouterr().out))
    monkeypatch.setattr(sys, "argv", ["kkmfix", "fixed-points", "--map", maps[8]])
    with pytest.raises(SystemExit) as stop:
        cli.entry()
    assert (stop.value.code, seen) == (0, ["0, 10\n"])


def test_importing_the_module_entry_runs_nothing():
    proc, loaded = _process("import kkmfix.__main__\nprint('imported')")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "imported\n", "")
    assert "kkmfix.cli" not in loaded


# each command's options, as argv pieces: every value of every choice and
# type, and the plain texts a value may be
_WELL_FORMED = {
    "--map": ["a.map", "", "check", "x=y", "dir/b c.map"],
    "--theorem": list(cli._THEOREMS),
    "--kind": sorted(cli._KINDS),
    "--delta": ["1/2", "sqrt2"],
    "--points": ["1,2", "3"],
    "--only": ["3", "14", " 5", "+2", "0"],
    "--out": ["o.svg"],
    "--format": list(cli._FORMATS),
    "--samples": ["7", "101"],
}


def _well_formed_argvs():
    """Every command with each subset of its options that keeps the
    required ones, in every order, each value in turn, and ``--json``
    absent or at each place after the command."""
    rounds = max(len(values) for values in _WELL_FORMED.values())
    for command, (_, options) in cli._OPTIONS.items():
        flags = [flag for flag, _ in options]
        required = {flag for flag, kwargs in options if kwargs.get("required")}
        for mask in range(1 << len(flags)):
            chosen = [f for i, f in enumerate(flags) if mask >> i & 1]
            if not required <= set(chosen):
                continue
            for order in itertools.permutations(chosen):
                for k in range(rounds):
                    tokens = []
                    for f in order:
                        tokens += [f, _WELL_FORMED[f][k % len(_WELL_FORMED[f])]]
                    for at in [None, *range(len(order) + 1)]:
                        argv = [command, *tokens]
                        if at is not None:
                            argv.insert(1 + 2 * at, "--json")
                        yield argv


# forms the table reader leaves to argparse: help, joined values,
# abbreviations, repeats, dash-led or missing values, and the invalid
_DECLINED = [
    [],
    ["--help"],
    ["-h"],
    ["--json", "check"],
    ["frob"],
    ["check", "-h"],
    ["check", "--help", "--map", "a"],
    ["check", "--map=a.map", "--theorem", "t1"],
    ["check", "--map", "a.map", "--the", "t5"],
    ["check", "--ma", "a.map", "--theorem", "t5"],
    ["check", "--map", "a", "--map", "b", "--theorem", "t1"],
    ["check", "--map", "a", "--theorem", "t1", "--json", "--json"],
    ["check", "--map", "a", "--theorem", "t1", "extra"],
    ["check", "--map", "a", "--theorem"],
    ["check", "--map", "--theorem", "t1"],
    ["check", "--map", "-", "--theorem", "t1"],
    ["check", "--map", "-a.map", "--theorem", "t1"],
    ["check", "--map", "a", "--theorem", "t9"],
    ["check", "--map", "a", "--theorem", "T1"],
    ["check", "--map", "a", "--theorem", "t1", "--", "x"],
    ["check", "--theorem", "t1"],
    ["check", "--map", "a"],
    ["corpus", "--only", "-3"],
    ["corpus", "--only", "x"],
    ["corpus", "--only", "3", "--only", "4"],
    ["corpus", "--only"],
    ["kkm", "--map", "a", "--kind", "g3", "--delta", "-1", "--points", "1"],
    ["kkm", "--map", "a", "--kind", "g4", "--points", "1"],
    ["kkm", "--map", "a", "--kind", "g1"],
    ["plot", "--map", "a", "--out", "o", "--samples", "0"],
    ["plot", "--map", "a", "--out", "o", "--samples", "-1"],
    ["plot", "--map", "a", "--out", "o", "--samples", "1.5"],
    ["plot", "--map", "a", "--out", "o", "--format", "png"],
    ["plot", "--map", "a", "--out", "o", "--format=csv"],
    ["plot", "--map", "a", "--format", "csv"],
    ["parse", "--map", "a", "--theorem", "t1"],
]


_PARSERS = {}


def _argparse_vars(argv):
    # argparse's reading of argv: its namespace's vars, or why it stopped
    command = argv[0] if argv else None
    if command not in _PARSERS:
        _PARSERS[command] = cli.build_parser(command)
    try:
        return vars(_PARSERS[command].parse_args(argv))
    except UsageError as err:
        return ("usage", str(err))
    except SystemExit as stop:
        return ("exit", stop.code)


def test_table_reader_agrees_with_argparse(capsys):
    argvs = list(_well_formed_argvs())
    assert len(argvs) > 1000
    for argv in argvs:
        read = cli._read_argv(argv)
        assert read is not None, argv
        assert vars(read) == _argparse_vars(argv), argv
    for argv in _DECLINED:
        assert cli._read_argv(argv) is None, argv
        _argparse_vars(argv)  # argparse reads it, or says why not
    capsys.readouterr()  # the help texts argparse printed


def test_option_choices_match_the_modules_they_name():
    from kkmfix import plotting, verdict
    from kkmfix.conditions import Status
    from kkmfix.kkm import GForm

    assert list(cli._THEOREMS) == [t.value for t in TheoremId]
    assert [GForm(v) for v in cli._KINDS.values()] == list(GForm)
    assert cli._FORMATS == plotting.FORMATS
    assert cli._FALSIFIED == Status.FALSIFIED.value
    # check's text pads each condition key to two past the longest
    tables = verdict._HYPOTHESES.values()
    assert cli._KEY_COLUMN == 2 + max(len(key) for rows in tables for key, _ in rows)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as edge_dir:
        rows = _text_digests(Path(edge_dir))
    _TEXT_OUTPUTS.write_text(
        "# map command sha256(text output)[:16]; see test_cli.py\n"
        + "".join(" ".join(row) + "\n" for row in rows),
        encoding="utf-8",
    )
