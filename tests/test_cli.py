import math
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from hedgehog import cli, constructions, core, extractors, verifiers


def run_cli(args, expect=None):
    r = subprocess.run(
        [sys.executable, "-m", "hedgehog.cli"] + args,
        capture_output=True,
        text=True,
    )
    if expect is not None:
        assert r.returncode == expect, (args, r.returncode, r.stdout, r.stderr)
    return r


def test_generate_random_byte_stable(tmp_path):
    a = tmp_path / "a.hcol"
    b = tmp_path / "b.hcol"
    argv = ["generate", "random", "-n", "30", "-k", "3", "-q", "2", "--seed", "1"]
    run_cli(argv + ["--out", str(a)], expect=0)
    run_cli(argv + ["--out", str(b)], expect=0)
    assert a.read_bytes() == b.read_bytes()


def test_find_and_verify_round_trip(tmp_path):
    col = tmp_path / "c.hcol"
    cert = tmp_path / "c.cert"
    run_cli(
        ["generate", "random", "-n", "108", "-k", "3", "-q", "2",
         "--seed", "5", "--out", str(col)],
        expect=0,
    )
    run_cli(
        ["find", "hedgehog", "--t", "3", "--in", str(col), "--cert", str(cert)],
        expect=0,
    )
    r = run_cli(
        ["verify", "embedding", "--in", str(col), "--cert", str(cert)], expect=0
    )
    assert "verified" in r.stdout
    # forced-colour variant produces a certificate of the requested colour
    r = run_cli(
        ["find", "hedgehog", "--t", "3", "--in", str(col), "--colour", "1",
         "--cert", str(cert)],
        expect=0,
    )
    assert "colour 1" in cert.read_text()
    run_cli(["verify", "embedding", "--in", str(col), "--cert", str(cert)], expect=0)


def test_verify_rejects_mutated_certificate(tmp_path):
    col = tmp_path / "c.hcol"
    cert = tmp_path / "c.cert"
    run_cli(
        ["generate", "random", "-n", "108", "-k", "3", "-q", "2",
         "--seed", "6", "--out", str(col)],
        expect=0,
    )
    run_cli(
        ["find", "hedgehog", "--t", "3", "--in", str(col), "--cert", str(cert)],
        expect=0,
    )
    lines = cert.read_text().splitlines()
    spine = lines[-1].split()
    spine[-1] = lines[4].split()[1]  # redirect last spine into the body
    lines[-1] = " ".join(spine)
    bad = tmp_path / "bad.cert"
    bad.write_text("\n".join(lines) + "\n")
    run_cli(["verify", "embedding", "--in", str(col), "--cert", str(bad)], expect=2)


def test_verify_malformed_certificate_is_usage_error(tmp_path, capsys):
    col = tmp_path / "c.hcol"
    core.write_colouring(core.CompleteColouring(6, 3, 2, np.zeros(20, dtype=np.uint8)), col)
    cert = tmp_path / "c.cert"
    cert.write_text("HEDGEHOG v1\nk 3\nt 2\ncolour 0\nbody 0 1\nspine 0 1 -> x\n")
    assert cli.main(["verify", "embedding", "--in", str(col), "--cert", str(cert)]) == 64
    assert "malformed certificate" in capsys.readouterr().err


def test_scattered_lift_verify_chain(tmp_path):
    base = tmp_path / "scat.hcol"
    lifted = tmp_path / "lift.hcol"
    run_cli(
        ["generate", "scattered", "-n", "8", "--t", "4", "-q", "4",
         "--seed", "2", "--out", str(base)],
        expect=0,
    )
    run_cli(
        ["lift", "complement", "--in", str(base), "--palette", "0,1,2,3",
         "--out", str(lifted)],
        expect=0,
    )
    r = run_cli(
        ["verify", "lift", "--in", str(lifted), "--base", str(base), "--t", "4"],
        expect=0,
    )
    assert "verified" in r.stdout
    r = run_cli(
        ["verify", "scattered", "--in", str(base), "--t", "4"], expect=0
    )
    assert "verified" in r.stdout


def test_search_exit_codes():
    r = run_cli(["search", "exhaustive", "--t", "2", "-q", "2", "-n", "3"], expect=0)
    assert "holds" in r.stdout
    r = run_cli(["search", "exhaustive", "--t", "2", "-q", "2", "-n", "2"], expect=2)
    assert "counterexample" in r.stdout
    r = run_cli(
        ["search", "exhaustive", "--t", "3", "-q", "2", "-n", "12", "--budget", "2000"], expect=3
    )
    assert r.stderr == (
        "refused: node budget 2000 exhausted after 2001 search nodes (t=3 q=2 n=12)\n"
    )
    # too many triples for the search: refused at once, with no traceback
    r = run_cli(["search", "exhaustive", "--t", "3", "-q", "1200", "-n", "20"], expect=3)
    assert r.stdout == ""
    assert r.stderr == "refused: 1140 triples on n=20 vertices exceed the search's 816 (n <= 18)\n"


SEARCH_PINS = [
    (["--t", "3", "-q", "2", "-n", "5"], 2,
     "ramsey-check t=3 q=2 n=5: counterexample (1 of 1024 colourings checked)\n"
     "HCOL v1 n=5 k=3 q=2\n0000000000\n"),
    (["--t", "3", "-q", "2", "-n", "6"], 2,
     "ramsey-check t=3 q=2 n=6: counterexample (1024 of 1048576 colourings checked)\n"
     "HCOL v1 n=6 k=3 q=2\n11111111110000000000\n"),
    (["--t", "2", "-q", "2", "-n", "3"], 0,
     "ramsey-check t=2 q=2 n=3: holds (1 of 2 colourings checked)\n"),
    (["--t", "3", "-q", "2", "-n", "7"], 0,
     "ramsey-check t=3 q=2 n=7: holds (17179869184 of 34359738368 colourings checked)\n"),
    (["--t", "3", "-q", "2", "-n", "12", "--budget", "2000"], 3, ""),
]


@pytest.mark.parametrize(
    "flags, code, out", SEARCH_PINS, ids=["n5", "n6", "holds", "holds-n7", "refused"]
)
def test_search_exhaustive_stdout_is_pinned(flags, code, out, capsys):
    # the count is the counterexample's index in the scan order plus one;
    # at n = 5 the all-zero colouring has no room for a body-3 hedgehog
    assert cli.main(["search", "exhaustive"] + flags) == code
    captured = capsys.readouterr()
    assert captured.out == out
    if code == 3:
        assert captured.err == (
            "refused: node budget 2000 exhausted after 2001 search nodes (t=3 q=2 n=12)\n"
        )


def test_search_exhaustive_budget_shares_the_f_oracle_default(capsys):
    parser = cli.build_parser()
    n5 = ["search", "exhaustive", "--t", "3", "-q", "2", "-n", "5"]
    search = parser.parse_args(n5)
    oracle = parser.parse_args(["f-oracle", "--t", "3", "--cap", "5"])
    assert search.budget == oracle.budget == core.DEFAULT_NODE_BUDGET == 2_000_000
    assert cli.main(n5 + ["--budget", "-1"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: node budget -1 is negative\n"
    # the old scan-size flag is gone
    assert cli.main(n5 + ["--limit", "9"]) == 64


def test_f_oracle_command():
    r = run_cli(["f-oracle", "--t", "2", "--cap", "4"], expect=0)
    assert "F(2) = 2" in r.stdout


def test_unknown_flag_rejected(tmp_path):
    run_cli(
        ["generate", "random", "-n", "3", "-k", "2", "-q", "2", "--seed", "0",
         "--out", str(tmp_path / "x"), "--bogus"],
        expect=64,
    )
    run_cli(["nonsense"], expect=64)


def test_missing_input_file_is_usage_error(tmp_path):
    run_cli(
        ["find", "hedgehog", "--t", "3", "--in", str(tmp_path / "absent.hcol")],
        expect=64,
    )


def test_pipeline_command(tmp_path):
    col = tmp_path / "tri.hcol"
    cert = tmp_path / "tri.cert"
    run_cli(
        ["generate", "random", "-n", "60", "-k", "3", "-q", "3",
         "--seed", "0", "--out", str(col)],
        expect=0,
    )
    r = run_cli(
        ["pipeline", "--t", "3", "--in", str(col), "--seed", "0",
         "--scale", "clique_target=4", "--cert", str(cert)],
        expect=0,
    )
    assert "PIPELINE-TRACE" in r.stderr
    run_cli(["verify", "embedding", "--in", str(col), "--cert", str(cert)], expect=0)


def test_extract_commands(tmp_path):
    col = tmp_path / "tri.hcol"
    run_cli(
        ["generate", "random", "-n", "40", "-k", "3", "-q", "3",
         "--seed", "1", "--out", str(col)],
        expect=0,
    )
    r = run_cli(
        ["extract", "spencer", "--in", str(col), "--t", "3", "--seed", "1"],
        expect=0,
    )
    assert "independent-set size" in r.stdout

    mono = tmp_path / "mono.hcol"
    run_cli(
        ["generate", "random", "-n", "9", "-k", "2", "-q", "1",
         "--seed", "1", "--out", str(mono)],
        expect=0,
    )
    # recode as a 3-colour file so the gallai extractor accepts it
    text = mono.read_text().replace("q=1", "q=3")
    mono.write_text(text)
    r = run_cli(["extract", "gallai", "--in", str(mono)], expect=0)
    assert "CLIQUE v1" in r.stdout


def test_verify_rainbow_and_f_witness(tmp_path):
    good = tmp_path / "good.hcol"
    good.write_text("HCOL v1 n=3 k=2 q=4\n013\n")
    r = run_cli(["verify", "rainbow", "--in", str(good), "--palette", "0,1,2"], expect=0)
    bad = tmp_path / "bad.hcol"
    bad.write_text("HCOL v1 n=3 k=2 q=4\n012\n")
    run_cli(["verify", "rainbow", "--in", str(bad), "--palette", "0,1,2"], expect=2)
    run_cli(["verify", "f-witness", "--in", str(bad), "--t", "4"], expect=2)


def test_batch_manifest(tmp_path):
    m1 = tmp_path / "m1.hcol"
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "# comment line\n"
        f"generate random -n 10 -k 2 -q 3 --seed 1 --out {m1}\n"
        f"verify scattered --in {m1} --t 2 -q 3\n"
    )
    r = run_cli(["batch", "--manifest", str(manifest)], expect=None)
    assert "entries" in r.stdout
    # first entry always passes; record both rows present
    assert str(m1) in r.stdout


def test_batch_empty_manifest(tmp_path):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("")
    r = run_cli(["batch", "--manifest", str(manifest)], expect=0)
    assert "0 entries, 0 failed" in r.stdout


def test_batch_reports_failures(tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text("search exhaustive --t 2 -q 2 -n 2\n")
    r = run_cli(["batch", "--manifest", str(manifest)], expect=1)
    assert "FAIL(2)" in r.stdout


def test_help_covers_subcommands():
    r = run_cli(["--help"], expect=0)
    for name in ("generate", "lift", "find", "extract", "pipeline",
                 "verify", "search", "f-oracle", "batch"):
        assert name in r.stdout


def test_main_entry_point_direct():
    assert cli.main(["f-oracle", "--t", "2", "--cap", "3"]) == 0


EXIT_TABLE = (
    (core.InvalidArgument("boom"), 64),
    (core.InfeasibleSpec("boom"), 64),
    (core.PreconditionViolated("boom"), 64),
    (OSError("boom"), 64),
    (core.RefusedInstance("boom"), 3),
    (core.StagedFailure("stage", "boom"), 1),
    (core.GuaranteeViolated("boom"), 2),
    (core.ToolkitError("boom"), 2),
)
SEARCH = ["search", "exhaustive", "--t", "2", "-q", "2", "-n", "3"]


@pytest.mark.parametrize("exc, code", EXIT_TABLE, ids=[type(e).__name__ for e, _ in EXIT_TABLE])
def test_exit_code_table_direct_and_batch(exc, code, tmp_path, monkeypatch, capsys):
    def raise_it(*args, **kwargs):
        raise exc

    monkeypatch.setattr(verifiers, "exhaustive_ramsey_check", raise_it)
    assert cli.exit_code_for(exc) == code
    assert cli.main(SEARCH) == code
    err = capsys.readouterr().err
    assert err.endswith(f": {exc}\n") and err.count("\n") == 1
    manifest = tmp_path / "m.txt"
    manifest.write_text(" ".join(SEARCH) + "\n")
    assert cli.main(["batch", "--manifest", str(manifest)]) == 1
    assert f"FAIL({code})" in capsys.readouterr().out


def test_exit_codes_of_real_failures_agree_in_batch(tmp_path, capsys):
    col = tmp_path / "c.hcol"
    core.write_colouring(core.CompleteColouring(6, 3, 2, np.zeros(20, dtype=np.uint8)), col)
    cert = tmp_path / "c.cert"
    cert.write_text("HEDGEHOG v1\nk 3\nt 2\ncolour 0\nbody 0 1\nspine 0 1 -> x\n")
    entries = {
        f"verify embedding --in {col} --cert {cert}": 64,  # InvalidArgument
        "search exhaustive --t 3 -q 2 -n 12 --budget 2000": 3,  # RefusedInstance
        "search exhaustive --bogus": 64,  # bad flag
        f"find hedgehog --t 3 --in {tmp_path / 'absent.hcol'}": 64,  # OSError
        f"pipeline --t 3 --in {col} --seed 0 --scale clique_target=x": 64,
    }
    for line, code in entries.items():
        assert cli.main(shlex.split(line)) == code, line
    manifest = tmp_path / "m.txt"
    manifest.write_text("\n".join(entries) + "\nverify 'unclosed\n")
    assert cli.main(["batch", "--manifest", str(manifest)]) == 1
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split()[-2] for row in rows] == [
        f"FAIL({code})" for code in entries.values()
    ] + ["FAIL(64)"]


def test_plain_toolkit_error_is_not_a_traceback(monkeypatch, capsys):
    # an oracle that disagrees with the search's counterexample raises
    # ToolkitError
    monkeypatch.setattr(verifiers, "has_monochromatic_hedgehog", lambda *args: object())
    assert cli.main(["search", "exhaustive", "--t", "3", "-q", "2", "-n", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: first-use search and hedgehog oracle")


def test_generate_random_fails_closed(tmp_path, capsys):
    out = tmp_path / "x.hcol"
    base = ["generate", "random", "-k", "3", "-q", "2", "--out", str(out)]
    assert cli.main(base + ["-n", "-1", "--seed", "0"]) == 64
    assert cli.main(base + ["-n", "5", "--seed", "-1"]) == 64
    assert cli.main(["generate", "random", "-n", "5", "-k", "3", "-q", "300",
                     "--seed", "0", "--out", str(out)]) == 64
    assert not out.exists()
    assert capsys.readouterr().err.count("error: ") == 3


def test_non_utf8_hcol_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.hcol"
    path.write_bytes(b"HCOL v1 n=3 k=2 q=2\n01\xff0\n")
    assert cli.main(["find", "hedgehog", "--t", "3", "--in", str(path)]) == 64
    assert "invalid hex digit at body position 2" in capsys.readouterr().err


def test_verify_lift_reports_corrupted_triple(tmp_path, capsys):
    base = constructions.random_colouring(9, 2, 4, 3)
    lifted = constructions.complement_lift(base, (0, 1, 2, 3))
    colours = lifted.colours.copy()
    colours[11] = (colours[11] + 2) % 4
    base_path, lift_path = tmp_path / "base.hcol", tmp_path / "lift.hcol"
    core.write_colouring(base, base_path)
    core.write_colouring(core.CompleteColouring(9, 3, 4, colours), lift_path)
    argv = ["verify", "lift", "--in", str(lift_path), "--base", str(base_path), "--t", "4"]
    assert cli.main(argv) == 2
    tri = tuple(core.unrank_subset(11, 9, 3))
    assert capsys.readouterr().out == (
        f"violation lift: triple {tri} coloured {colours[11]}, "
        f"expected {lifted.colours[11]}\n"
    )


def test_exhaustive_check_fails_closed(capsys):
    search = ["search", "exhaustive", "--t", "3"]
    assert cli.main(search + ["-q", "0", "-n", "5"]) == 64
    assert cli.main(search + ["-q", "2", "-n", "-4"]) == 64
    assert cli.main(["search", "exhaustive", "--t", "1", "-q", "2", "-n", "5"]) == 64
    assert capsys.readouterr().err.count("error: ") == 3


@pytest.fixture
def three_coloured(tmp_path):
    path = tmp_path / "t3.hcol"
    core.write_colouring(constructions.random_colouring(12, 3, 3, 0), path)
    return str(path)


def test_pipeline_negative_seed_is_usage_error(three_coloured, capsys):
    argv = ["pipeline", "--t", "3", "--in", three_coloured, "--seed", "-1"]
    assert cli.main(argv) == 64
    assert capsys.readouterr().err == "error: seed -1 is not a non-negative integer\n"


def test_spencer_negative_seed_is_usage_error(three_coloured, capsys):
    argv = ["extract", "spencer", "--in", three_coloured, "--t", "3", "--seed", "-1"]
    assert cli.main(argv) == 64
    assert capsys.readouterr().err == "error: seed -1 is not a non-negative integer\n"


def test_spencer_negative_trials_is_usage_error(three_coloured, capsys):
    argv = ["extract", "spencer", "--in", three_coloured, "--t", "3", "--seed", "0"]
    assert cli.main(argv + ["--trials", "-1"]) == 64
    assert capsys.readouterr().out == ""
    # the library call fails closed too, instead of returning [] against a
    # promise of 4 on two disjoint edges
    hyper = extractors.TriangleHypergraph.from_edge_list(6, [(0, 1, 2), (3, 4, 5)])
    assert extractors.spencer_guarantee(6, 2) == 4
    with pytest.raises(core.InvalidArgument):
        extractors.spencer_independent_set(hyper, 0, trials=-1)


def test_scattered_negative_max_steps_is_usage_error(tmp_path):
    out = tmp_path / "s.hcol"
    argv = ["generate", "scattered", "-n", "6", "--t", "3", "-q", "3", "--seed", "0",
            "--max-steps", "-1", "--out", str(out)]
    assert cli.main(argv) == 64
    assert not out.exists()


def test_scattered_negative_max_tries_is_usage_error(tmp_path):
    out = tmp_path / "s.hcol"
    argv = ["generate", "scattered", "-n", "6", "--t", "3", "-q", "3", "--seed", "0",
            "--max-tries", "-1", "--out", str(out)]
    assert cli.main(argv) == 64
    assert not out.exists()


def test_scattered_oversized_table_is_refused(tmp_path, capsys):
    out = tmp_path / "s.hcol"
    argv = ["generate", "scattered", "-n", "200", "--t", "6", "-q", "4", "--seed", "0",
            "--out", str(out)]
    assert cli.main(argv) == 3
    assert not out.exists()
    assert capsys.readouterr().err == (
        "refused: a scattered search at n=200, t=6 needs 1236129394500 count-table "
        "entries, above the limit 16777216\n"
    )


@pytest.mark.parametrize(
    "n,t,q", [(6, 3, 0), (6, 3, -2), (26, 25, 300)], ids=["q0", "q-2", "q300"]
)
def test_scattered_bad_colour_count_is_usage_error(tmp_path, capsys, n, t, q):
    # q = 0 and q = -2 used to die in randrange, q = 300 in a uint8 cast
    out = tmp_path / "s.hcol"
    argv = ["generate", "scattered", "-n", str(n), "--t", str(t), "-q", str(q),
            "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 64
    assert not out.exists()
    assert f"colour count q={q}" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["0", "-1"])
def test_verify_scattered_bad_colour_count_is_usage_error(tmp_path, capsys, q):
    base = tmp_path / "g.hcol"
    core.write_colouring(constructions.random_colouring(6, 2, 3, 0), str(base))
    argv = ["verify", "scattered", "--in", str(base), "--t", "3", "-q", q]
    assert cli.main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and f"colour count q={q}" in captured.err


@pytest.mark.parametrize("t", ["0", "-1"])
def test_verify_scattered_bad_clique_size_is_usage_error(tmp_path, capsys, t):
    base = tmp_path / "g.hcol"
    core.write_colouring(constructions.random_colouring(6, 2, 3, 0), str(base))
    assert cli.main(["verify", "scattered", "--in", str(base), "--t", t]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and f"clique size t={t}" in captured.err


@pytest.mark.parametrize("t", ["16624", "1000000000"])
def test_gallai_witness_too_large_is_refused_before_any_draw(tmp_path, capsys, t):
    # base_size^3 > MAX_VERTICES: refused before a base_size x base_size
    # base is drawn and searched for cliques
    out = tmp_path / "g.hcol"
    argv = ["generate", "gallai-witness", "--t", t, "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 64
    assert not out.exists()
    assert "exceeds MAX_VERTICES" in capsys.readouterr().err


def test_extract_gallai_checks_its_witness_before_printing(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g.hcol"
    col = core.CompleteColouring(4, 2, 3, np.array([0, 0, 1, 0, 1, 2], dtype=np.uint8))
    core.write_colouring(col, path)
    assert cli.main(["extract", "gallai", "--in", str(path)]) == 0
    assert capsys.readouterr().out.startswith("CLIQUE v1")
    # a clique whose claimed census misses a colour, and one with three colours
    bad = [
        core.CliqueWitness((0, 1, 2), frozenset({0})),
        core.CliqueWitness((0, 1, 2, 3), frozenset({0, 1, 2})),
    ]
    for witness, kind in zip(bad, ["census: claimed colours [0], actual [0, 1]",
                                   "census: 3 colours exceed limit 2"]):
        monkeypatch.setattr(extractors, "gallai_two_coloured_clique", lambda g: witness)
        assert cli.main(["extract", "gallai", "--in", str(path)]) == 2
        assert capsys.readouterr().out == f"violation {kind}\n"


def test_f_oracle_negative_budget_is_usage_error(capsys):
    assert cli.main(["f-oracle", "--t", "3", "--cap", "5", "--budget", "-1"]) == 64
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("n", [0, 1, 2])
def test_pipeline_below_three_vertices_is_a_staged_failure(n, tmp_path, capsys):
    path = tmp_path / "tiny.hcol"
    core.write_colouring(core.CompleteColouring(n, 3, 3, np.zeros(0, dtype=np.uint8)), path)
    assert cli.main(["pipeline", "--t", "3", "--in", str(path), "--seed", "0"]) == 1
    assert capsys.readouterr().err == (
        f"failed: [three-colour-clique] peeled set of {n} cannot hold a clique of 27\n"
    )


def test_threads_flag_is_gone(tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text("search exhaustive --t 2 -q 2 -n 3\n")
    assert cli.main(["--threads", "2", "batch", "--manifest", str(manifest)]) == 64


def test_bad_body_size_is_usage_error_like_find(three_coloured, capsys):
    assert cli.main(["find", "hedgehog", "--t", "0", "--in", three_coloured]) == 64
    assert capsys.readouterr().err == "error: body size t=0 must be at least k-1=2\n"
    argv = ["extract", "spencer", "--in", three_coloured, "--t", "-3", "--seed", "0"]
    assert cli.main(argv) == 64
    assert capsys.readouterr().err == "error: body size t=-3 must be at least k-1=2\n"


@pytest.mark.parametrize("t, scale", [(1, "clique_target=1"), (0, ""), (-3, "")])
def test_pipeline_rejects_body_below_two_before_stage_one(t, scale, three_coloured, capsys):
    argv = ["pipeline", "--t", str(t), "--in", three_coloured, "--seed", "0", "--scale", scale]
    assert cli.main(argv) == 64
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: body size t={t} must be at least k-1=2\n")


# --- one parser per process: every call below runs on the shared parser and
# must match the same call on a freshly built one, byte for byte

_BATCH_SECONDS = re.compile(r"(PASS|FAIL\(\d+\)) +\d+\.\d\d$", re.MULTILINE)


def _run_calls(argvs, capsys):
    results = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        out, err = capsys.readouterr()
        results.append((code, _BATCH_SECONDS.sub(r"\1", out), err))
    return results


def _shared_and_fresh(argvs, capsys, monkeypatch):
    cli._shared_parser.cache_clear()
    shared = _run_calls(argvs, capsys)
    assert cli._shared_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    assert _run_calls(argvs, capsys) == shared
    return shared


@pytest.fixture
def blue_heavy(tmp_path):
    # mostly blue at n = 4t^3 for t = 2: the default search returns a red
    # hedgehog, and a blue one exists too
    path = tmp_path / "b.hcol"
    rng = np.random.default_rng(3)
    colours = (rng.random(math.comb(32, 3)) < 0.7).astype(np.uint8)
    core.write_colouring(core.CompleteColouring(32, 3, 2, colours), path)
    return str(path)


def test_shared_parser_does_not_carry_a_flag_over(blue_heavy, capsys, monkeypatch):
    find = ["find", "hedgehog", "--t", "2", "--in", blue_heavy]
    (forced, _, _), (auto, out, _) = _shared_and_fresh(
        [find + ["--colour", "1"], find], capsys, monkeypatch
    )
    assert (forced, auto) == (0, 0)
    assert "colour 0\n" in out


def test_shared_parser_after_a_bad_flag(blue_heavy, capsys, monkeypatch):
    find = ["find", "hedgehog", "--t", "2", "--in", blue_heavy]
    bad, good = _shared_and_fresh([find + ["--bogus"], find], capsys, monkeypatch)
    assert bad[0] == 64 and bad[2].startswith("usage error: ")
    assert good[0] == 0 and good[1].startswith("HEDGEHOG v1\n")


def test_shared_parser_help_is_byte_identical(capsys, monkeypatch):
    argvs = [["--help"], ["find", "hedgehog", "--help"], ["--help"]]
    first, sub, again = _shared_and_fresh(argvs, capsys, monkeypatch)
    assert first == again and first[0] == 0 and first[1].startswith("usage: hedgehog")
    assert "--colour" in sub[1]


def test_shared_parser_in_a_mixed_batch(blue_heavy, tmp_path, capsys, monkeypatch):
    find = f"find hedgehog --t 2 --in {blue_heavy}"
    manifest = tmp_path / "m.txt"
    manifest.write_text(
        f"{find} --colour 1\n{find}\n{find} --bogus\nsearch exhaustive --t 2 -q 2 -n 2\n"
        f"verify 'unclosed\n{find}\n"
    )
    (code, out, err), = _shared_and_fresh(
        [["batch", "--manifest", str(manifest)]], capsys, monkeypatch
    )
    assert code == 1 and err == (
        "usage error: unrecognized arguments: --bogus\n"
        "usage error: bad manifest line: No closing quotation\n"
    )
    lines = out.splitlines()
    assert [ln for ln in lines if ln.startswith("colour ")] == ["colour 1", "colour 0", "colour 0"]
    statuses = [ln.split()[-1] for ln in lines if ln.startswith(("find", "search", "verify"))]
    assert statuses == ["PASS", "PASS", "FAIL(64)", "FAIL(2)", "FAIL(64)", "PASS"]


def test_batch_prints_each_failing_entry_reason(tmp_path, capsys):
    # the same stderr line a direct run prints, one per failing entry; an
    # entry that returns its code (the counterexample) prints none
    entries = [
        "search exhaustive --bogus",
        f"verify embedding --in {tmp_path / 'absent.hcol'} --cert x",
        "search exhaustive --t 2 -q 2 -n 2",
    ]
    direct = ""
    for line in entries:
        cli.main(shlex.split(line))
        direct += capsys.readouterr().err
    assert direct == (
        "usage error: the following arguments are required: --t, -q, -n\n"
        f"io error: [Errno 2] No such file or directory: '{tmp_path / 'absent.hcol'}'\n"
    )
    manifest = tmp_path / "m.txt"
    manifest.write_text("\n".join(entries) + "\n")
    assert cli.main(["batch", "--manifest", str(manifest)]) == 1
    out, err = capsys.readouterr()
    assert err == direct
    rows = [ln for ln in out.splitlines() if ln.startswith(tuple(entries))]
    assert [row.split()[-2] for row in rows] == ["FAIL(64)", "FAIL(64)", "FAIL(2)"]


def test_batch_entry_running_batch_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"batch --manifest {manifest}\n")
    assert cli.main(["batch", "--manifest", str(manifest)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[-2] == "FAIL(64)"
    assert out[2:] == ["1 entries, 1 failed"]


def test_extract_gallai_on_the_empty_colouring(tmp_path, capsys):
    path = tmp_path / "e.hcol"
    core.write_colouring(core.CompleteColouring(0, 2, 3, np.zeros(0, dtype=np.uint8)), path)
    assert cli.main(["extract", "gallai", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "CLIQUE v1\nvertices \ncolours \n"


def test_verify_violation_texts_are_pinned(tmp_path, capsys):
    def write(name, n, k, q, colours):
        path = tmp_path / name
        core.write_colouring(core.CompleteColouring(n, k, q, np.array(colours, dtype=np.uint8)), path)
        return str(path)

    one, two = write("b1.hcol", 4, 2, 1, [0] * 6), write("b2.hcol", 4, 2, 2, [0] * 6)
    lift, bad_lift = write("l1.hcol", 4, 3, 2, [1] * 4), write("l0.hcol", 4, 3, 2, [1, 0, 1, 1])
    rainbow, yellow = write("r.hcol", 3, 2, 4, [0, 1, 2]), write("y.hcol", 4, 2, 4, [3] * 6)
    cert = tmp_path / "e.cert"
    cert.write_text("HEDGEHOG v1\nk 3\nt 2\ncolour 0\nbody 0 1\nspine 0 1 -> 2\n")
    cases = [
        (["embedding", "--in", lift, "--cert", str(cert)],
         "colour: edge (0, 1, 2) has colour 1, expected 0\n"),
        (["lift", "--in", bad_lift, "--base", two, "--t", "2"],
         "lift: triple (0, 1, 3) coloured 0, expected 1\n"),
        (["lift", "--in", lift, "--base", two, "--t", "2"],
         "base-not-scattered CliqueWitness(vertices=(0, 1), colours=frozenset({0}))\n"),
        (["lift", "--in", lift, "--base", one, "--t", "2", "--palette", "0,1"],
         "monochromatic-hedgehog colour 1\nHEDGEHOG v1\nk 3\nt 2\ncolour 1\n"
         "body 0 1\nspine 0 1 -> 2\n"),
        (["scattered", "--in", two, "--t", "3"],
         "deficient-clique\nCLIQUE v1\nvertices 0 1 2\ncolours 0\n"),
        (["rainbow", "--in", rainbow], "rainbow-triangle (0, 1, 2)\n"),
        (["f-witness", "--in", rainbow, "--t", "4"], "rainbow-triangle\n"),
        (["f-witness", "--in", yellow, "--t", "3"], "small-palette-clique\n"),
    ]
    for argv, text in cases:
        assert cli.main(["verify"] + argv) == 2, argv
        assert capsys.readouterr().out == "violation " + text, argv
    assert cli.main(["verify", "scattered", "--in", two, "--t", "2", "-q", "1"]) == 0
    assert capsys.readouterr().out == "verified\n"
