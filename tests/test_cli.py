"""CLI round trips through temp files."""

import json

import pytest

from cliquemat.bits import boolean_product_naive
from cliquemat.cli import main
from cliquemat.harness import GenSpec, generate
from cliquemat.textio import (
    matrix_from_text,
    matrix_to_text,
    read_matrix,
    read_tree,
    tree_from_text,
    tree_to_text,
    write_matrix,
)


def run_cli(*argv):
    return main(list(argv))


def test_matrix_text_roundtrip(tmp_path):
    p = tmp_path / "m.txt"
    assert run_cli("gen", "--n", "8", "--kind", "uniform", "--seed", "3", "--out", str(p)) == 0
    M = read_matrix(p)
    assert M.n == 8
    assert matrix_from_text(matrix_to_text(M)) == M


def test_gen_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for p in (p1, p2):
        run_cli("gen", "--n", "16", "--clusters", "2", "--spread", "3", "--seed", "7", "--out", str(p))
    assert p1.read_text() == p2.read_text()


def test_run_clusmat_and_verify(tmp_path):
    a, b, c, rep = (tmp_path / x for x in ("a.txt", "b.txt", "c.txt", "rep.json"))
    run_cli("gen", "--n", "16", "--clusters", "2", "--spread", "2", "--seed", "1", "--out", str(a))
    run_cli("gen", "--n", "16", "--kind", "uniform", "--seed", "2", "--out", str(b))
    rc = run_cli(
        "run", "--protocol", "clusmat", "--a", str(a), "--b", str(b),
        "--routing", "accounted", "--seed", "5",
        "--out-c", str(c), "--report", str(rep),
    )
    assert rc == 0
    assert run_cli("verify", "--a", str(a), "--b", str(b), "--c", str(c)) == 0
    report = json.loads(rep.read_text())
    for key in ("rounds", "messages", "bits", "work_total", "work_max_node",
                "result_digest", "m_realized", "t", "step_rounds", "primitive_rounds"):
        assert key in report
    assert report["protocol"] == "clusmat"
    assert sum(report["step_rounds"][f"step{i}"] for i in range(1, 11)) == report["rounds"]


def test_verify_rejects_bad_product(tmp_path):
    a, b, c = (tmp_path / x for x in ("a.txt", "b.txt", "c.txt"))
    run_cli("gen", "--n", "8", "--kind", "uniform", "--seed", "1", "--out", str(a))
    run_cli("gen", "--n", "8", "--kind", "uniform", "--seed", "2", "--out", str(b))
    A, B = read_matrix(a), read_matrix(b)
    C = boolean_product_naive(A, B)
    bad = C.rows[0].flip(1)
    write_matrix(c, type(C)((bad,) + C.rows[1:]))
    assert run_cli("verify", "--a", str(a), "--b", str(b), "--c", str(c)) == 1


def test_run_clusmat_orientations_agree(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli("gen", "--n", "8", "--kind", "uniform", "--seed", "4", "--out", str(a))
    run_cli("gen", "--n", "8", "--kind", "uniform", "--seed", "5", "--out", str(b))
    outs = {}
    for orient in ("ab", "ba", "auto"):
        c = tmp_path / f"c_{orient}.txt"
        rc = run_cli(
            "run", "--protocol", "clusmat", "--a", str(a), "--b", str(b),
            "--orientation", orient, "--routing", "accounted",
            "--out-c", str(c),
        )
        assert rc == 0
        outs[orient] = c.read_text()
    assert outs["ab"] == outs["ba"] == outs["auto"]


def test_run_hmst(tmp_path):
    pts, tree, rep = (tmp_path / x for x in ("p.txt", "t.txt", "r.json"))
    run_cli("gen", "--n", "16", "--clusters", "3", "--spread", "2", "--seed", "8", "--out", str(pts))
    rc = run_cli(
        "run", "--protocol", "hmst", "--points", str(pts),
        "--routing", "accounted", "--out-tree", str(tree), "--report", str(rep),
    )
    assert rc == 0
    t = read_tree(tree)
    assert t.n == 16
    assert tree_from_text(tree_to_text(t)).edges == t.edges
    report = json.loads(rep.read_text())
    assert report["protocol"] == "hmst"
    assert set(report["step_rounds"]) == {"hmst_step1", "hmst_step2", "hmst_step3"}


def test_bench_cli(tmp_path):
    out = tmp_path / "bench.json"
    rc = run_cli(
        "bench", "--n-list", "16", "--spreads", "0,2", "--seeds", "1",
        "--routing", "accounted", "--out", str(out),
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["rows"]) == 3  # two spreads + uniform anchor
    assert all(r["correct"] for r in data["rows"])


def test_bench_cli_csv(tmp_path, capsys):
    rc = run_cli("bench", "--n-list", "8", "--spreads", "0", "--seeds", "1",
                 "--routing", "accounted", "--format", "csv")
    captured = capsys.readouterr()
    assert rc == 0
    header = captured.out.splitlines()[0]
    assert "rounds" in header and "correct" in header


@pytest.mark.parametrize(
    "flag", [["--w", "7"], ["--strict"], ["--max-rounds", "1"], ["--seed", "3"]]
)
def test_bench_rejects_model_flags_it_does_not_honour(flag, capsys):
    """A grid cell fixes its own engine seed, capacity and round limit, so
    bench refuses those flags instead of ignoring them."""
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--n-list", "16", "--spreads", "2", "--routing", "accounted", *flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_max_rounds_env(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli("gen", "--n", "8", "--kind", "uniform", "--seed", "1", "--out", str(a))
    run_cli("gen", "--n", "8", "--kind", "uniform", "--seed", "2", "--out", str(b))
    monkeypatch.setenv("CLIQUEMAT_MAX_ROUNDS", "3")
    assert run_cli("run", "--protocol", "clusmat", "--a", str(a), "--b", str(b)) == 2
    assert one_line_error(capsys) == "exceeded max_rounds=3 without terminating"


def one_line_error(capsys):
    """The text of the single ``cliquemat: error:`` line on stderr."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    prefix = "cliquemat: error: "
    assert lines[0].startswith(prefix)
    return lines[0][len(prefix):]


@pytest.mark.parametrize(
    "b_size, flags, expect",
    [
        (16, (), "matrices must match n=8"),
        (8, ("--w", "3"), "payload capacity 3 below minimum 4 for n=8"),
        (8, ("--w", "6"), "payload capacity 6 cannot carry"),
    ],
)
def test_run_bad_input_is_one_line_error(tmp_path, capsys, b_size, flags, expect):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli("gen", "--n", "8", "--kind", "uniform", "--seed", "1", "--out", str(a))
    run_cli("gen", "--n", str(b_size), "--kind", "uniform", "--seed", "2", "--out", str(b))
    rc = run_cli("run", "--protocol", "clusmat", "--a", str(a), "--b", str(b),
                 "--routing", "accounted", *flags)
    assert rc == 2
    assert one_line_error(capsys).startswith(expect)


def test_non_integer_max_rounds_env_is_one_line_error(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.txt"
    run_cli("gen", "--n", "8", "--seed", "1", "--out", str(a))
    monkeypatch.setenv("CLIQUEMAT_MAX_ROUNDS", "many")
    assert run_cli("run", "--protocol", "hmst", "--points", str(a)) == 2
    assert "many" in one_line_error(capsys)


def test_verify_mismatched_sizes_is_one_line_error(tmp_path, capsys):
    a, c = tmp_path / "a.txt", tmp_path / "c.txt"
    run_cli("gen", "--n", "8", "--seed", "1", "--out", str(a))
    run_cli("gen", "--n", "4", "--seed", "1", "--out", str(c))
    assert run_cli("verify", "--a", str(a), "--b", str(a), "--c", str(c)) == 2
    assert one_line_error(capsys) == "shapes must match"


def test_gen_ladder(tmp_path):
    p = tmp_path / "ladder.txt"
    rc = run_cli("gen", "--n", "12", "--kind", "ladder", "--clusters", "3",
                 "--spread", "2", "--seed", "4", "--out", str(p))
    assert rc == 0
    assert read_matrix(p) == generate(
        GenSpec(n=12, kind="ladder", clusters=3, spread=2, seed=4)
    )


def test_gen_bad_spec_is_one_line_error(capsys):
    rc = run_cli("gen", "--n", "6", "--kind", "ladder", "--clusters", "6", "--spread", "2")
    assert rc == 2
    assert one_line_error(capsys) == "too many chain rows for the window length"


@pytest.mark.parametrize("command", ["run", "verify"])
def test_missing_input_file_is_one_line_error(tmp_path, capsys, command):
    missing = str(tmp_path / "nothere.txt")
    if command == "run":
        argv = ("run", "--protocol", "clusmat", "--a", missing, "--b", missing)
    else:
        argv = ("verify", "--a", missing, "--b", missing, "--c", missing)
    assert run_cli(*argv) == 2
    message = one_line_error(capsys)
    assert "No such file or directory" in message and "nothere.txt" in message
