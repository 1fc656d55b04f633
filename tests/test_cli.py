"""CLI round trips through temp files."""

import csv
import json

import pytest

from cliquemat import harness
from cliquemat.bits import BooleanMatrix, Tree, WeightedEdge, boolean_product_naive
from cliquemat.cli import main
from cliquemat.harness import GenSpec, generate
from cliquemat.textio import (
    matrix_from_text,
    matrix_to_text,
    read_matrix,
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
    bad = C.bits.copy()
    bad[0, 0] ^= 1
    write_matrix(c, BooleanMatrix(bad))
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
    # n-1 lines "u v weight" that span 1..n, in the canonical edge order
    edges = [WeightedEdge(*map(int, ln.split())) for ln in tree.read_text().splitlines()]
    assert len(edges) == 15
    assert tree_to_text(Tree(16, tuple(edges))) == tree.read_text()
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


def test_bench_grid_shape(capsys):
    """Per n: clustered rows spread-major, then one uniform anchor per seed,
    under a fixed header."""
    rc = run_cli("bench", "--n-list", "8,16", "--spreads", "0,3", "--seeds", "2",
                 "--format", "csv")
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0] == (
        "n,a_kind,clusters,spread,density,seed,routing,orientation,exact_mst_cost,"
        "m_realized,t,blocks,rounds,messages,bits,work,correct"
    )
    rows = list(csv.DictReader(lines))
    cells = [(int(r["n"]), r["a_kind"], int(r["spread"]), int(r["seed"])) for r in rows]
    assert cells == [
        (n, kind, spread, seed)
        for n in (8, 16)
        for kind, spread in (("clustered", 0), ("clustered", 3), ("uniform", 0))
        for seed in (0, 1)
    ]


def test_bench_grid_below_four_nodes(capsys):
    """At n < 4 the clustered cells draw one cluster per node instead of
    four, so those n give correct rows and do not abort the other n."""
    rc = run_cli("bench", "--n-list", "2,3,8", "--spreads", "0,3", "--seeds", "1",
                 "--format", "csv")
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert rc == 0
    assert [(int(r["n"]), r["a_kind"]) for r in rows] == [
        (n, kind) for n in (2, 3, 8) for kind in ("clustered", "clustered", "uniform")
    ]
    assert all(r["correct"] == "True" for r in rows)
    assert [int(r["clusters"]) for r in rows if r["a_kind"] == "clustered"] == [2, 2, 3, 3, 4, 4]


def test_bench_csv_quotes_error_with_comma(monkeypatch, capsys):
    def fail(*args):
        raise ValueError("shape (4, 16), too large")

    monkeypatch.setattr(harness, "clusmat_oriented", fail)
    rc = run_cli("bench", "--n-list", "8", "--spreads", "0", "--routing", "accounted",
                 "--format", "csv")
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert rc == 1
    assert len(rows) == 2
    for row in rows:
        assert None not in row  # no field beyond the header
        assert row["error"] == "ValueError: shape (4, 16), too large"
        assert row["correct"] == "False"


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


def test_run_strict_sets_capacity(tmp_path):
    """--strict runs at W = ceil(log2 n) + 16, exactly as --w 20 does at
    n=16, and the report says which flag set it."""
    a, rep = tmp_path / "a.txt", tmp_path / "r.json"
    run_cli("gen", "--n", "16", "--seed", "1", "--out", str(a))
    reports = {}
    for flags in ((), ("--strict",), ("--w", "20")):
        assert run_cli("run", "--protocol", "clusmat", "--a", str(a), "--b", str(a),
                       "--report", str(rep), *flags) == 0
        reports[flags] = json.loads(rep.read_text())
    assert (reports[()]["W"], reports[()]["strict"]) == (64, False)
    strict, w20 = reports[("--strict",)], reports[("--w", "20")]
    assert (strict["W"], strict["strict"]) == (20, True)
    assert w20["strict"] is False
    assert {k: v for k, v in strict.items() if k != "strict"} == {
        k: v for k, v in w20.items() if k != "strict"
    }


@pytest.mark.parametrize("w", ["32", "64"])
def test_run_strict_with_w_is_usage_error(tmp_path, capsys, w):
    """Also at the default capacity: --w given at all clashes with --strict."""
    a = tmp_path / "a.txt"
    run_cli("gen", "--n", "8", "--seed", "1", "--out", str(a))
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--protocol", "hmst", "--points", str(a), "--strict", "--w", w)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["inf", "-inf", "nan", "0.0"])
def test_run_nonfinite_or_nonpositive_kappa_is_one_line_error(tmp_path, capsys, kappa):
    a = tmp_path / "a.txt"
    run_cli("gen", "--n", "8", "--seed", "1", "--out", str(a))
    capsys.readouterr()
    assert run_cli("run", "--protocol", "hmst", "--points", str(a), f"--kappa={kappa}") == 2
    assert one_line_error(capsys) == f"kappa must be positive and finite, got {kappa}"


def test_max_rounds_env(tmp_path, capsys):
    """A run that needs more than ``--max-rounds`` rounds stops with a
    one-line error."""
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli("gen", "--n", "8", "--kind", "uniform", "--seed", "1", "--out", str(a))
    run_cli("gen", "--n", "8", "--kind", "uniform", "--seed", "2", "--out", str(b))
    rc = run_cli("run", "--protocol", "clusmat", "--a", str(a), "--b", str(b), "--max-rounds", "3")
    assert rc == 2
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
        (8, ("--seed", "-1"), "seed must be nonnegative, got -1"),
        (8, ("--max-rounds", "0"), "max_rounds must be at least 1, got 0"),
        (8, ("--kappa", "1e308"), "kappa=1e+308 gives no finite sketch width at n=8"),
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


def test_gen_ladder_last_window_fits(capsys):
    """n - L + 1 chain rows: the last window covers bits n - L .. n - 1."""
    assert run_cli("gen", "--n", "5", "--kind", "ladder", "--clusters", "4",
                   "--spread", "2") == 0
    M = matrix_from_text(capsys.readouterr().out)
    flips = M.bits[:4] ^ M.row(5)
    assert flips.tolist() == [[1 if i <= j <= i + 1 else 0 for j in range(5)] for i in range(4)]


def test_gen_bad_spec_is_one_line_error(capsys):
    rc = run_cli("gen", "--n", "6", "--kind", "ladder", "--clusters", "6", "--spread", "2")
    assert rc == 2
    assert one_line_error(capsys) == "too many chain rows for the window length"


def test_gen_nonpositive_n_names_n(capsys):
    assert run_cli("gen", "--n", "0") == 2
    assert one_line_error(capsys) == "n must be at least 1, got 0"


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_bench_rejects_fewer_than_one_seed(capsys, seeds):
    assert run_cli("bench", "--n-list", "8", "--seeds", seeds) == 2
    assert one_line_error(capsys) == f"--seeds must be at least 1, got {seeds}"


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


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("line, char", [("0120", "'2'"), ("01x0", "'x'"), ("01 0", "' '")])
def test_matrix_file_with_other_character_is_one_line_error(tmp_path, capsys, command, line, char):
    """A character other than 0 or 1 in a matrix file, also a space inside
    a row, is named with its row."""
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    run_cli("gen", "--n", "4", "--seed", "1", "--out", str(good))
    rows = good.read_text().splitlines()
    rows[3] = line
    bad.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    if command == "run":
        argv = ("run", "--protocol", "clusmat", "--a", str(good), "--b", str(bad))
    else:
        argv = ("verify", "--a", str(good), "--b", str(good), "--c", str(bad))
    assert run_cli(*argv) == 2
    assert one_line_error(capsys) == f"row 3 holds {char}, not 0 or 1"
