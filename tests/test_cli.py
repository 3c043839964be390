import json
import os
import resource
import subprocess
import sys

import pytest

from kforcing.cli import MAX_SWEEP, expand_family_spec, main
from kforcing.families import FamilySpec
from kforcing.graphio import MAX_ORDER, parse_graph6, write_graph6
from kforcing.families import complete, complete_bipartite, cycle, star

from conftest import DATA, compute_invariant_choices


def limit_memory():
    """Cap the child's address space, so that a command which expands a
    huge range fails fast instead of filling the host's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "kforcing.cli", *args],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
    )
    return proc


def test_expand_family_spec():
    assert expand_family_spec("cycle:5") == [FamilySpec("cycle", (5,))]
    assert expand_family_spec("cycle:3..5") == [
        FamilySpec("cycle", (n,)) for n in (3, 4, 5)
    ]
    assert expand_family_spec("complete_bipartite:2..3:2") == [
        FamilySpec("complete_bipartite", (2, 2)),
        FamilySpec("complete_bipartite", (3, 2)),
    ]
    assert expand_family_spec("cycle_tree:3,3") == [
        FamilySpec("cycle_tree", ((3, 3),))
    ]
    assert expand_family_spec("cycle_tree:3..4,3") == [
        FamilySpec("cycle_tree", ((3, 3),)),
        FamilySpec("cycle_tree", ((4, 3),)),
    ]
    assert expand_family_spec("circulant:8:1,4") == [
        FamilySpec("circulant", (8, (1, 4)))
    ]
    with pytest.raises(ValueError):
        expand_family_spec("nope:3")
    with pytest.raises(ValueError):
        expand_family_spec("cycle:3:4")
    with pytest.raises(ValueError):
        expand_family_spec("cycle:3,4")
    assert len(expand_family_spec("cycle_tree:1..100,1..1000")) == MAX_SWEEP
    with pytest.raises(ValueError, match="expands to 100100 specs"):
        expand_family_spec("cycle_tree:1..100,1..1001")
    with pytest.raises(ValueError, match="expands to 100001 specs"):
        expand_family_spec("complete_bipartite:1..100001:1")


def test_gen_counts(tmp_path):
    out = tmp_path / "g.g6"
    assert main(["gen", "cycle:3..6", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert [parse_graph6(s).n for s in lines] == [3, 4, 5, 6]

    assert main(["gen", "cycle_tree:3,3", "cycle_tree:3,4", "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2

    assert main(["gen", "double_leaf_caterpillar:2..4", "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_gen_bad_spec():
    proc = run_cli("gen", "cycle:2")
    assert proc.returncode == 2


def test_gen_writes_the_graphs_before_a_constructor_error(tmp_path):
    # every spec parses, so -o is opened; cycle:2 then fails in its constructor
    out = tmp_path / "g.g6"
    proc = run_cli("gen", "cycle:3..5", "cycle:2", "-o", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: cycle needs n >= 3, got 2\n"
    assert [parse_graph6(s).n for s in out.read_text().splitlines()] == [3, 4, 5]


def test_gen_builds_each_graph_when_the_writer_pulls_it(tmp_path, monkeypatch):
    import kforcing.cli
    import kforcing.families

    built, pulled = [], []
    generate = kforcing.families.generate
    monkeypatch.setattr(kforcing.families, "generate",
                        lambda fs: built.append(fs) or generate(fs))

    def write_graph6_file(path, graphs):
        assert iter(graphs) is graphs and built == []  # lazy: nothing built yet
        for g in graphs:
            pulled.append(g.n)
            assert len(built) == len(pulled)

    monkeypatch.setattr(kforcing.cli, "write_graph6_file", write_graph6_file)
    assert main(["gen", "cycle:3..6", "-o", str(tmp_path / "g.g6")]) == 0
    assert pulled == [3, 4, 5, 6]


@pytest.mark.parametrize("argv, message", [
    (["gen", "cycle:x"], "cycle: expected an integer or a..b, got 'x'"),
    (["gen", "cycle_tree:"], "cycle_tree: expected an integer or a..b, got ''"),
    (["verify", "-i", str(DATA / "connected_4.g6"), "--k", "1..x"],
     "--k: expected an integer or a..b, got '1..x'"),
    # range ends are checked before the range is expanded
    (["gen", "cycle:3..1000000000000"],
     f"cycle: '3..1000000000000' exceeds graph6's largest order {MAX_ORDER}"),
    (["verify", "--spec", "cycle:3..1000000000000"],
     f"cycle: '3..1000000000000' exceeds graph6's largest order {MAX_ORDER}"),
    # a sweep's size, the product of its range lengths, too
    (["gen", "cycle_tree:1..100000,1..100000"],
     "cycle_tree: 'cycle_tree:1..100000,1..100000' expands to 10000000000 specs, "
     f"over {MAX_SWEEP}"),
    (["compute", "--graph6", "Dhc", "--invariant", "record", "--ks", "x"],
     "--ks: expected an integer or a..b, got 'x'"),
])
def test_bad_number_names_its_family_or_flag(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("argv, spec", [
    (["gen", "cycle:5..3", "-o"], "cycle:5..3"),
    (["gen", "cycle:3..4", "cycle_tree:3,5..4", "-o"], "cycle_tree:3,5..4"),
    (["search", "--target", "cor3", "--spec", "cycle:9..4", "--out-jsonl"], "cycle:9..4"),
    (["verify", "--spec", "cycle:5..3", "--out-jsonl"], "cycle:5..3"),
])
def test_a_sweep_of_no_spec_exits_2_before_its_output_opens(argv, spec, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, str(out)]) == 2
    family = spec.partition(":")[0]
    assert capsys.readouterr() == ("", f"error: {family}: {spec!r} expands to no spec\n")
    assert not out.exists()


def test_verify_reads_graph6_from_stdin(tmp_path):
    corpus = DATA / "connected_5.g6"

    def run(source: str, stdin: str | None = None) -> tuple[str, bytes, bytes]:
        jsonl, csv = tmp_path / "out.jsonl", tmp_path / "out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "kforcing.cli", "verify", "-i", source,
             "--out-jsonl", str(jsonl), "--out-csv", str(csv)],
            input=stdin, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, jsonl.read_bytes(), csv.read_bytes()

    piped = run("-", corpus.read_text(encoding="ascii"))
    assert piped == run(str(corpus))
    assert piped[0].startswith("verify: checked=514 ")
    # a closed stdin is an input error, not a traceback
    proc = subprocess.run([sys.executable, "-m", "kforcing.cli", "verify", "-i", "-"],
                          capture_output=True, text=True, preexec_fn=lambda: os.close(0))
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 9] Bad file descriptor\n"


def test_gen_unwritable_output_exits_2(tmp_path):
    proc = run_cli("gen", "cycle:3..6", "-o", str(tmp_path))  # a directory
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_compute_forcing_on_cycle_edge_list(tmp_path, capsys):
    edges = tmp_path / "c6.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    code = main([
        "compute", "--input", str(edges), "--format", "edges",
        "--invariant", "forcing", "--k", "1", "--json",
    ])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == 2 and out["witness"] == "{0,1}"


def test_compute_examples(capsys):
    code = main(["compute", "--graph6", write_graph6(complete(5)),
                 "--invariant", "gamma-c", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1

    code = main(["compute", "--graph6", write_graph6(complete_bipartite(3, 3)),
                 "--invariant", "forcing", "--k", "2", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2


def test_compute_exit_codes(tmp_path):
    proc = run_cli("compute", "--graph6", "D\x01", "--invariant", "forcing")
    assert proc.returncode == 2

    big = write_graph6(cycle(20))
    proc = run_cli("compute", "--graph6", big, "--invariant", "forcing")
    assert proc.returncode == 3

    proc = run_cli("compute", "--graph6", write_graph6(cycle(4)),
                   "--invariant", "path-cover")
    assert proc.returncode == 2  # not a tree

    proc = run_cli("compute", "--graph6", "Dhc", "--invariant", "record",
                   "--max-n", "1000000000000", "--ks", "1..1000000000000")
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: --max-n 1000000000000 exceeds graph6's largest order {MAX_ORDER}\n")


@pytest.mark.parametrize("invariant", compute_invariant_choices())
def test_compute_empty_graph_exits_2(invariant):
    proc = run_cli("compute", "--graph6", "?", "--invariant", invariant)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("g6", ["@", "A_"])  # K1 and K2: no Hamiltonian cycle
def test_compute_hamiltonian_below_3_vertices_is_false(g6, capsys):
    assert main(["compute", "--graph6", g6, "--invariant", "hamiltonian", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["value"], out["cycle"], out["chords"]) == (False, None, None)


@pytest.mark.parametrize("command", [["verify"], ["search", "--target", "cor3"]])
def test_corpus_commands_reject_a_graph_with_no_vertices_first(command, tmp_path, capsys):
    src, out = tmp_path / "in.g6", tmp_path / "out.jsonl"
    src.write_text("?\nDhc\n")
    assert main([*command, "-i", str(src), "--out-jsonl", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: graph 0 has no vertices: graph6=?\n")
    assert not out.exists()


def test_verify_clean_run_and_violation_contract(tmp_path):
    out = tmp_path / "v.jsonl"
    csv_out = tmp_path / "v.csv"
    proc = run_cli(
        "verify", "--input", str(DATA / "connected_5.g6"),
        "--out-jsonl", str(out), "--out-csv", str(csv_out), "--jobs", "1",
    )
    assert proc.returncode == 0
    assert "violations=0" in proc.stdout
    lines = [json.loads(s) for s in out.read_text().splitlines()]
    assert all(line["satisfied"] in (True, None) for line in lines)
    header = csv_out.read_text().splitlines()[0]
    assert header.startswith("index,graph6,n,m,max_degree,min_degree,f1")


def test_verify_determinism_across_jobs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    base = ["verify", "--input", str(DATA / "connected_5.g6")]
    assert run_cli(*base, "--out-jsonl", str(a), "--jobs", "1").returncode == 0
    assert run_cli(*base, "--out-jsonl", str(b), "--jobs", "3").returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_reports_reproduce_compute(tmp_path):
    out = tmp_path / "v.jsonl"
    run_cli("verify", "--input", str(DATA / "connected_4.g6"),
            "--out-jsonl", str(out), "--k", "1")
    for line in map(json.loads, out.read_text().splitlines()):
        if line["bound"] == "CONN_DOM" and line["applicable"]:
            proc = run_cli("compute", "--graph6", line["graph6"],
                           "--invariant", "forcing", "--k", "1", "--json")
            assert json.loads(proc.stdout)["value"] == line["exact"]


def test_verify_scope_skip(tmp_path):
    src = tmp_path / "mix.g6"
    src.write_text(write_graph6(cycle(4)) + "\n" + write_graph6(cycle(9)) + "\n")
    proc = run_cli("verify", "--input", str(src), "--max-n", "6")
    assert proc.returncode == 0
    assert "skipped=1" in proc.stdout and "skipped (n over scope cap" in proc.stdout


def test_over_cap_graphs_are_never_encoded(tmp_path, monkeypatch, capsys):
    from kforcing import cli

    encode = cli.write_graph6

    def write_within_cap(g):
        assert g.n <= 12, f"encoded a graph with n={g.n}"
        return encode(g)

    monkeypatch.setattr(cli, "write_graph6", write_within_cap)
    edges = tmp_path / "e.txt"
    edges.write_text("0 12\n")
    assert main(["compute", "-i", str(edges), "--format", "edges",
                 "--invariant", "profile"]) == 3
    assert "n=13 exceeds exact scope cap 12" in capsys.readouterr().err
    spec = ["--spec", "cycle:13", "--spec", "cycle:5", "--max-n", "12"]
    assert main(["verify", *spec]) == 0
    out = capsys.readouterr().out
    assert "skipped (n over scope cap 12): index=0 n=13 spec=cycle:13\n" in out
    assert "skipped=1" in out
    assert main(["search", "--target", "cor3", *spec]) == 0
    assert "skipped=1" in capsys.readouterr().out
    assert main(["verify", "-i", str(edges), "--format", "edges"]) == 0
    assert f"index=0 n=13 input={edges}\n" in capsys.readouterr().out


def test_verify_skip_line_for_graph6_input_names_the_graph6(tmp_path, capsys):
    src = tmp_path / "mix.g6"
    src.write_text("Dhc\nHhCGGE@\n")  # C_5, then C_9
    assert main(["verify", "-i", str(src), "--max-n", "6"]) == 0
    assert capsys.readouterr().out.startswith(
        "skipped (n over scope cap 6): index=1 graph6=HhCGGE@\n")


@pytest.mark.parametrize("g6_lines, args", [
    ("?\n", []),  # the empty graph
    ("Dhc\n?\n", ["--jobs", "2"]),
    ("Dhc\n", ["--k", "0"]),
    ("Dhc\n", ["--k", "x"]),
    ("Dhc\n", ["--k", "2..1"]),  # an empty range would verify nothing
    ("Dhc\n", ["--bounds", "FOO"]),
    ("Dhc\n", ["--k", "2..1,3"]),  # nor would a reversed range in a list
    ("Dhc\n", ["--sample", "-1"]),
    ("Dhc\n", ["--jobs", "0"]),
    ("Dhc\n", ["--jobs", "-3"]),
    # random.Random(0).sample(range(2), 1) == [1]: the draw skips the bad line
    ("D?\nDhc\n", ["--sample", "1", "--seed", "0"]),
    ("Dhc\n", ["--out-jsonl", "/nonexistent/out.jsonl"]),
    ("Dhc\n", ["--out-csv", "/nonexistent/out.csv"]),
    ("Dhc\n", ["--k", "1..1000000000000"]),  # rejected before it is expanded
    ("Dhc\n", ["--max-n", "1000000000000", "--k", "1..1000000000000"]),
    # rejected before a graph is built, whose size would be quadratic in n
    ("0 1000000\n", ["--format", "edges"]),
    ("Dhc\n", ["--spec", "cycle:5..3"]),  # a reversed range would verify nothing
    ("Dhc\n", ["--max-n", "-1"]),  # no graph would be in scope
])
def test_verify_input_errors_exit_2(g6_lines, args, tmp_path):
    src = tmp_path / "in.g6"
    src.write_text(g6_lines)
    proc = run_cli("verify", "--input", str(src), *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_k_over_max_n_exits_2(capsys):
    c4 = str(DATA / "connected_4.g6")
    assert main(["verify", "-i", c4, "--k", "1..12"]) == 0
    capsys.readouterr()
    for argv in (["verify", "-i", c4, "--k", "2,1..13"],
                 ["verify", "-i", c4, "--k", "1..20", "--max-n", "19"],
                 ["compute", "--graph6", "Dhc", "--invariant", "record", "--ks", "13"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: forcing index ") and "exceeds --max-n" in err
    assert main(["verify", "-i", c4, "--k", "13", "--max-n", "13"]) == 0


def test_compute_reversed_range_in_a_ks_list_exits_2(capsys):
    # dropping the part would print the other indices alone and exit 0
    assert main(["compute", "--graph6", "Dhc", "--invariant", "record",
                 "--ks", "2..1,3"]) == 2
    assert capsys.readouterr() == (
        "", "error: --ks: reversed range '2..1' names no forcing index\n")


def test_max_n_ceiling_is_graph6s_largest_order(capsys):
    c4 = str(DATA / "connected_4.g6")
    assert main(["verify", "-i", c4, "--max-n", str(MAX_ORDER)]) == 0
    capsys.readouterr()
    for argv in (["verify", "-i", c4, "--max-n", str(MAX_ORDER + 1)],
                 ["search", "--target", "cor3", "-i", c4, "--max-n", str(MAX_ORDER + 1)],
                 ["compute", "--graph6", "Dhc", "--invariant", "profile",
                  "--max-n", str(MAX_ORDER + 1)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: --max-n {MAX_ORDER + 1} exceeds graph6's largest "
                       f"order {MAX_ORDER}\n")


@pytest.mark.parametrize("argv", [
    ["search", "--target", "cor3", "-i", str(DATA / "connected_4.g6"), "--max-n", "-5"],
    ["compute", "--graph6", "Dhc", "--invariant", "profile", "--max-n", "0"],
])
def test_max_n_below_one_exits_2(argv, capsys):
    # search would skip every graph and exit 0; compute would exit 3
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: --max-n must be positive, got {argv[-1]}\n")


def test_verify_bounds_checks_each_named_bound_once_in_table_order(tmp_path, capsys):
    def run(bounds: str) -> tuple[list[str], str]:
        out = tmp_path / f"{bounds}.jsonl"
        assert main(["verify", "-i", str(DATA / "connected_4.g6"), "--k", "1,2",
                     "--bounds", bounds, "--out-jsonl", str(out)]) == 0
        return out.read_text().splitlines(), capsys.readouterr().out

    every, _ = run("all")
    want = [line for line in every if json.loads(line)["bound"] in ("MAIN", "KCOR")]
    repeated, summary = run("kcor,main,main")
    assert repeated == want
    assert run("MAIN,KCOR") == (want, summary)
    applicable = sum(json.loads(line)["applicable"] for line in want)
    assert summary.startswith(f"verify: checked={applicable} ")


@pytest.mark.parametrize("argv", [
    ["verify", "-i", str(DATA / "connected_4.g6")],
    ["search", "--target", "cor3", "-i", str(DATA / "connected_4.g6")],
    ["compute", "-i", str(DATA / "connected_4.g6"), "--invariant", "profile"],
])
def test_out_of_memory_is_one_error_line_and_exit_3(argv, monkeypatch, capsys):
    from kforcing import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "_load_graphs", exhausted)
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.parametrize("flag", ["--out-jsonl", "--out-csv"])
def test_verify_unwritable_output_fails_before_any_graph(flag, tmp_path, monkeypatch,
                                                         capsys):
    import kforcing.verify

    monkeypatch.setattr(kforcing.verify, "_verify_one",
                        lambda index, **run: pytest.fail("verified a graph"))
    code = main(["verify", "--input", str(DATA / "connected_4.g6"), "--jobs", "1",
                 flag, str(tmp_path)])  # a directory
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["verify", "--k", "1", "--jobs", "1"],
    ["search", "--target", "cor3"],
    ["search", "--target", "conn-dom", "--max-n", "6"],
])
def test_no_graph_source_exits_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {argv[0]} needs --input or --spec\n"


def test_search_ignores_the_jobs_env(monkeypatch):
    # no command reads the environment: its flags are its only settings
    argv = ["search", "--target", "cor3", "-i", str(DATA / "connected_4.g6")]
    usual = run_cli(*argv)
    assert usual.returncode == 0 and usual.stdout.startswith("search target=cor3 ")
    monkeypatch.setenv("KFORCING_JOBS", "x")
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, usual.stdout, "")


def test_verify_ignores_the_jobs_env(tmp_path, monkeypatch):
    # the worker count comes from --jobs alone
    argv = ["verify", "-i", str(DATA / "connected_4.g6"), "--out-jsonl"]
    usual = run_cli(*argv, str(tmp_path / "usual.jsonl"))
    assert usual.returncode == 0 and usual.stdout.startswith("verify: checked=")
    monkeypatch.setenv("KFORCING_JOBS", "x")
    proc = run_cli(*argv, str(tmp_path / "env.jsonl"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, usual.stdout, "")
    assert (tmp_path / "env.jsonl").read_bytes() == (tmp_path / "usual.jsonl").read_bytes()


def test_verify_config_flag_is_unrecognized():
    proc = run_cli("verify", "-i", str(DATA / "connected_4.g6"), "--config", "f")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(" error: unrecognized arguments: --config f\n")


def test_verify_family_spec_input(tmp_path):
    out = tmp_path / "ct.jsonl"
    proc = run_cli("verify", "--spec", "cycle_tree:3..5,3..5", "--k", "1",
                   "--bounds", "CYCLE_TREE", "--out-jsonl", str(out))
    assert proc.returncode == 0
    lines = [json.loads(s) for s in out.read_text().splitlines()]
    applicable = [l for l in lines if l["applicable"]]
    assert len(applicable) == 9
    assert all(l["satisfied"] for l in applicable)
    assert all(l["bound_value"] == "4" for l in applicable)  # 2q with q=2


def test_verify_cycle_tree_q_sweep(tmp_path):
    out = tmp_path / "ct.jsonl"
    specs = []
    for q in range(1, 5):
        specs += ["--spec", "cycle_tree:" + ",".join(["3..5"] * q)]
    proc = run_cli("verify", *specs, "--k", "1", "--bounds", "CYCLE_TREE",
                   "--out-jsonl", str(out), "--max-n", "12")
    assert proc.returncode == 0
    lines = [json.loads(s) for s in out.read_text().splitlines()]
    applicable = [l for l in lines if l["applicable"]]
    # 3 + 9 + 27 + 81 sweeps, minus those over the n=12 scope cap
    assert len(applicable) == sum(1 for l in lines if l["n"] <= 12)
    assert all(l["satisfied"] for l in applicable)
    for line in applicable:
        q = line["detail"]["cycles"]
        assert line["bound_value"] == str(2 * q)
    assert "skipped=" in proc.stdout and "skipped (n over scope cap" in proc.stdout


@pytest.mark.parametrize("corpus", ["connected_6", "trees_8"])
def test_verify_above_max_degree_has_no_violation(corpus, tmp_path, capsys):
    # at k > D every vertex set is k-independent, so n - alpha_k is 0:
    # the star-freeness bounds are gated on D >= k, as MAIN is
    auto, wide = tmp_path / "auto.jsonl", tmp_path / "wide.jsonl"
    source = ["verify", "-i", str(DATA / f"{corpus}.g6"), "--jobs", "1"]
    assert main([*source, "--out-jsonl", str(auto)]) == 0
    assert main([*source, "--k", "1..12", "--out-jsonl", str(wide)]) == 0
    assert "violations=0" in capsys.readouterr().out
    max_degree = {}
    kept = []
    for text in wide.read_text().splitlines(keepends=True):
        line = json.loads(text)
        if line["index"] not in max_degree:
            g = parse_graph6(line["graph6"])
            max_degree[line["index"]] = max(g.degree(v) for v in range(g.n))
        if line["k"] <= max_degree[line["index"]]:
            kept.append(text)
        elif line["bound"] in ("K1R", "CLAWFREE"):
            assert not line["applicable"]
    # the lines at k <= D are the auto-k output, which tests/test_golden.py pins
    assert "".join(kept) == auto.read_text()


def test_verify_tree_corpus_leaf_bounds(tmp_path):
    out = tmp_path / "t.jsonl"
    proc = run_cli("verify", "--input", str(DATA / "trees_10.g6"),
                   "--k", "1", "--bounds", "TREE_LEAF", "--jobs", "2",
                   "--out-jsonl", str(out))
    assert proc.returncode == 0
    lines = [json.loads(s) for s in out.read_text().splitlines()]
    applicable = [l for l in lines if l["applicable"]]
    assert len(applicable) == 2 * 106  # both sides on every 10-vertex tree
    assert all(l["satisfied"] for l in applicable)


def test_verify_sample_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    base = ["verify", "--input", str(DATA / "connected_6.g6"),
            "--sample", "10", "--seed", "42", "--k", "1", "--bounds", "COR3"]
    run_cli(*base, "--out-jsonl", str(a))
    run_cli(*base, "--out-jsonl", str(b), "--jobs", "2")
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 10


def test_search_cor3_on_small_corpus(tmp_path):
    out = tmp_path / "s.jsonl"
    proc = run_cli("search", "--target", "cor3",
                   "--input", str(DATA / "connected_6.g6"),
                   "--out-jsonl", str(out))
    assert proc.returncode == 0
    achievers = [json.loads(s) for s in out.read_text().splitlines()]
    by_class = {a["classification"]: a for a in achievers}
    from kforcing.smallgraphs import canonical_graph

    # predicted achievers: K_6 and K_{3,3}
    assert by_class["complete"]["graph6"] == write_graph6(canonical_graph(complete(6)))
    assert by_class["balanced_bipartite"]["graph6"] == write_graph6(
        canonical_graph(complete_bipartite(3, 3))
    )
    # C_6 achieves equality too (max degree 2 makes the bound exactly 2)
    # and must be surfaced as unpredicted, loudly
    assert by_class["cycle"]["max_degree"] == 2
    assert len(achievers) == 3
    assert "counterexample_found" in proc.stdout
    assert "NOT PREDICTED" in proc.stdout


def test_search_conn_dom_contains_known_families(tmp_path):
    out = tmp_path / "s.jsonl"
    proc = run_cli("search", "--target", "conn-dom",
                   "--input", str(DATA / "connected_5.g6"),
                   "--out-jsonl", str(out))
    assert proc.returncode == 0
    achievers = [json.loads(s) for s in out.read_text().splitlines()]
    classes = [a["classification"] for a in achievers]
    assert "complete" in classes and "cycle" in classes
    assert any(c == "bipartite_p_ge_q_ge_2" for c in classes)  # K_{3,2}


def test_search_unwritable_output_exits_2(tmp_path):
    proc = run_cli("search", "--target", "cor3", "--input",
                   str(DATA / "connected_5.g6"), "--out-jsonl", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_search_empty_corpus(tmp_path):
    src = tmp_path / "empty.g6"
    src.write_text("")
    proc = run_cli("search", "--target", "cor3", "--input", str(src))
    assert proc.returncode == 0
    assert "achievers=0" in proc.stdout


def test_search_skips_forcing_when_the_bound_is_not_integral(monkeypatch):
    from kforcing import Graph, records
    from kforcing.search import search_equality

    solved = []
    solve = records.k_forcing_number
    monkeypatch.setattr(records, "k_forcing_number",
                        lambda g, k: solved.append(g.n) or solve(g, k))
    spider = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])  # COR3 = 7/2
    corpus = [(write_graph6(g), g.n) for g in (spider, cycle(6))]  # C_6: COR3 = 2
    result = search_equality(corpus, "cor3")
    assert solved == [6]
    assert [a["classification"] for a in result.achievers] == ["cycle"]


def test_search_runs_the_exact_solver_only_on_achievers(monkeypatch):
    from kforcing import Graph, records
    from kforcing.search import search_equality

    solved = []
    solve = records.k_forcing_number
    monkeypatch.setattr(records, "k_forcing_number",
                        lambda g, k: solved.append(g.n) or solve(g, k))
    spider = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])  # COR3 = 7/2
    # K_{1,3}: COR3 = 3 is an integer, but F_1 = 2, so it is no achiever
    corpus = [(write_graph6(g), g.n)
              for g in (cycle(6), complete_bipartite(1, 3), spider)]
    result = search_equality(corpus, "cor3")
    assert solved == [6]
    assert [(a["classification"], a["f1"]) for a in result.achievers] == [("cycle", 2)]


def test_every_search_target_decides_f1():
    # search decides equality with F_1 level scans, so a target whose
    # exact side is another invariant must not slip in unnoticed
    from kforcing import bounds
    from kforcing.cli import _SEARCH_TARGETS

    for bound_id, _ in _SEARCH_TARGETS.values():
        assert [c.exact for c in bounds.BOUNDS[bound_id].checks] == [bounds._f_k]


def test_verify_without_csv_runs_no_solver_for_the_row(monkeypatch, capsys):
    from kforcing import records

    for name in ("connected_k_domination", "k_independence_numbers"):
        monkeypatch.setattr(records, name, lambda *a, name=name: pytest.fail(name))
    assert main(["verify", "--input", str(DATA / "connected_6.g6"),
                 "--bounds", "LOWER_DEG", "--jobs", "1"]) == 0
    assert "violations=0" in capsys.readouterr().out


def test_compute_record_prints_the_forcing_indices_bounds_read(capsys):
    from kforcing import compute_record
    from kforcing.bounds import BOUNDS
    from kforcing.cli import _parse_ks

    class Logged(dict):
        def __missing__(self, k):
            read.add(k)
            return 0

    for n in range(1, 7):
        for g6 in (DATA / f"connected_{n}.g6").read_text().split():
            for ks in ("1", "2", "1..3", "auto"):
                assert main(["compute", "--graph6", g6, "--invariant", "record",
                             "--ks", ks, "--json"]) == 0
                printed = json.loads(capsys.readouterr().out)["forcing"]
                rec, read = compute_record(parse_graph6(g6)), set()
                rec.forcing = Logged()
                for k in _parse_ks(ks, rec.max_degree):
                    for entry in BOUNDS.values():
                        for check in entry.checks:
                            check.exact(rec, k)
                assert [int(i) for i in printed] == sorted(read)


@pytest.mark.parametrize("ks", ["auto", "1..3"])
def test_compute_record_prints_every_index_bound_outcomes_reads(ks, capsys):
    # a record refilled from compute's maps must answer every bound: each
    # forcing, gamma_kc and alpha key bound_outcomes reads is printed
    from kforcing import compute_record
    from kforcing.bounds import bound_outcomes
    from kforcing.cli import _parse_ks

    class Noting:
        """A record map that notes each key read through it."""

        def __init__(self, known):
            self.known, self.read = known, set()

        def __getitem__(self, key):
            self.read.add(key)
            return self.known[key]

    reads = 0
    corpora = [f"connected_{n}" for n in range(1, 7)] + ["trees_8"]
    for g6 in (g6 for c in corpora for g6 in (DATA / f"{c}.g6").read_text().split()):
        assert main(["compute", "--graph6", g6, "--invariant", "record",
                     "--ks", ks, "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        rec = compute_record(parse_graph6(g6))
        maps = {name: Noting(getattr(rec, name)) for name in ("forcing", "gamma_kc", "alpha")}
        vars(rec).update(maps)  # in place of the cached on-demand maps
        bound_outcomes(rec, _parse_ks(ks, rec.max_degree))
        for name, noted in maps.items():
            assert {str(i) for i in noted.read} <= printed[name].keys(), (g6, name)
            reads += len(noted.read)
    assert reads > 0


def test_verify_exits_1_on_violation(tmp_path, monkeypatch, capsys):
    # a violated bound cannot arise from correct code, so fake one outcome per
    # graph to pin the loud-failure contract: summary, stdout line, exit 1
    import kforcing.verify

    real = kforcing.verify.bound_outcomes

    def sabotage(*args, **kwargs):
        outcomes = real(*args, **kwargs)
        i = next(i for i, outcome in enumerate(outcomes) if len(outcome) > 3)
        k, bound, side, p, q, exact, _, detail = outcomes[i]
        outcomes[i] = (k, bound, side, p, q, exact, -q, detail)  # slack -1
        return outcomes

    monkeypatch.setattr(kforcing.verify, "bound_outcomes", sabotage)
    out = tmp_path / "v.jsonl"
    code = main(["verify", "--input", str(DATA / "connected_3.g6"),
                 "--jobs", "1", "--out-jsonl", str(out)])
    printed = capsys.readouterr().out
    assert code == 1
    assert "violations=2" in printed
    assert "VIOLATION:" in printed
    flipped = [json.loads(s) for s in out.read_text().splitlines()
               if '"satisfied": false' in s]
    assert len(flipped) == 2
    for line in flipped:
        assert line["applicable"] and line["slack"] == "-1"
        assert (f"VIOLATION: graph6={line['graph6']} k={line['k']} "
                f"bound={line['bound']} side={line['side']} ") in printed


def test_jobs_flag_reaches_the_runner(tmp_path, monkeypatch):
    # the child gets a minimal environment, so hand it this checkout's src/
    # explicitly; an inherited PYTHONPATH (or an installed package) still works
    pythonpath = os.pathsep.join(
        p for p in (str(DATA.parent / "src"), os.environ.get("PYTHONPATH")) if p
    )
    out = tmp_path / "v.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "kforcing.cli", "verify",
         "--input", str(DATA / "connected_4.g6"), "--jobs", "2", "--out-jsonl", str(out)],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin:/usr/local/bin", "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert out.exists()

    # in process: the one runner really gets the worker count of --jobs,
    # and 1 without it
    import kforcing.verify

    runs = []
    forked = kforcing.verify._verify_forked

    def recording(verify_one, work, jobs):
        runs.append(jobs)
        return forked(verify_one, work, jobs)

    monkeypatch.setattr(kforcing.verify, "_verify_forked", recording)
    for jobs in (["--jobs", "2"], ["--jobs", "1"], []):
        assert main(["verify", "--input", str(DATA / "connected_4.g6"), *jobs,
                     "--out-jsonl", str(tmp_path / "v.jsonl")]) == 0
    assert runs == [2, 1, 1]


def test_import_loads_no_process_pool():
    # no command loads a process pool, so every command starts faster
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, kforcing.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("argv, value", [
    (["compute", "--graph6", write_graph6(cycle(1100)), "--invariant", "hamiltonian"],
     True),
    (["compute", "--graph6", write_graph6(star(1100)), "--invariant", "star-free"],
     1101),
])
def test_compute_past_the_recursion_limit(argv, value, capsys):
    assert main([*argv, "--max-n", "2000", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == value


def test_verify_hamiltonian_gate_past_the_recursion_limit(capsys):
    assert main(["verify", "--spec", "cycle:1100", "--max-n", "2000", "--k", "1",
                 "--bounds", "HAM_CHORDS"]) == 0
    assert "not_applicable=1 violations=0" in capsys.readouterr().out
