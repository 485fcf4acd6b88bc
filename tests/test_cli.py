"""Driver behaviour: verdicts on stdout, artifacts on disk, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ccakit import cli, engine, groups
from ccakit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_check_graph_verdicts(capsys):
    d = run_json(capsys, "check-graph", "C(6)", "{r} +inv")
    assert d["verdict"]["kind"] == "CCA"
    assert d["verdict"]["witness_images"] == []
    assert d["task"].startswith("check-graph")
    d = run_json(capsys, "check-graph", "Q8", "{i, j} +inv")
    assert d["verdict"]["kind"] == "non-CCA"
    assert len(d["verdict"]["witness_images"]) == 8


def test_check_group_and_witness_pipelines(capsys):
    assert run_json(capsys, "check-group", "C(7)")["verdict"]["kind"] == "CCA"
    d = run_json(capsys, "witness-thm31", "--n", "3")
    assert d["verdict"]["kind"] == "non-CCA"
    assert len(d["verdict"]["witness_images"]) == 18
    d = run_json(capsys, "witness-prop33", "--n", "3")
    assert len(d["verdict"]["witness_images"]) == 36
    d = run_json(capsys, "harness-4-10", "--n", "3")
    assert d["verdict"]["kind"] == "hypotheses-ok"


def test_pair_command(capsys):
    assert run_json(capsys, "pair", "C(3)", "Dih(C(3))")["verdict"]["kind"] \
        == "pair-yes"
    assert run_json(capsys, "pair", "C(2) x C(2)", "C(2) x C(2)")[
        "verdict"]["kind"] == "pair-no"
    # explicit permutation generators: Ghat of Q8 plus the three swaps
    code, out, err = run(capsys, "pair", "Q8",
                         "Perm[(0 2 1 3)(4 6 5 7), (0 4 1 5)(2 7 3 6), "
                         "(2 3), (4 5), (6 7)]")
    assert code == 0
    assert json.loads(out)["verdict"]["kind"] == "pair-yes"


def test_pair_rejects_other_shapes(capsys):
    code, _, err = run(capsys, "pair", "C(3)", "D(3)")
    assert code == 1
    assert "B must be" in err
    code, _, err = run(capsys, "pair", "D(3)", "Dih(D(3))")
    assert code == 1
    assert "abelian" in err


def test_usage_and_parse_errors_exit_1(capsys):
    assert run(capsys, "check-graph", "C(", "{r}")[0] == 1
    assert run(capsys, "check-graph", "C(6)", "{r}")[0] == 1  # not inv-closed
    assert run(capsys, "check-graph", "C(6)", "{r^6} +inv")[0] == 1  # identity
    assert run(capsys, "check-graph", "C(6)", "{r^2} +inv")[0] == 1  # disconnected
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "witness-thm31", "--n", "4")[0] == 1
    assert run(capsys, "witness-thm31")[0] == 1
    assert run(capsys, "check-graph", "C(6)", "{r} +inv", "--emit", "dot")[0] == 1
    assert run(capsys, "census", "--orders", "8")[0] == 1
    assert run(capsys, "help")[0] == 1


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "check-graph", "--help")[0] == 0


def test_cap_handling(capsys):
    d = run_json(capsys, "check-group", "C(40) x C(40)")
    assert d["verdict"]["kind"] == "unknown-cap"
    code, out, err = run(capsys, "check-group", "C(40) x C(40)", "--strict")
    assert code == 2
    code, out, err = run(capsys, "check-group", "D(6)", "--cap", "3",
                         "--strict")
    assert code == 2
    assert json.loads(out)["verdict"]["kind"] == "unknown-cap"
    code, out, err = run(capsys, "check-group", "D(6)", "--cap", "3")
    assert code == 0


CAPPED_HEADS = [("C(17)", 16), ("D(9)", 16), ("Dih(C(9))", 16),
                ("Dic(C(10), r^5)", 16), ("Perm[(0 16)]", 16), ("Q8", 4)]


@pytest.mark.parametrize("expr, cap", CAPPED_HEADS,
                         ids=[expr for expr, _ in CAPPED_HEADS])
def test_order_cap_holds_for_every_head(capsys, monkeypatch, expr, cap):
    monkeypatch.setenv("CCA_MAX_ORDER", str(cap))
    d = run_json(capsys, "check-group", expr)
    assert d["verdict"]["kind"] == "unknown-cap"
    assert d["verdict"]["checks"][0]["detail"].endswith(f"exceeds cap {cap}")
    assert run(capsys, "check-group", expr, "--strict")[0] == 2


# at n = 3 each K_{n,n} task's largest group has order 2n^2, 4n^2 or 8n^2
KNN_ORDERS = [("witness-thm31", 18, "non-CCA"),
              ("witness-prop33", 36, "non-CCA"),
              ("harness-4-10", 72, "hypotheses-ok")]


@pytest.mark.parametrize("command, order, kind", KNN_ORDERS,
                         ids=[command for command, _, _ in KNN_ORDERS])
def test_order_cap_holds_for_every_knn_command(capsys, monkeypatch, command,
                                               order, kind):
    monkeypatch.setenv("CCA_MAX_ORDER", str(order - 1))
    d = run_json(capsys, command, "--n", "3")
    assert d["verdict"]["kind"] == "unknown-cap"
    assert d["verdict"]["checks"][0]["detail"] == \
        f"order {order} exceeds cap {order - 1}"
    assert run(capsys, command, "--n", "3", "--strict")[0] == 2
    monkeypatch.setenv("CCA_MAX_ORDER", str(order))
    assert run_json(capsys, command, "--n", "3")["verdict"]["kind"] == kind


def test_seedless_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "witness-thm31", "--n", "3", "--seedless")
    _, second, _ = run(capsys, "witness-thm31", "--n", "3", "--seedless")
    assert first == second
    assert json.loads(first)["stats"]["millis"] == 0


def test_verify_flag_records_replay(capsys):
    d = run_json(capsys, "witness-thm31", "--n", "3", "--verify")
    names = [c["name"] for c in d["verdict"]["checks"]]
    assert "replay-witness" in names


def test_artifact_files(tmp_path, capsys):
    code, out, _ = run(capsys, "check-graph", "C(3) x D(3)",
                       "{s2, r1*r2} +inv", "--emit", "both", "--out",
                       str(tmp_path))
    assert code == 0
    json_files = list(tmp_path.glob("*.json"))
    dot_files = list(tmp_path.glob("*.dot"))
    assert len(json_files) == 1 and len(dot_files) == 1
    assert json_files[0].read_text() == out
    dot = dot_files[0].read_text()
    assert dot.count(" -- ") == 27  # 18 vertices of degree 3
    colours = {line.split('color="')[1].split('"')[0]
               for line in dot.splitlines() if "color=" in line}
    assert len(colours) == 2
    # slug built from the task, not the flags
    assert "emit" not in json_files[0].name


def test_census_refuses_dot(tmp_path, capsys):
    code, _, err = run(capsys, "census", "--orders", "4..6", "--emit", "dot",
                       "--out", str(tmp_path))
    assert code == 1


def test_dot_without_a_graph_fails_before_any_output(tmp_path, capsys):
    spec = tmp_path / "run.spec"
    spec.write_text('check-group "C(7)"\n')
    runs = [("check-group", "C(7)", "--emit", "dot"),
            ("check-group", "C(7)", "--emit", "both", "--seedless"),
            ("check-group", "C(40) x C(40)", "--emit", "both"),  # order cap
            ("script", str(spec), "--emit", "both")]
    for k, argv in enumerate(runs):
        out_dir = tmp_path / f"out{k}"
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        assert (code, out) == (1, ""), argv
        assert err == "error: this task produced no graph to draw\n"
        assert not out_dir.exists()


def test_an_out_path_that_cannot_be_written_prints_no_report(tmp_path,
                                                            capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for emit in ("json", "dot", "both"):
        code, out, err = run(capsys, "witness-thm31", "--n", "3",
                             "--out", str(taken), "--emit", emit)
        assert (code, out) == (1, ""), emit
        assert err.startswith("error: [Errno 17] File exists")
    assert taken.read_text() == ""


def test_census_report(capsys):
    d = run_json(capsys, "census", "--orders", "4..8")
    rows = {r["group"]: r["verdict"]["kind"] for r in d["verdicts"]}
    assert rows["C(4)"] == "CCA"
    assert rows["D(3)"] == "CCA"
    assert rows["Q8"] == "non-CCA"
    assert rows["Dic(C(4), r^2)"] == "non-CCA"
    orders = [r["order"] for r in d["verdicts"]]
    assert orders == sorted(orders)


def test_group_walks_list_no_automorphisms(capsys, monkeypatch):
    def refuse(g):
        raise AssertionError("a CLI path listed Aut(G)")

    monkeypatch.setattr(groups, "automorphisms", refuse)
    rows = run_json(capsys, "census", "--orders", "4..18")["verdicts"]
    assert "non-CCA" in {r["verdict"]["kind"] for r in rows}
    d = run_json(capsys, "check-group", "Q8 x C(2) x C(2)")
    assert d["verdict"]["kind"] == "non-CCA"


def test_census_strict_exits_2_when_a_row_is_capped(capsys):
    # one minimal connection set decides C(16); D(8) needs two
    code, out, _ = run(capsys, "census", "--orders", "16..16", "--cap", "1",
                       "--strict")
    assert code == 2
    rows = {r["group"]: r["verdict"]["kind"]
            for r in json.loads(out)["verdicts"]}
    assert rows["C(16)"] == "CCA"
    assert rows["D(8)"] == "unknown-cap"
    code, plain, _ = run(capsys, "census", "--orders", "16..16", "--cap", "1")
    assert code == 0
    assert json.loads(plain)["verdicts"] == json.loads(out)["verdicts"]


def test_script_files(tmp_path, capsys):
    spec = tmp_path / "run.spec"
    spec.write_text(
        "# demo\n"
        "let G = C(5)\n"
        "check-group G\n"
        'pair "C(3)" "Dih(C(3))"\n')
    code, out, err = run(capsys, "script", str(spec), "--seedless", "--out",
                         str(tmp_path / "art"))
    assert code == 0, err
    # two task reports concatenated on stdout
    decoder = json.JSONDecoder()
    pos, kinds = 0, []
    while pos < len(out):
        obj, end = decoder.raw_decode(out, pos)
        kinds.append(obj["verdict"]["kind"])
        pos = end + 1
    assert kinds == ["CCA", "pair-yes"]
    names = sorted(p.name for p in (tmp_path / "art").glob("*.json"))
    assert names[0].startswith("01-") and names[1].startswith("02-")


def test_script_guards(tmp_path, capsys):
    inner = tmp_path / "inner.spec"
    inner.write_text("check-group \"C(3)\"\n")
    outer = tmp_path / "outer.spec"
    outer.write_text(f"script {inner}\n")
    code, _, err = run(capsys, "script", str(outer))
    assert code == 1
    assert "nested script" in err
    assert run(capsys, "script", str(tmp_path / "missing.spec"))[0] == 1


def test_script_stops_at_first_failure(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("check-graph \"C(6)\" \"{r}\"\ncheck-group \"C(3)\"\n")
    code, out, err = run(capsys, "script", str(spec))
    assert code == 1
    assert out == ""  # the failing first task printed nothing


DEEP = ["(" * 500 + "C(2)" + ")" * 500, " x ".join(["C(1)"] * 1000)]


@pytest.mark.parametrize("expr", DEEP, ids=["brackets", "products"])
def test_deep_nesting_is_a_positioned_error(capsys, expr):
    code, out, err = run(capsys, "check-group", expr)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1, column ")
    assert "more than 100 brackets and products" in err


def test_deep_nesting_in_a_script_is_a_positioned_error(tmp_path, capsys):
    spec = tmp_path / "deep.spec"
    spec.write_text("let G = " + "(" * 1200 + "C(2)" + ")" * 1200 +
                    "\ncheck-group G\n")
    code, out, err = run(capsys, "script", str(spec))
    assert (code, out) == (1, "")
    assert err == ("error: line 1, column 109: more than 100 brackets and "
                   "products nested\n")


def test_search_deeper_than_the_recursion_limit(capsys):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        d = run_json(capsys, "check-graph", "C(300)", "{r} +inv")
    finally:
        sys.setrecursionlimit(limit)
    assert d["verdict"]["kind"] == "CCA"


def _fresh_python(probe: str, *argv: str) -> str:
    """stdout of ``probe`` run by a new interpreter on this ccakit."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    probe = ("import sys; before = set(sys.modules); import ccakit.cli; "
             "print(sorted({'dataclasses', 'inspect'} "
             "& (set(sys.modules) - before)))")
    assert _fresh_python(probe) == "[]\n"


LAYERS = {"errors", "perm", "kernels", "groups", "graphs", "labeling",
          "engine", "bipartite", "speclang", "report"}

# Runs one command in a fresh process and prints its exit code and the
# ccakit modules whose code ran; a layer not yet touched is still lazy.
_RAN = """\
import contextlib, io, sys, types
import ccakit.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ccakit.cli.main(sys.argv[1:])
print(code, *sorted(name.split(".")[1] for name, m in sys.modules.items()
                    if name.startswith("ccakit.")
                    and type(m) is types.ModuleType))
"""

SPEC_COMMANDS = [("census", "--orders", "1..6"),
                 ("check-graph", "C(6)", "{r} +inv"),
                 ("check-group", "Q8"),
                 ("pair", "C(3)", "Dih(C(3))")]
KNN_COMMANDS = [(command, "--n", "3") for command, _, _ in KNN_ORDERS]


def _modules_run(*argv: str) -> set[str]:
    code, *ran = _fresh_python(_RAN, *argv).split()
    assert code == "0"
    return set(ran)


def test_help_runs_only_the_cli_and_errors():
    assert _modules_run("--help") == {"cli", "errors"}


@pytest.mark.parametrize("argv", SPEC_COMMANDS,
                         ids=[a[0] for a in SPEC_COMMANDS])
def test_spec_commands_run_no_knn_layers(argv):
    assert _modules_run(*argv) == LAYERS - {"bipartite", "labeling"} | {"cli"}


@pytest.mark.parametrize("argv", KNN_COMMANDS,
                         ids=[a[0] for a in KNN_COMMANDS])
def test_knn_commands_run_no_spec_language(argv):
    """witness-prop33 labels no arcs, so it runs no labeling code either."""
    unused = ({"speclang", "labeling"} if argv[0] == "witness-prop33"
              else {"speclang"})
    assert _modules_run(*argv) == LAYERS - unused | {"cli"}


def test_importing_the_cli_registers_every_layer():
    """A tracer that wraps functions after ``import ccakit.cli`` finds every
    layer module in sys.modules, loaded or not."""
    probe = ("import sys, ccakit.cli; print(*sorted(name.split('.')[1] "
             "for name in sys.modules if name.startswith('ccakit.')))")
    assert set(_fresh_python(probe).split()) == LAYERS | {"cli"}


def test_package_names_resolve_to_their_defining_module():
    import ccakit
    assert ccakit.__all__ and set(ccakit.__all__) <= set(dir(ccakit))
    for name in ccakit.__all__:
        obj = getattr(ccakit, name)
        assert obj.__module__.startswith("ccakit.")
        assert obj is getattr(sys.modules[obj.__module__], name)
    with pytest.raises(AttributeError, match="no_such_name"):
        ccakit.no_such_name


def test_unexpected_exception_exits_3_without_traceback(capsys, monkeypatch):
    def boom(cg):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(engine, "is_cca_graph", boom)
    code, out, err = run(capsys, "check-graph", "C(6)", "{r} +inv")
    assert code == 3
    assert out == ""
    assert err == "internal: RuntimeError: engine exploded\n"


def test_malformed_witness_exits_3(capsys, monkeypatch):
    is_cca_graph = engine.is_cca_graph

    def short_witness(cg):
        v = is_cca_graph(cg)
        v.witness = v.witness[:-1]
        return v

    monkeypatch.setattr(engine, "is_cca_graph", short_witness)
    code, out, err = run(capsys, "check-graph", "Q8", "{i, j} +inv")
    assert code == 3
    assert out == ""
    assert err == "internal: witness failed replay at emit time\n"


def test_witness_replay_uses_the_normalizer_route(capsys, monkeypatch):
    """The verdict finds its witness by the decomposition route; replay
    checks it by the normalizer route alone, so a normalizer route that
    calls every map affine fails the emitted witness."""
    monkeypatch.setattr(engine, "_normalizes", lambda cg, p: True)
    code, out, err = run(capsys, "check-group", "Q8")
    assert code == 3
    assert out == ""
    assert err == "internal: witness failed replay at emit time\n"
