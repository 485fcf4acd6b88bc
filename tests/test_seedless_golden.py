"""Pinned bytes of ``--seedless`` reports.

Each task's stdout (and, for the witness tasks, the ``--out`` JSON and DOT
files) must hash to the digest recorded here.  The first seven digests were
taken from the verdict path as it stood before the table-driven search
replaced the colour-matrix one, the next four before the witness, harness
and pair pipelines were trimmed, the next three before the orbit walk
stopped closing each connection set twice and census and the single-verdict
commands came to share one report emitter, the next four (the benchmark's
own witness, harness and census tasks) while maps were still validated
``Permutation`` objects, before bare image tuples replaced them, and the
next two (``check-graph`` on one non-CCA and one CCA graph) while
``is_cca_graph`` still ran both affinity routes on every graph, the next
one (``pair`` on C(64) with Dih(C(64))) while the pair path still listed
B, Dih(G) and the colour group of the quaternion shape, the next two
(``check-group`` on D(5) x D(5) and on D(3) x D(3) x C(2)) while the walk
over class sequences still grew each sequence's subgroup by its own
closure step, the next two (``check-group`` on D(7) x D(7) and
``pair`` on Q8 x C(2)^3) while the isomorphism search still tried every
image of a generator's order, and the last two (``check-group`` on C7 x| C3
as permutations and ``witness-prop33 --n 11``) while ``closure`` still built
the whole |G| x |G| table.  They are never regenerated from the code
under test, so any change to a verdict, a witness, a check narrative or
``stats.nodes`` shows up here.

The four tasks in ``MOVED`` were re-pinned once, when the orbit walk came
to examine only inclusion-minimal connection sets, and only after
``test_moved_digests_differ_from_every_set_walk_only_in_counts`` showed
their reports equal to those of the walk over every generating set up to
the counts that walk lowers.

The tasks in ``RESTORED`` were each re-pinned once, and only after
``test_restored_reports_hash_to_their_old_digests`` rebuilt their old bytes
from the new reports: the first four when ``is_cca_graph`` came to decide
each graph by one affinity route (dropping its ``translations-present`` and
``stabilizer-formulation`` checks) and ``witness-thm31`` stopped building
the overgroup H, the three ``witness-prop33`` tasks when phi came to be
read off the D_2n x D_2n factor pairing by one route (dropping the
``phi-two-routes`` check), and the three ``pair`` and three
``harness-4-10`` tasks when ``is_complete_colour_pair`` came to search only
the stabilizer of vertex 0 of the complete colour graph and
``arc_lift_harness`` to decide the local pair at vertex 0 alone (lowering
``stats.nodes`` and nothing else).

The fourteen tasks in ``LISTED`` were re-pinned once, when each colour
group came to be read off generators of a stabilizer chain of first-leaf
searches instead of a listing of the vertex-0 stabilizer, and only after
``test_listed_stabilizer_prints_the_old_digests`` showed each of them
printing its old digest with the listing put back in place of the chain.
The chain lowers ``stats.nodes``, and the witness becomes the first
non-affine generator, which moves ``witness_images`` on
``check-group "Dic(C(12), r^6)"`` and on the ``Dic(C(8), r^4)`` row of the
census of orders 4..18.
"""

import hashlib
import json
import sys
import tracemalloc

import pytest

from ccakit import bipartite, engine, groups, kernels, labeling
from ccakit.cli import main
from ccakit.graphs import complete_colour_graph
from ccakit.report import to_json
from ccakit.speclang import elaborate, parse_expr

from bruteforce import (colour_matrix, listed_stabilizer, matrix_search,
                        min_walk_verdict)

GOLDEN = [
    (("census", "--orders", "4..12"),
     "b5fbbdbcff8dc7904e8fd0f9121ce814dd457c269f7d491b3f43f960eeea1433", {}),
    (("check-group", "Dic(C(12), r^6)"),
     "42c9e593efc356aa1be6becc76aead5e44afc93e349f9aa0bea6cf78a79e1761", {}),
    (("check-group", "C(4) x C(4)"),
     "bf51f93a5bd1be9be6fec60c7908c02e3f9d8e4a6920d9f45200b11f1b0be256", {}),
    (("pair", "Q8 x C(2)", "Q8 x C(2)"),
     "868858e7514cc11e7fc9c8b184634cc8057d63f609832b626910e3daef59b63b", {}),
    (("witness-thm31", "--n", "5", "--emit", "both"),
     "911980c7bfe95f157a32357448e57ce5c1a3116e0b44a0eb112c087dd844c626",
     {"witness-thm31-5.json":
      "911980c7bfe95f157a32357448e57ce5c1a3116e0b44a0eb112c087dd844c626",
      "witness-thm31-5.dot":
      "b9a7189bdfad00d757d1972c8901c192ceac489b97a6871a086137e1e5986f5e"}),
    (("witness-prop33", "--n", "3"),
     "da6bc80c7f3f1005dfba179848902340106ee5f7e26b17a5af38365f359151b3", {}),
    (("harness-4-10", "--n", "3"),
     "e4a13bbdfd2f6f6d404f719152b146f95ecd695a1e4761100161bbc8e5c60879", {}),
    (("witness-prop33", "--n", "5"),
     "80f35674d251a773f94dcaa930019979f6694bc69b4c293958037fce61844391", {}),
    (("harness-4-10", "--n", "5"),
     "086f2fb6cf955b81c96f93a271481d8e139371a7c20c34695164019ebb1651ef", {}),
    # the abelian inversion shape
    (("pair", "C(5)", "Dih(C(5))"),
     "aa06a01f06a2617707c293b99a14e5a7b368877d4291d5baef4c49f5ea9aa737", {}),
    # the dicyclic coset-reflection shape
    (("pair", "Dic(C(6), r^3)", "Dic(C(6), r^3)"),
     "ec4ff79f887f6b9cff39f09e530a1f802f74bc14865f2eb4ad29275b08bc6b32", {}),
    # the census emitter, with replay checks and its --out file
    (("census", "--orders", "4..8", "--verify"),
     "c4e485461965233d9309f5adf37cf5ee86c2299ad2ebf53fbc7d55108aa1832f",
     {"census-4-8.json":
      "c4e485461965233d9309f5adf37cf5ee86c2299ad2ebf53fbc7d55108aa1832f"}),
    # the walk's cap, reported by the single-verdict emitter
    (("check-group", "D(6)", "--cap", "3"),
     "8294fbc03cb092687a0f13ff2971495e807b50cfb375fd7e9b856bc10c9d1c59", {}),
    # the elaboration cap, reported by the fallback for a refused group
    (("check-group", "C(600)"),
     "717779a4237d9439b29bb2355b53253496ce6003e25f8b24c9eb463ec08cd399", {}),
    # the benchmark's own tasks
    (("witness-thm31", "--n", "9", "--emit", "both"),
     "70c4ddfbdf8b70ad3fab9ff2016e90ca7dc3e7c4418c641efa17a882c1cb786e",
     {"witness-thm31-9.json":
      "70c4ddfbdf8b70ad3fab9ff2016e90ca7dc3e7c4418c641efa17a882c1cb786e",
      "witness-thm31-9.dot":
      "471e8dbaf029d3ae1b60bfb635cca328ab7ce3befd3032bccb610f0bded221d7"}),
    (("witness-prop33", "--n", "9"),
     "1950c1486e755eddf8a6d66d420408f9069bf165cb42bb48a7d76d81ba6a936d", {}),
    (("harness-4-10", "--n", "7"),
     "2d87be68426c9881361701e0338972f122b667c31164635a005e48a6a0160016", {}),
    (("census", "--orders", "4..18"),
     "51d29b45e658c446ef434491d291406fe5aa34d4fad17fc926f1693e39d17308", {}),
    # one graph, non-CCA and CCA, reported by is_cca_graph itself
    (("check-graph", "C(3) x D(3)", "{s2, r1*r2} +inv"),
     "3fa1dd7c62c97719b1ad2eedec64ae23c8398defbdcbc0f5e3dce1d3ef376e03", {}),
    (("check-graph", "C(6)", "{r} +inv"),
     "5b0a1571497c8f344eabff4f898560a776b2bcedef81bfde6f1dc9d5f0af9699", {}),
    # the inversion shape with B = Dih(G) of order 128, pinned while B,
    # Dih(G) and the quaternion shape's colour group were still listed
    (("pair", "C(64)", "Dih(C(64))"),
     "d8667268dbb874ba7696194884f6dc8218e32cc22019f81412386ea05e6a1724", {}),
    # the walk over class sequences: the paper's D_2n x D_2n at n = 5, non-CCA
    # after 6 sets, and a non-CCA group of order 72 after 9
    (("check-group", "D(5) x D(5)"),
     "1b0778c13f67c5a47597eb8a6ac3db5311303d74e4ab4de30e22c67292b27d02", {}),
    (("check-group", "D(3) x D(3) x C(2)"),
     "f8c3e0b8ccb74abae2001d26f91d45b5c238e00126e737806ba4733c442378c3", {}),
    # the Aut(G) search: the paper's D_2n x D_2n at n = 7, non-CCA, and the
    # quaternion shape at order 64, whose pair runs are_isomorphic
    (("check-group", "D(7) x D(7)"),
     "ea34df91d99904e2ccbc19d3527593556112a8b1613ae04b2ae24f0d03cdd762", {}),
    (("pair", "Q8 x C(2) x C(2) x C(2)", "Q8 x C(2) x C(2) x C(2)"),
     "b9f09a3bc154d7275cdda6438e63ad0d2c74d1f8b074cda7702a31cb5ba0e19f", {}),
    # closure-built groups: the walk on C7 x| C3 given by permutations,
    # non-CCA, and the largest witness-prop33 within the default cap (order
    # 484)
    (("check-group", "Perm[(0 1 2 3 4 5 6), (1 2 4)(3 6 5)]"),
     "ac293254520a4e43a6ca12c01152cb0b2954745cbd7d8a1b057e29b59cd4f9d4", {}),
    (("witness-prop33", "--n", "11"),
     "f908f9c5a0c74a1aefe2b38ad444144345c4446e053c3c929029e55d95715b26", {}),
]


# tasks whose digests moved when the orbit walk came to examine only the
# inclusion-minimal connection sets: fewer sets on CCA rows, fewer nodes
MOVED = [("census", "--orders", "4..12"), ("check-group", "C(4) x C(4)"),
         ("census", "--orders", "4..8", "--verify"),
         ("census", "--orders", "4..18")]


def _verdicts(report: dict) -> list[dict]:
    """The verdicts of a single-verdict report or of a census's rows."""
    return ([r["verdict"] for r in report["verdicts"]]
            if "verdicts" in report else [report["verdict"]])


def _without_walk_counts(report: dict) -> dict:
    """The report with ``stats.nodes`` and the CCA rows' count of examined
    connection sets blanked out."""
    report["stats"]["nodes"] = None
    for verdict in _verdicts(report):
        for check in verdict["checks"]:
            if (verdict["kind"] == "CCA"
                    and check["name"] == "connection-sets-examined"):
                check["detail"] = None
    return report


@pytest.mark.parametrize("argv", MOVED, ids=[" ".join(a) for a in MOVED])
def test_moved_digests_differ_from_every_set_walk_only_in_counts(
        capsys, tmp_path, monkeypatch, argv):
    """Each moved task reports as it does when check-group walks every
    generating connection set, up to the counts the minimal walk lowers."""
    monkeypatch.chdir(tmp_path)

    def report() -> dict:
        assert main([*argv, "--seedless"]) == 0
        return json.loads(capsys.readouterr().out)

    minimal = report()
    monkeypatch.setattr(engine, "is_cca_group", lambda g, cap=None:
                        min_walk_verdict(g, cap or engine._ENUM_CAP)[0])
    every = report()
    assert minimal != every
    assert _without_walk_counts(minimal) == _without_walk_counts(every)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# tasks whose digests moved when the colour groups came to be read off a
# stabilizer chain, with their digests before that
LISTED = [
    (("census", "--orders", "4..12"),
     "6fadb192f171af8ef9c99e9ab9d6bad0e187be9aedd5ee4c71255577edf76faa"),
    (("check-group", "Dic(C(12), r^6)"),
     "a5859d302d713401f689c38f45fefe7d62b5d185bd5535a9a5932161e31de84d"),
    (("check-group", "C(4) x C(4)"),
     "a035ad5612e6bcea8ab7548ee8afacfb21d85b67dec65e854325dac7c5a235b9"),
    (("pair", "Q8 x C(2)", "Q8 x C(2)"),
     "c6db534b41cd2b6102581e4b9034b4d0e7c47f9f2a62a3f0dedeca518d2cc42c"),
    (("harness-4-10", "--n", "3"),
     "f328749f3297acc84f040d63ec7bff85babd0ef8bd5f94f1bcac9d3643fddb4b"),
    (("harness-4-10", "--n", "5"),
     "78de8d936cb17bce20f46961d3436c75824462bfdd0b3c36a77cb8f808cd1a04"),
    (("pair", "C(5)", "Dih(C(5))"),
     "f1a89cc0d729d3c1cd1ec1df3fc37e6ccfd6759af6a811a3e2d77569c10de010"),
    (("pair", "Dic(C(6), r^3)", "Dic(C(6), r^3)"),
     "6ce5f056c0de6a3f2ea3dc292b673e3e1db04d3dcde023a209d4c62396d4d0eb"),
    (("census", "--orders", "4..8", "--verify"),
     "296ee7574233a2da9dae4f710852a5bef2cf7685d528b847d9fa2378fbca3de5"),
    (("check-group", "D(6)", "--cap", "3"),
     "a91e20f71fe1d54ec281c12b890738bf009e6094644dc77a24a5518583f94336"),
    (("harness-4-10", "--n", "7"),
     "314a1935b71df211edccff37552b0be35705f7b0d9b272f2f94fc1a8053f909d"),
    (("census", "--orders", "4..18"),
     "1a687282a668ac098608ce139158aa3f251dbd84a22b7cafea5c78d55169df7d"),
    (("check-graph", "C(3) x D(3)", "{s2, r1*r2} +inv"),
     "5ac420e83e097e276b8d984eb377a490e99946cb88d421a92dc39414dac4bdd5"),
    (("check-graph", "C(6)", "{r} +inv"),
     "48b66534f3113c54ac4d749a90066b25c0dcd44975a49c9dea89f35a79a880a2"),
]


@pytest.mark.parametrize("argv, old_digest", LISTED,
                         ids=[" ".join(a) for a, _ in LISTED])
def test_listed_stabilizer_prints_the_old_digests(capsys, tmp_path,
                                                  monkeypatch, argv,
                                                  old_digest):
    """With the listing of the vertex-0 stabilizer put back in place of the
    chain, each re-pinned task prints the bytes it printed before."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(engine, "_searched_group", listed_stabilizer)
    extra = ["--out", "out"] if {a: f for a, _, f in GOLDEN}[argv] else []
    assert main([*argv, "--seedless", *extra]) == 0
    out = capsys.readouterr().out
    assert _sha(out.encode()) == old_digest != {a: d for a, d, _ in GOLDEN}[argv]


# tasks whose digests moved when is_cca_graph came to run one affinity route
# and witness-thm31 stopped building H, when witness-prop33 came to build
# phi by one route, or when the pair path came to search one stabilizer,
# with their digests before that
RESTORED = [
    (("check-graph", "C(3) x D(3)", "{s2, r1*r2} +inv"),
     "cb026468c259474a578c476aa4fda2badc4f55c2fd2df751b033fb44c69e76b7"),
    (("check-graph", "C(6)", "{r} +inv"),
     "283b625d4028a0e7261589258b87d44da5bb7311f7d78ac4198daed1588ca714"),
    (("witness-thm31", "--n", "5", "--emit", "both"),
     "35cc7331b9e245d0c3e93e0b4c7382b9e7ec5695a68aec340f208544b98ffeba"),
    (("witness-thm31", "--n", "9", "--emit", "both"),
     "08b12d2217cba4fcb7a57d81693d4b7f3fd3c22787c47a73b1ef7ca19e7c20b5"),
    # moved when witness-prop33 came to read phi off the factor pairing
    (("witness-prop33", "--n", "3"),
     "44169b20731b82073f99246ad8c92053fa9f97ac623b8c55b212097c3eb4be25"),
    (("witness-prop33", "--n", "5"),
     "7f5ceb7c89c00886e23176c26b651f7213d97d059aea134efd7809ea290479b7"),
    (("witness-prop33", "--n", "9"),
     "9ec2e05d75009a16f9cf0ea539bb2cb9109bbb1411df32736b50e346476c1af2"),
    # moved when the pair path came to search the stabilizer of vertex 0
    # and the harness to decide one local pair
    (("pair", "Q8 x C(2)", "Q8 x C(2)"),
     "59ef87558e3eb69b7a60a83fb50d5f44f22d397aae4e4f45f70539fb77842594"),
    (("pair", "C(5)", "Dih(C(5))"),
     "fd43896799b905b45c8635455b51d0c20fe029affa9675f97679a9a5780a5438"),
    (("pair", "Dic(C(6), r^3)", "Dic(C(6), r^3)"),
     "89cb9738edaeab4097cc2f4e171051dca62da3c8a99f8fe58f001cabd4c15932"),
    (("harness-4-10", "--n", "3"),
     "5bbf959e564d437ef7892f281ea7a9e9b8b155663fdbdcc187b37b174c369b68"),
    (("harness-4-10", "--n", "5"),
     "dc2c03f7782c6607fb0ecc2d6764d94cc3ef846be50066a1fa59f9f828a77baf"),
    (("harness-4-10", "--n", "7"),
     "de690ef6728d424d3be2821d501afb5d516a15d0b0baf90c09d08bea1be0f2ac"),
]


def _whole_group_nodes(argv: tuple[str, ...]) -> int:
    """``stats.nodes`` as the pair path counted it while it searched the
    whole colour group of each complete colour graph: one for ``pair``, one
    per vertex's local pair for ``harness-4-10``."""
    if argv[0] == "pair":
        ghats = [groups.left_regular(elaborate(parse_expr(argv[1]), {}))]
    else:
        a = bipartite.knn_actors(int(argv[2]))
        ghats = [engine.local_action(a.g, a.graph, v)
                 for v in range(a.graph.vertex_count)]
    return sum(matrix_search(ghat.order,
                             colour_matrix(complete_colour_graph(ghat).graph),
                             range(ghat.order))[1] for ghat in ghats)


def _restore_dropped_checks(argv: tuple[str, ...], report: dict) -> None:
    """Put back what the report said before: the two checks is_cca_graph
    made while it ran both affinity routes, the |H| that witness-thm31
    printed while it built H, the check witness-prop33 made while it
    built phi by two routes, or the nodes the pair path searched while it
    listed whole colour groups."""
    checks = report["verdict"]["checks"]
    if argv[0] in ("pair", "harness-4-10"):
        report["stats"]["nodes"] = _whole_group_nodes(argv)
    elif argv[0] == "witness-prop33":
        assert [c["name"] for c in checks][:2] == ["double-dihedral", "graph"]
        checks.insert(2, {"name": "phi-two-routes", "pass": True,
                          "detail": "exponent route equals transport route"})
    elif argv[0] == "check-graph":
        order = elaborate(parse_expr(argv[1]), {}).order
        assert [c["name"] for c in checks] == ["search", "all-affine"]
        checks[1:1] = [
            {"name": "translations-present", "pass": True,
             "detail": f"all {order} left translations found"},
            {"name": "stabilizer-formulation", "pass": True,
             "detail": "both formulations agree"}]
    else:
        n = int(argv[2])
        assert checks[0] == {"name": "actors", "pass": True,
                             "detail": f"|G| = {2 * n * n}"}
        checks[0]["detail"] += f", |H| = {8 * n * n}"


@pytest.mark.parametrize("argv, old_digest", RESTORED,
                         ids=[" ".join(a) for a, _ in RESTORED])
def test_restored_reports_hash_to_their_old_digests(capsys, tmp_path,
                                                    monkeypatch, argv,
                                                    old_digest):
    """Each moved report, with the dropped checks or detail put back and
    serialized again, has the bytes it had before; its --out JSON, when
    there is one, is the same text as its stdout.  The colour groups are
    listed, as they were when these digests were taken."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(engine, "_searched_group", listed_stabilizer)
    extra = ["--out", "out"] if "--emit" in argv else []
    assert main([*argv, "--seedless", *extra]) == 0
    out = capsys.readouterr().out
    if extra:
        assert (tmp_path / "out" / f"witness-thm31-{argv[2]}.json"
                ).read_text() == out
    assert _sha(out.encode()) != old_digest
    report = json.loads(out)
    _restore_dropped_checks(argv, report)
    assert _sha(to_json(report).encode()) == old_digest


ONE_ROUTE = [("census", "--orders", "4..18"), *(a for a, _ in RESTORED[:2])]


@pytest.mark.parametrize("argv", ONE_ROUTE, ids=[" ".join(a) for a in ONE_ROUTE])
def test_verdicts_close_nothing_and_run_one_affinity_route(capsys,
                                                           monkeypatch, argv):
    """With the stabilizer closure gone and the normalizer route refused
    outside ``replay_witness``, the pinned bytes still come out, and every
    emitted witness was replayed by the normalizer route."""
    normalizes = engine._normalizes
    replayed = []

    def replay_only(cg, p):
        if sys._getframe(1).f_code is not engine.replay_witness.__code__:
            raise AssertionError("normalizer route called outside replay")
        replayed.append(p)
        return normalizes(cg, p)

    def no_closure(*args, **kwargs):
        raise AssertionError("greedy_closure called")

    monkeypatch.setattr(engine, "_normalizes", replay_only)
    monkeypatch.setattr(engine, "greedy_closure", no_closure)
    assert main([*argv, "--seedless"]) == 0
    out = capsys.readouterr().out
    assert _sha(out.encode()) == {a: d for a, d, _ in GOLDEN}[argv]
    assert replayed == [tuple(v["witness_images"])
                        for v in _verdicts(json.loads(out))
                        if v["kind"] == "non-CCA"]


PAIR_ROUTE = [a for a, _, _ in GOLDEN if a[0] == "pair"] + [
    ("harness-4-10", "--n", "5")]


@pytest.mark.parametrize("argv", PAIR_ROUTE,
                         ids=[" ".join(a) for a in PAIR_ROUTE])
def test_pair_path_searches_the_vertex_0_stabilizer_once(capsys, monkeypatch,
                                                         argv):
    """With every search that moves vertex 0 refused, the pinned bytes
    still come out, one chain is built, on the vertex-0 stabilizer, and the
    harness builds and decides one local pair."""
    search, searched_group, tops = kernels.search, engine._searched_group, []
    calls = {"local_action": 0, "is_complete_colour_pair": 0}

    def stabilizer_only(adjacency, tree, k, w):
        if k == 0:
            raise AssertionError("search beyond the vertex-0 stabilizer")
        return search(adjacency, tree, k, w)

    def one_chain(g, top):
        tops.append(top)
        return searched_group(g, top)

    def counted(name):
        fn = getattr(engine, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(kernels, "search", stabilizer_only)
    monkeypatch.setattr(engine, "_searched_group", one_chain)
    for name in calls:
        monkeypatch.setattr(engine, name, counted(name))
    code = main([*argv, "--seedless"])
    out = capsys.readouterr().out
    assert tops == [1]
    assert code == 0
    assert _sha(out.encode()) == {a: d for a, d, _ in GOLDEN}[argv]
    assert calls == {"local_action": 2 if argv[0] == "harness-4-10" else 0,
                     "is_complete_colour_pair": 1}


def test_prop33_builds_no_arc_labelling(capsys, monkeypatch):
    """witness-prop33 reads phi off the factor pairing: with arc labelling
    and transport refused, its pinned bytes still come out."""
    def refuse(*args, **kwargs):
        raise AssertionError("arc labelling used")

    monkeypatch.setattr(labeling, "arc_labeling", refuse)
    monkeypatch.setattr(labeling, "induced_vertex_map", refuse)
    argv = ("witness-prop33", "--n", "5")
    assert main([*argv, "--seedless"]) == 0
    out = capsys.readouterr().out
    assert _sha(out.encode()) == {a: d for a, d, _ in GOLDEN}[argv]


LOOKUP_FREE = [("witness-prop33", "--n", "5"),
               ("witness-thm31", "--n", "5", "--emit", "both")]


@pytest.mark.parametrize("argv", LOOKUP_FREE,
                         ids=[" ".join(a) for a in LOOKUP_FREE])
def test_witness_tasks_build_no_colour_lookup(capsys, tmp_path, monkeypatch,
                                              argv):
    """The witness tasks run no search, and their colour checks read the
    adjacency lists: with the search refused, their pinned bytes still come
    out."""
    def refuse(*args):
        raise AssertionError("search run")

    monkeypatch.setattr(kernels, "search", refuse)
    monkeypatch.chdir(tmp_path)
    files = {a: f for a, _, f in GOLDEN}[argv]
    extra = ["--out", "out"] if files else []
    assert main([*argv, "--seedless", *extra]) == 0
    out = capsys.readouterr().out
    assert _sha(out.encode()) == {a: d for a, d, _ in GOLDEN}[argv]
    written = {p.name: _sha(p.read_bytes())
               for p in (tmp_path / "out").iterdir()} if files else {}
    assert written == files


ONE_MAP = [("census", "--orders", "4..18"), ("check-group", "Dic(C(12), r^6)"),
           ("check-group", "Dic(C(64), r^32)", "--verify")]


@pytest.mark.parametrize("argv", ONE_MAP, ids=[" ".join(a) for a in ONE_MAP])
def test_every_search_returns_at_most_one_map(capsys, monkeypatch, argv):
    """No verdict lists the vertex-0 stabilizer: every search returns at
    most one map (a listing returns up to 128 on the census and 2,048 on
    Dic(C(12), r^6)), the pinned bytes still come out, and the generalized
    dicyclic group of order 128, whose stabilizer a listing could not hold,
    is decided non-CCA with a replayed witness."""
    search, most = kernels.search, []

    def one_map(*args):
        maps, nodes = search(*args)
        most.append(len(maps))
        if len(maps) > 1:
            raise AssertionError(f"search returned {len(maps)} maps")
        return maps, nodes

    monkeypatch.setattr(kernels, "search", one_map)
    assert main([*argv, "--seedless"]) == 0
    out = capsys.readouterr().out
    assert max(most) == 1
    if argv in ONE_MAP[:2]:
        assert _sha(out.encode()) == {a: d for a, d, _ in GOLDEN}[argv]
    else:
        verdict = json.loads(out)["verdict"]
        assert verdict["kind"] == "non-CCA"
        assert verdict["checks"][-1] == {
            "name": "replay-witness", "pass": True,
            "detail": "witness re-validated from scratch"}


def test_prop33_flip_check_and_replay_hold_no_colour_lookup():
    """Checking the n = 9 flip and replaying it allocate no n*n colour
    lookup: each would take 0.8 MB on the 324 vertices, one for the Cayley
    graph and one for the named graph that replay reads (the two of them
    peaked at 3.2 MB, against 1.6 MB without them)."""
    bipartite.double_dihedral_witness(3)  # load the lazy layers untraced
    tracemalloc.start()
    try:
        v = bipartite.double_dihedral_witness(9)
        assert engine.replay_witness(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * 2**20


def test_prop33_at_n_21_holds_no_whole_table(monkeypatch):
    """<G, gamma> has order 1,764 at n = 21; its |G| x |G| table alone
    would take about 24 MB (the whole witness peaked at about 28 MB with
    it)."""
    monkeypatch.setenv("CCA_MAX_ORDER", "2000")
    bipartite.double_dihedral_witness(3)  # load the lazy layers untraced
    tracemalloc.start()
    try:
        v = bipartite.double_dihedral_witness(21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.context.group.order == 1764
    assert peak < 10 * 2**20


def test_pair_checks_b_on_its_generators(capsys, monkeypatch):
    """pair decides whether B lies in the colour group on greedy
    generators of B: on C(64) with Dih(C(64)), one colour check per kept
    generator plus at most four for the shapes and the replay, not one per
    element of B."""
    checked, seen_b = [], []
    preserving = engine.is_colour_preserving
    pair = engine.is_complete_colour_pair

    def counted(g, p):
        checked.append(p)
        return preserving(g, p)

    def recorded(ghat, b):
        seen_b.append(b)
        return pair(ghat, b)

    monkeypatch.setattr(engine, "is_colour_preserving", counted)
    monkeypatch.setattr(engine, "is_complete_colour_pair", recorded)
    assert main(["pair", "C(64)", "Dih(C(64))", "--seedless"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["kind"] == "pair-yes"
    b, = seen_b
    kept, _ = groups.greedy_closure(b.realization, tuple(range(64)),
                                    engine._After)
    assert b.order == 128
    assert len(checked) <= len(kept) + 4


def test_pair_checks_no_translation_for_colours(capsys, monkeypatch):
    """Left translations of G preserve the colours of its complete colour
    graph by construction: with B = G = Q8 x C(2), every generator of B is
    one, and the only colour checks are of the three quaternion reflections
    and the witness replay, all of which fix the identity."""
    checked, seen_ghat = [], []
    preserving = engine.is_colour_preserving
    pair = engine.is_complete_colour_pair

    def counted(g, p):
        checked.append(tuple(p))
        return preserving(g, p)

    def recorded(ghat, b):
        seen_ghat.append(ghat)
        return pair(ghat, b)

    monkeypatch.setattr(engine, "is_colour_preserving", counted)
    monkeypatch.setattr(engine, "is_complete_colour_pair", recorded)
    argv = ("pair", "Q8 x C(2)", "Q8 x C(2)")
    assert main([*argv, "--seedless"]) == 0
    out = capsys.readouterr().out
    assert _sha(out.encode()) == {a: d for a, d, _ in GOLDEN}[argv]
    ghat, = seen_ghat
    assert checked
    assert all(list(p) != ghat.table[p[ghat.identity]] for p in checked)
    assert all(p[ghat.identity] == ghat.identity for p in checked)


PAIRS = [a for a, _, _ in GOLDEN if a[0] == "pair"]


@pytest.mark.parametrize("argv", PAIRS, ids=[" ".join(a) for a in PAIRS])
def test_pair_lists_neither_b_nor_the_colour_group(capsys, monkeypatch, argv):
    """Dih(G) is closed from G's minimal generating rows plus the inversion,
    and the pair verdict closes nothing larger than the three quaternion
    reflections, not B nor the translations: the pinned bytes still come
    out."""
    closure, greedy_closure = groups.closure, engine.greedy_closure
    handed, closed = [], []

    def counted_closure(gens, *args, **kwargs):
        handed.append(len(gens))
        return closure(gens, *args, **kwargs)

    def counted_greedy_closure(candidates, *args, **kwargs):
        candidates = list(candidates)
        closed.append(len(candidates))
        return greedy_closure(candidates, *args, **kwargs)

    monkeypatch.setattr(groups, "closure", counted_closure)
    monkeypatch.setattr(engine, "greedy_closure", counted_greedy_closure)
    assert main([*argv, "--seedless"]) == 0
    out = capsys.readouterr().out
    assert _sha(out.encode()) == {a: d for a, d, _ in GOLDEN}[argv]
    assert closed == ([3] if argv[1].startswith("Q8") else [])
    g = elaborate(parse_expr(argv[1]), {})
    assert handed == ([len(groups.minimal_generating_sequence(g)) + 1]
                      if argv[2].startswith("Dih(") else [])


@pytest.mark.parametrize("argv, stdout_digest, files", GOLDEN,
                         ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_seedless_bytes_are_pinned(capsys, tmp_path, monkeypatch, argv,
                                   stdout_digest, files):
    # the task string echoes argv, so --out must name the same path each time
    monkeypatch.chdir(tmp_path)
    extra = ["--out", "out"] if files else []
    code = main([*argv, "--seedless", *extra])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha(out.encode()) == stdout_digest
    written = {p.name: _sha(p.read_bytes())
               for p in (tmp_path / "out").iterdir()} if files else {}
    assert written == files
