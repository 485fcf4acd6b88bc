"""Command-line driver.

Every command prints one JSON report to stdout and exits 0 when the
analysis completed, whatever the verdict says.  Exit 1 flags a usage,
parse, or elaboration problem; exit 2 means a resource cap blocked the
requested assertion and --strict was set; exit 3 is an internal
inconsistency (two routes that must agree did not, such as a witness failing
its replay) or any other unexpected failure, reported as one ``internal:``
line instead of a traceback.

Tasks run sequentially; --seedless additionally zeroes timings so that
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from pathlib import Path

from . import bipartite, engine, graphs, groups
from . import report as rep
from . import speclang as lang
from .errors import (CapExceededError, InternalInconsistencyError,
                     PipelineError, SpecElabError, SpecSyntaxError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument("--emit", choices=("json", "dot", "both"),
                        default="json", help="artifact formats (default json)")
    shared.add_argument("--out", metavar="DIR",
                        help="directory for artifact files")
    shared.add_argument("--verify", action="store_true",
                        help="record the witness replay as an explicit check")
    shared.add_argument("--seedless", action="store_true",
                        help="deterministic output bytes (timings zeroed)")
    shared.add_argument("--strict", action="store_true",
                        help="exit 2 when a cap blocks the requested assertion")

    top = _Parser(prog="ccakit",
                  description="Colour-preserving Cayley graph analysis.")
    sub = top.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("check-graph", parents=[shared],
                       help="decide CCA for one Cayley colour graph")
    p.add_argument("group", help="group expression, e.g. 'C(3) x D(3)'")
    p.add_argument("connection",
                   help="connection set, e.g. '{r1, s2} +inv'")

    p = sub.add_parser("check-group", parents=[shared],
                       help="decide CCA over all connection sets")
    p.add_argument("group")
    p.add_argument("--cap", type=int,
                   help="bound on minimal generating connection sets "
                        "examined")

    p = sub.add_parser("pair", parents=[shared],
                       help="decide the complete-colour-pair property")
    p.add_argument("g", help="group expression")
    p.add_argument("b", help="same expression, Dih(G), or Perm[...]")

    for name in ("witness-thm31", "witness-prop33", "harness-4-10"):
        p = sub.add_parser(name, parents=[shared])
        p.add_argument("--n", type=int, required=True,
                       help="odd parameter >= 3")

    p = sub.add_parser("census", parents=[shared],
                       help="run check-group over catalogued groups")
    p.add_argument("--orders", required=True, metavar="A..B",
                   help="inclusive order range, e.g. 4..18")
    p.add_argument("--cap", type=int,
                   help="bound on minimal generating connection sets "
                        "examined per group")

    p = sub.add_parser("script", parents=[shared],
                       help="run declarations and tasks from a file")
    p.add_argument("file")
    return top


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    return _execute(parser, args, shlex.join(argv), env={}, slug_prefix="")


def _execute(parser: _Parser, args, task_str: str, env: dict,
             slug_prefix: str) -> int:
    try:
        if args.emit != "json" and not args.out:
            raise _UsageError("--emit dot/both needs --out DIR")
        return _dispatch(parser, args, task_str, env, slug_prefix)
    except (_UsageError, SpecSyntaxError, SpecElabError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        if args.strict:
            print(f"cap: {exc}", file=sys.stderr)
            return 2
        v = engine.Verdict(engine.VerdictKind.UNKNOWN_CAP,
                           [engine.Check("cap", False, str(exc))])
        try:
            return _finish(args, task_str, slug_prefix, v)
        except ValueError as inner:
            print(f"error: {inner}", file=sys.stderr)
            return 1
    except (InternalInconsistencyError, PipelineError) as exc:
        print(f"internal: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, not bad input: no traceback, exit 3
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _dispatch(parser, args, task_str, env, slug_prefix) -> int:
    cmd = args.command
    if cmd == "script":
        return _cmd_script(parser, args)
    if cmd == "census":
        return _cmd_census(args, task_str, slug_prefix)
    if cmd == "check-graph":
        g = lang.elaborate(lang.parse_expr(args.group), env)
        conn = lang.elaborate_connection(lang.parse_connection(args.connection), g)
        v = engine.is_cca_graph(graphs.cayley_graph(g, conn))
    elif cmd == "check-group":
        g = lang.elaborate(lang.parse_expr(args.group), env)
        v = engine.is_cca_group(g, cap=args.cap)
    elif cmd == "pair":
        g = lang.elaborate(lang.parse_expr(args.g), env)
        ghat = groups.left_regular(g)
        b = _realize_pair_b(args, g, ghat, env)
        v = engine.is_complete_colour_pair(ghat, b)
    elif cmd == "witness-thm31":
        v = bipartite.cyclic_dihedral_witness(_knn_n(args.n, 2))
    elif cmd == "witness-prop33":
        v = bipartite.double_dihedral_witness(_knn_n(args.n, 4))
    elif cmd == "harness-4-10":
        actors = bipartite.knn_actors(_knn_n(args.n, 8))
        v = engine.arc_lift_harness(actors.graph, actors.g, actors.h,
                                    base_arc=actors.base_arc)
    else:  # pragma: no cover - argparse rejects unknown commands
        raise _UsageError(f"unknown command {cmd!r}")
    return _finish(args, task_str, slug_prefix, v)


def _knn_n(n: int, factor: int) -> int:
    """n, once odd, >= 3 and within the cap for the task's largest group."""
    if n < 3 or n % 2 == 0:
        raise _UsageError("--n must be odd and >= 3")
    groups.within_cap(factor * n * n)
    return n


def _realize_pair_b(args, g: groups.FiniteGroup, ghat: groups.FiniteGroup,
                    env: dict) -> groups.FiniteGroup:
    """Turn the B argument into a permutation group on G's element indices.

    Accepted forms: the same expression as G (gives the left-regular copy),
    Dih(G) for abelian G (left translations plus inversion), or explicit
    Perm[...] generators of degree |G|.
    """
    b_ast = lang.parse_expr(args.b)
    g_text = lang.print_expr(lang.parse_expr(args.g))
    if lang.print_expr(b_ast) == g_text:
        return ghat
    if isinstance(b_ast, lang.EDih) and lang.print_expr(b_ast.inner) == g_text:
        if not g.is_abelian():
            raise SpecElabError("Dih(G) as a point group needs abelian G")
        gens = [g.table[x] for x in groups.minimal_generating_sequence(g)]
        gens.append(tuple(g.inverse))
        return groups.closure(gens, name=f"Dih({g_text})")
    if isinstance(b_ast, lang.EPerms):
        return lang.elaborate(b_ast, env)
    raise SpecElabError(
        "B must be G's own expression, Dih(G), or Perm[...] acting on G's "
        f"{g.order} element indices")


def _task_slug(args) -> str:
    """File-name stem from the task identity alone, flags excluded."""
    parts = [args.command]
    for attr in ("group", "connection", "g", "b", "n", "orders", "file"):
        value = getattr(args, attr, None)
        if value is not None:
            parts.append(str(value))
    return rep.slugify(" ".join(parts))


def _finish(args, task_str: str, slug_prefix: str, v: engine.Verdict) -> int:
    rep.confirm_witness(v, note=args.verify)
    return _emit(args, task_str, slug_prefix, [v], v.context,
                 verdict=rep.verdict_payload(v))


def _emit(args, task_str: str, slug_prefix: str, results: list[engine.Verdict],
          context, **body) -> int:
    """Write the --out files, print the report on ``results``, and pick the
    exit code: 2 under --strict when a cap blocked any of the results.  A
    DOT request without a graph or a failed --out write prints nothing."""
    draw = args.emit != "json"
    if draw and not isinstance(context, graphs.CayleyColouredGraph):
        raise ValueError("this task produced no graph to draw")
    stats = engine.SearchStats()
    for v in results:
        stats.add(v.stats)
    text = rep.to_json(rep.build_report(task_str, stats, args.seedless,
                                        **body))
    if args.out:
        slug = slug_prefix + _task_slug(args)
        dot_text = rep.render_dot(context.graph, slug) if draw else None
        rep.write_outputs(args.out, slug, text, dot_text, args.emit)
    sys.stdout.write(text)
    capped = any(v.kind is engine.VerdictKind.UNKNOWN_CAP for v in results)
    return 2 if capped and args.strict else 0


# ---- census ---------------------------------------------------------------

def _parse_orders(spec: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit():
        raise _UsageError("--orders wants A..B with integers A <= B")
    a, b = int(lo), int(hi)
    if a < 1 or b < a:
        raise _UsageError("--orders wants 1 <= A <= B")
    return a, b


def _census_catalog(a: int, b: int) -> list[tuple[str, int]]:
    """Constructible families with an instance of each order in [a, b].

    Cyclic groups at every order; dihedral, dicyclic, and Q8 x C2^j groups
    at the even orders they exist at; the two direct-product families the
    witness pipelines use, when 2n^2 or 4n^2 lands in range.
    """
    rows: list[tuple[str, int]] = []
    for m in range(a, b + 1):
        rows.append((f"C({m})", m))
        if m >= 6 and m % 2 == 0:
            rows.append((f"D({m // 2})", m))
        if m >= 8 and m % 4 == 0:
            rows.append((f"Dic(C({m // 2}), r^{m // 4})", m))
        j = 0
        q = m
        while q % 2 == 0:
            q //= 2
            j += 1
        if q == 1 and m >= 8:  # m = 2^(j), j >= 3: Q8 x C2^(j-3)
            rows.append(("Q8" + " x C(2)" * (j - 3), m))
    n = 1
    while 2 * n * n <= b:
        if n >= 3 and n % 2 == 1:
            if a <= 2 * n * n:
                rows.append((f"C({n}) x D({n})", 2 * n * n))
            if a <= 4 * n * n <= b:
                rows.append((f"D({n}) x D({n})", 4 * n * n))
        n += 1
    return sorted(rows, key=lambda r: (r[1], r[0]))


def _cmd_census(args, task_str: str, slug_prefix: str) -> int:
    a, b = _parse_orders(args.orders)
    if args.emit in ("dot", "both"):
        raise _UsageError("census has no single graph to draw; use --emit json")
    results, rows = [], []
    for label, order in _census_catalog(a, b):
        try:
            g = lang.elaborate(lang.parse_expr(label), {})
            v = engine.is_cca_group(g, cap=args.cap)
        except CapExceededError as exc:
            v = engine.Verdict(engine.VerdictKind.UNKNOWN_CAP,
                               [engine.Check("cap", False, str(exc))])
        rep.confirm_witness(v, note=args.verify)
        results.append(v)
        rows.append(rep.census_row(label, order, v))
    return _emit(args, task_str, slug_prefix, results, None, verdicts=rows)


# ---- script files ---------------------------------------------------------

def _cmd_script(parser: _Parser, args) -> int:
    text = Path(args.file).read_text()
    prog = lang.parse_program(text)
    env: dict[str, groups.FiniteGroup] = {}
    for name, expr in prog.declarations:
        env[name] = lang.elaborate(expr, env)
    for k, task in enumerate(prog.tasks, start=1):
        argv = list(task.argv) + _inherited_flags(args, task.argv)
        try:
            sub_args = parser.parse_args(argv)
        except _UsageError as exc:
            print(f"error: line {task.line}: {exc}", file=sys.stderr)
            return 1
        if sub_args.command == "script":
            print(f"error: line {task.line}: nested script", file=sys.stderr)
            return 1
        code = _execute(parser, sub_args, shlex.join(argv), env,
                        slug_prefix=f"{k:02d}-")
        if code != 0:
            return code
    return 0


def _inherited_flags(args, task_argv: tuple[str, ...]) -> list[str]:
    """Script-level flags apply to tasks that do not set their own."""
    extra = []
    for flag in ("--verify", "--seedless", "--strict"):
        if getattr(args, flag.lstrip("-")) and flag not in task_argv:
            extra.append(flag)
    if args.out and "--out" not in task_argv:
        extra.extend(["--out", args.out])
    if args.emit != "json" and "--emit" not in task_argv:
        extra.extend(["--emit", args.emit])
    return extra


if __name__ == "__main__":
    raise SystemExit(main())
