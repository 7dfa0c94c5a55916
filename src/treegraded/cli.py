"""tglab: command-line lab for tree-graded space colorings.

Subcommands:
  validate FILE                     check the tree-graded axioms (exit 1 on violation)
  gen random / gen freeprod         write seeded generated spaces
  subdivide IN -k K -o OUT          refine every edge into k edges
  color SPACE --r R ...             write an assembled or baseline coloring
  measure SPACE COLORING --r R      magnitude report as JSON
  experiment CONFIG.json            sweep spaces x scales, write reports
  oracle geodesic-invariance ...    exhaustive geodesic independence check
  oracle min-magnitude ...          exact minimal magnitude on a tiny space

Exit codes: 0 success/pass, 1 semantic failure (axiom or bound violation),
2 input error. TG_SEED overrides seeds wherever they appear.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .assemble import color_space, combined_color
from .coloring import (
    CertificationError,
    ScaleSetup,
    StrategyPlan,
    build_piece_colorings,
    magnitude_report,
    natural_color_count,
)
from .experiment import (
    config_from_json,
    run_experiment,
    write_csv,
    write_report,
)
from .forge import ForgeSpec, PieceTemplate, gen_free_product_model, gen_random, subdivide_space
from .formats import FormatError, read_coloring, read_space, write_coloring, write_space
from .graph import ChainPredicate
from .oracles import geodesic_invariance, min_magnitude
from .space import Space

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

_VARIANT_ALIASES = {"cstar": "combined", "combined": "combined", "naive": "naive", "periodic": "periodic"}


def _env_seed(seed: int) -> int:
    raw = os.environ.get("TG_SEED")
    return int(raw) if raw is not None else seed


def _load_space(path: str) -> Space:
    try:
        return read_space(path)
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}")
    except OSError as exc:
        raise FormatError(str(exc))


def _setup_from_args(space: Space, args) -> tuple[ScaleSetup, StrategyPlan]:
    n = args.n if args.n is not None else natural_color_count(space)
    setup = ScaleSetup(
        r=args.r,
        n=n,
        color_period=getattr(args, "period", None),
        chain_mode=getattr(args, "chain", "strict"),
    )
    plan = StrategyPlan(
        band_width=getattr(args, "band_width", None),
        arc_width=getattr(args, "arc_width", None),
        brick_width=getattr(args, "brick_width", None),
    )
    return setup, plan


def cmd_validate(args) -> int:
    space = _load_space(args.space)
    report = space.validate()
    if report.ok:
        print(f"ok: {args.space} ({space.graph.vertex_count} vertices, {len(space.pieces)} pieces)")
        return EXIT_OK
    for v in report.violations:
        print(v.describe())
    return EXIT_FAIL


def _parse_weighted_template(text: str) -> tuple[PieceTemplate, int]:
    if "=" in text:
        tpl, weight = text.rsplit("=", 1)
        return PieceTemplate.parse(tpl), int(weight)
    return PieceTemplate.parse(text), 1


def cmd_gen_random(args) -> int:
    spec = ForgeSpec(
        templates=tuple(_parse_weighted_template(t) for t in args.template),
        piece_budget=args.pieces,
        max_tree_depth=args.max_depth,
        attach_spacing=args.spacing,
        branch_cap=args.branch_cap,
        seed=_env_seed(args.seed),
        subdivide=args.subdivide,
    )
    space = gen_random(spec)
    metadata = {"generator": "random", "spec": spec.describe()}
    write_space(space, args.out, metadata)
    print(f"wrote {args.out}: {space.graph.vertex_count} vertices, {len(space.pieces)} pieces")
    return EXIT_OK


def cmd_gen_freeprod(args) -> int:
    space = gen_free_product_model(
        left=PieceTemplate.parse(args.left),
        right=PieceTemplate.parse(args.right),
        depth=args.depth,
        attach_spacing=args.spacing,
        branch_cap=args.branch_cap,
        seed=_env_seed(args.seed),
    )
    metadata = {
        "generator": "freeprod",
        "left": args.left,
        "right": args.right,
        "depth": args.depth,
        "seed": _env_seed(args.seed),
    }
    write_space(space, args.out, metadata)
    print(f"wrote {args.out}: {space.graph.vertex_count} vertices, {len(space.pieces)} pieces")
    return EXIT_OK


def cmd_subdivide(args) -> int:
    space = _load_space(args.space)
    refined = subdivide_space(space, args.k)
    write_space(refined, args.out, {"generator": "subdivide", "k": args.k, "source": args.space})
    print(f"wrote {args.out}: {refined.graph.vertex_count} vertices")
    return EXIT_OK


def cmd_color(args) -> int:
    space = _load_space(args.space)
    report = space.validate()
    if not report.ok:
        for v in report.violations:
            print(v.describe(), file=sys.stderr)
        return EXIT_FAIL
    setup, plan = _setup_from_args(space, args)
    raw = None
    if args.piece_colors:
        file_colors = read_coloring(args.piece_colors)
        raw = {}
        for pid, piece in enumerate(space.pieces):
            missing = [v for v in piece if v not in file_colors]
            if missing:
                print(f"piece {pid}: vertices {missing[:4]} uncolored in {args.piece_colors}", file=sys.stderr)
                return EXIT_FAIL
            raw[pid] = {v: file_colors[v] for v in piece}
        if args.declared_magnitude is None:
            print("user colorings need --declared-magnitude", file=sys.stderr)
            return EXIT_INPUT
    try:
        colorings = build_piece_colorings(
            space, setup, plan, raw_colorings=raw, declared=args.declared_magnitude
        )
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    variant = _VARIANT_ALIASES[args.variant]
    coloring = color_space(space, setup, colorings, variant)
    if args.out:
        write_coloring(coloring.as_mapping(), args.out)
        print(
            f"wrote {args.out}: variant={args.variant} r={setup.r} n={setup.n} "
            f"piece_magnitude={setup.piece_magnitude} period={setup.color_period}"
        )
    if args.explain is not None:
        breakdown = combined_color(space, setup, colorings, args.explain)
        print(
            json.dumps(
                {
                    "vertex": breakdown.target,
                    "first_sum": breakdown.first_sum,
                    "floor_terms": [
                        {"beta": t.beta_index, "trunc_length": t.trunc_length, "value": t.value}
                        for t in breakdown.floor_terms
                    ],
                    "total": breakdown.total,
                    "assembled_color": coloring[args.explain],
                },
                indent=2,
                sort_keys=True,
            )
        )
    return EXIT_OK


def cmd_measure(args) -> int:
    space = _load_space(args.space)
    colors = read_coloring(args.coloring)
    for v in colors:
        space.graph.check_vertex(v)
    pred = ChainPredicate(args.chain, args.r)
    # a valid space keeps its pieces' tables as the metric; an invalid one is
    # measured on the one table of its whole graph
    space.validate()
    report = magnitude_report(space.graph, colors, pred)
    payload = report.to_dict()
    payload.update({"r": args.r, "chain": args.chain, "space": args.space})
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        config = config_from_json(data)
        if args.parallelism is not None:
            import dataclasses

            config = dataclasses.replace(config, parallelism=args.parallelism)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        print(f"bad experiment config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out = args.out or data.get("out")
    csv_out = args.csv or data.get("csv")
    report = run_experiment(config)
    if out:
        write_report(report, out)
        print(f"wrote {out}")
    if csv_out:
        write_csv(report, csv_out)
        print(f"wrote {csv_out}")
    summary = report["summary"]
    print(json.dumps(summary, indent=2, sort_keys=True))
    clean = summary["all_pass"] and not any(summary["check_violations"].values())
    return EXIT_OK if clean else EXIT_FAIL


def cmd_oracle_geodesic(args) -> int:
    space = _load_space(args.space)
    if space.graph.vertex_count > args.max_vertices:
        print(
            f"space too large for exhaustive geodesics "
            f"({space.graph.vertex_count} > {args.max_vertices})",
            file=sys.stderr,
        )
        return EXIT_INPUT
    setup, plan = _setup_from_args(space, args)
    colorings = build_piece_colorings(space, setup, plan)
    ok, witnesses = geodesic_invariance(space, setup, colorings, args.max_vertices)
    print(json.dumps({"invariant": ok, "witnesses": witnesses}, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_FAIL


def cmd_oracle_min_magnitude(args) -> int:
    space = _load_space(args.space)
    pred = ChainPredicate(args.chain, args.r)
    try:
        value = min_magnitude(space.graph, pred, args.n, max_vertices=args.max_vertices)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    print(value)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tglab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the tree-graded axioms of a space file")
    p.add_argument("space")
    p.set_defaults(func=cmd_validate)

    gen = sub.add_parser("gen", help="generate spaces")
    gsub = gen.add_subparsers(dest="generator", required=True)
    p = gsub.add_parser("random", help="random piece tree from weighted templates")
    p.add_argument("--template", action="append", required=True, metavar="KIND:SIZE[=W]",
                   help="e.g. path:12=3, cycle:8, grid:4x6, tree:3 (repeatable)")
    p.add_argument("--pieces", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--spacing", type=int, default=1)
    p.add_argument("--branch-cap", type=int, default=3)
    p.add_argument("--subdivide", type=int, default=1)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen_random)
    p = gsub.add_parser("freeprod", help="alternating coset-tree model of a free product")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--spacing", type=int, default=2)
    p.add_argument("--branch-cap", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen_freeprod)

    p = sub.add_parser("subdivide", help="replace every edge by a k-edge path")
    p.add_argument("space")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("color", help="color a space and optionally explain one vertex")
    p.add_argument("space")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="colors - 1 (default: from piece shapes)")
    p.add_argument("--variant", choices=sorted(_VARIANT_ALIASES), default="cstar")
    p.add_argument("--period", type=int, default=None, help="override the color period")
    p.add_argument("--band-width", type=int, default=None)
    p.add_argument("--arc-width", type=int, default=None)
    p.add_argument("--brick-width", type=int, default=None)
    p.add_argument("--piece-colors", default=None, help="tgcolor file with raw piece colors")
    p.add_argument("--declared-magnitude", type=int, default=None)
    p.add_argument("--explain", type=int, default=None, metavar="V")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("measure", help="magnitude report for a coloring file")
    p.add_argument("space")
    p.add_argument("coloring")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--chain", choices=("strict", "weak"), default="strict")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("experiment", help="run a sweep described by a JSON config")
    p.add_argument("config")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--parallelism", type=int, default=None)
    p.set_defaults(func=cmd_experiment)

    oracle = sub.add_parser("oracle", help="independent brute-force oracles")
    osub = oracle.add_subparsers(dest="oracle", required=True)
    p = osub.add_parser("geodesic-invariance", help="colors agree over every geodesic")
    p.add_argument("space")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--max-vertices", type=int, default=12)
    p.set_defaults(func=cmd_oracle_geodesic)
    p = osub.add_parser("min-magnitude", help="exact minimal magnitude (tiny spaces)")
    p.add_argument("space")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chain", choices=("strict", "weak"), default="strict")
    p.add_argument("--max-vertices", type=int, default=14)
    p.set_defaults(func=cmd_oracle_min_magnitude)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
