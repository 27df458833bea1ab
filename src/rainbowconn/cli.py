"""Command-line front end.

Subcommands map one-to-one onto library operations and exchange data
through the text formats defined by the library (edge lists, coloring
files, experiment CSV).  Every command that draws randomness takes --seed;
when absent, the RAINBOW_SEED environment variable and then 0 fill in.
Identical invocations with identical seeds write byte-identical outputs.

Exit codes: 0 success, 1 domain error or failed check (message on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .coloring import (color_greedy_power, color_threshold, read_coloring,
                       recolor_cycle_classes, threshold_params, write_coloring)
from .errors import RainbowError
from .experiment import config_field_types, config_from_mapping, load_config, run_experiment
from .graphs import (GenParams, check_vertices, connected, degree_stats, diameter,
                     gen_gnp, gen_regular_config, read_edge_list, write_edge_list)
from .pairing import (build_tree_pair_graph, build_witness_paths, bundle_text,
                      pair_tree_paths, random_rainbow_tree_coloring, rainbow_witness)
from .verify import (brute_force_rc, rainbow_path_exact, rainbow_path_search,
                     report_text, verify_all_pairs, verify_sampled, witness_lines)

__all__ = ["main", "build_parser"]


def _env_seed() -> int:
    raw = os.environ.get("RAINBOW_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"RAINBOW_SEED must be an integer, got {raw!r}")


def _seed(args) -> int:
    return args.seed if args.seed is not None else _env_seed()


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rainbowconn",
                                  description="rainbow connectivity toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate random graphs")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    gnp = gen_sub.add_parser("gnp", help="binomial G(n, p)")
    gnp.add_argument("--n", type=int, required=True)
    group = gnp.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float)
    group.add_argument("--omega", type=float,
                       help="use p = (log n + omega)/n")
    gnp.add_argument("--seed", type=int, default=None)
    gnp.add_argument("--out", required=True)

    reg = gen_sub.add_parser("regular", help="random r-regular (configuration model)")
    reg.add_argument("--n", type=int, required=True)
    reg.add_argument("--r", type=int, required=True)
    reg.add_argument("--seed", type=int, default=None)
    reg.add_argument("--max-attempts", type=int, default=10000)
    reg.add_argument("--out", required=True)

    stats = sub.add_parser("stats", help="degree/diameter summary of a graph file")
    stats.add_argument("--in", dest="infile", required=True)
    stats.add_argument("--diameter-mode", choices=("auto", "exact", "double_sweep"),
                       default="auto")

    color = sub.add_parser("color", help="edge colorings")
    color_sub = color.add_subparsers(dest="scheme", required=True)

    thm1 = color_sub.add_parser("thm1", help="threshold-density coloring")
    thm1.add_argument("--in", dest="infile", required=True)
    thm1.add_argument("--epsilon", type=float, default=None)
    thm1.add_argument("--seed", type=int, default=None)
    thm1.add_argument("--out", required=True)

    greedy = color_sub.add_parser("greedy", help="proper coloring of the line-graph power")
    greedy.add_argument("--in", dest="infile", required=True)
    greedy.add_argument("--radius", type=int, required=True)
    greedy.add_argument("--q", type=int, required=True, help="palette size")
    greedy.add_argument("--seed", type=int, default=None)
    greedy.add_argument("--out", required=True)

    recolor = sub.add_parser("recolor", help="rewrite colorings")
    recolor_sub = recolor.add_subparsers(dest="what", required=True)
    cyc = recolor_sub.add_parser("cycles", help="positional recoloring of cycle classes")
    cyc.add_argument("--in", dest="infile", required=True)
    cyc.add_argument("--coloring", required=True)
    cyc.add_argument("--k", type=int, required=True, help="neighborhood depth")
    cyc.add_argument("--out", required=True)

    verify = sub.add_parser("verify", help="check rainbow connectivity of a coloring")
    verify.add_argument("mode", choices=("exact", "search", "sample"))
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--coloring", required=True)
    verify.add_argument("--x", type=int, default=None, help="single-pair endpoint")
    verify.add_argument("--y", type=int, default=None)
    verify.add_argument("--pairs", type=int, default=50,
                        help="sample size (sample mode)")
    verify.add_argument("--budget", type=int, default=10 ** 6)
    verify.add_argument("--max-len", type=int, default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--witnesses", action="store_true",
                        help="print one witness path per connected pair")
    verify.add_argument("--timing", action="store_true",
                        help="include elapsed seconds (breaks byte identity)")

    rc = sub.add_parser("rc", help="rainbow connection number")
    rc_sub = rc.add_subparsers(dest="method", required=True)
    brute = rc_sub.add_parser("brute", help="exact rc by exhaustive coloring search")
    brute.add_argument("--in", dest="infile", required=True)
    brute.add_argument("--q-max", type=int, default=None)
    brute.add_argument("--witness-out", default=None,
                       help="write an optimal coloring here")

    pair = sub.add_parser("pair", help="matched path pairing on rainbow trees")
    pair_sub = pair.add_subparsers(dest="rule", required=True)
    lemcol = pair_sub.add_parser("lemcol", help="pair synthetic rainbow d-ary trees")
    lemcol.add_argument("--d", type=int, required=True,
                        help="arity (for 2 the floor 2^(ell//2) is a checked claim)")
    lemcol.add_argument("--ell", type=int, required=True, help="depth")
    lemcol.add_argument("--palette", type=int, default=None)
    lemcol.add_argument("--seed", type=int, default=None)

    wit = sub.add_parser("witness", help="tree-scaffold rainbow path between two vertices")
    wit.add_argument("--in", dest="infile", required=True)
    wit.add_argument("--coloring", required=True)
    wit.add_argument("--x", type=int, required=True)
    wit.add_argument("--y", type=int, required=True)
    wit.add_argument("--k", type=int, required=True, help="scaffold tree depth")
    wit.add_argument("--gamma", type=int, required=True, help="hanging tree depth")
    wit.add_argument("--d", type=int, required=True, help="scaffold arity")

    exp = sub.add_parser("experiment", help="seeded sweep writing CSV")
    exp.add_argument("--config", default=None, help="key=value file; flags override")
    # one flag per config key, the key as its dest: a bool is a bare switch,
    # and the n values stay text for the config parser to split
    for key, want in config_field_types().items():
        flag = "--" + key.replace("_", "-")
        if want is bool:
            exp.add_argument(flag, action="store_true", default=None)
        elif key == "n_values":
            exp.add_argument(flag, default=None, help="comma-separated")
        else:
            exp.add_argument(flag, type=want, default=None)

    return top


# ----------------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.generator == "gnp":
        g = gen_gnp(GenParams(n=args.n, p=args.p, omega=args.omega, seed=_seed(args)))
        extra = f" p={g.meta['p']:.6g}" + (" (clamped)" if g.meta.get("p_clamped") else "")
    else:
        g = gen_regular_config(GenParams(n=args.n, p=None, omega=None, r=args.r,
                                         seed=_seed(args), max_attempts=args.max_attempts))
        extra = f" attempts={g.meta['attempts']}"
    write_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}{extra}")
    return 0


def _cmd_stats(args) -> int:
    g = read_edge_list(args.infile)
    st = degree_stats(g)
    mode = args.diameter_mode
    if mode == "auto":
        mode = "exact" if g.n <= 4096 else "double_sweep"
    dia = diameter(g, mode=mode)
    print(f"n={g.n}")
    print(f"m={g.m}")
    print(f"connected={str(connected(g)).lower()}")
    print(f"z1={st.z1}")
    print(f"small_vertices={len(st.small_vertices)}")
    print(f"small_threshold={st.small_threshold:.6g}")
    print(f"diameter={'NA' if dia is None else dia}")
    print(f"diameter_mode={mode}")
    return 0


def _cmd_color(args) -> int:
    g = read_edge_list(args.infile)
    if args.scheme == "thm1":
        tp = threshold_params(g.n, args.epsilon)
        c = color_threshold(g, tp, seed=_seed(args))
        note = f"Q={c.palette_size} q={tp.q} base={c.palette_size - 2}"
    else:
        c = color_greedy_power(g, radius=args.radius, q=args.q, seed=_seed(args))
        note = f"Q={c.palette_size} used={len(c.used_colors())}"
    write_coloring(c, args.out)
    flags = (" flags=" + ";".join(c.flags)) if c.flags else ""
    print(f"wrote {args.out}: {note}{flags}")
    return 0


def _cmd_recolor(args) -> int:
    g, base = _load_colored(args)
    rec, classes = recolor_cycle_classes(g, base, args.k)
    write_coloring(rec, args.out)
    print(f"wrote {args.out}: Q={rec.palette_size} classes={len(classes)} "
          f"fresh={rec.palette_size - base.palette_size}")
    for cls in classes:
        print(f"class len={cls.cycle_length} roots={len(cls.member_roots)} "
              f"palette=[{cls.fresh_palette[0]},{cls.fresh_palette[1]})")
    if rec.flags:
        print("flags=" + ";".join(rec.flags))
    return 0


def _load_colored(args):
    """Graph and coloring files of one command, checked against each other."""
    g = read_edge_list(args.infile)
    c = read_coloring(args.coloring)
    if c.m != g.m:
        raise ValueError(f"{args.coloring} colors {c.m} edges but {args.infile} has {g.m}")
    return g, c


def _print_path(c, w) -> None:
    print("  vertices " + ">".join(map(str, w.vertices)))
    print("  colors   " + ",".join(str(c.colors[e]) for e in w.edge_ids))


def _cmd_verify(args) -> int:
    if args.budget < 0:
        # the exact verifier takes no budget, so nothing below would refuse it
        raise ValueError(f"budget {args.budget} is negative")
    g, c = _load_colored(args)
    if (args.x is None) != (args.y is None):
        raise ValueError("give both --x and --y or neither")
    if args.x is not None:
        check_vertices(g, ("--x", args.x), ("--y", args.y))
        if args.mode == "sample":
            raise ValueError("sample mode draws its own pairs; drop --x/--y")
        if args.mode == "exact":
            w = rainbow_path_exact(g, c, args.x, args.y, max_len=args.max_len)
        else:
            w = rainbow_path_search(g, c, args.x, args.y, max_len=args.max_len,
                                    budget=args.budget, seed=_seed(args))
        if w is None:  # say what the None proves: a search is cut by its budget
            why = (f" found within budget {args.budget}" if args.mode == "search" else
                   "" if args.max_len is None else f" of at most {args.max_len} edges")
            print(f"pair ({args.x},{args.y}): no rainbow path{why}")
            return 1
        print(f"pair ({args.x},{args.y}): rainbow path length {w.length}")
        _print_path(c, w)
        return 0
    if args.mode == "sample":
        rep = verify_sampled(g, c, args.pairs, seed=_seed(args), max_len=args.max_len,
                             budget=args.budget, keep_witnesses=args.witnesses)
    else:
        rep = verify_all_pairs(g, c, mode=args.mode, max_len=args.max_len,
                               budget=args.budget, seed=_seed(args),
                               keep_witnesses=args.witnesses)
    print(report_text(rep, include_timing=args.timing))
    for line in witness_lines(rep):
        print(line)
    return 0 if rep.pairs_connected == rep.pairs_checked else 1


def _cmd_rc(args) -> int:
    g = read_edge_list(args.infile)
    res = brute_force_rc(g, q_max=args.q_max)
    if res is None:
        print("unresolved within the palette cap", file=sys.stderr)
        return 1
    value, witness = res
    print(value)
    if args.witness_out:
        write_coloring(witness, args.witness_out)
    return 0


def _cmd_pair(args) -> int:
    if args.d < 2 or args.ell < 1:
        # pairing reads d off the trees, and a depth-0 tree has arity 0
        raise ValueError("pair lemcol needs --d >= 2 and --ell >= 1")
    g, t1, t2 = build_tree_pair_graph(args.d, args.ell)
    per_tree = g.m // 2
    palette = args.palette if args.palette is not None else 2 * per_tree
    c = random_rainbow_tree_coloring(g, t1, t2, palette=palette, seed=_seed(args))
    res = pair_tree_paths(t1, t2, c)
    print(f"d={args.d} ell={args.ell} palette={palette} pairs={len(res.pairs)} floor={res.floor}")
    for i, (p1, p2) in enumerate(res.pairs):
        cols = [c.colors[e] for e in p1.edge_ids] + [c.colors[e] for e in p2.edge_ids]
        print(f"pair {i}: left={'-'.join(map(str, p1.vertices))} "
              f"right={'-'.join(map(str, p2.vertices))} "
              f"colors={','.join(map(str, cols))}")
    return 0


def _cmd_witness(args) -> int:
    g, c = _load_colored(args)
    check_vertices(g, ("--x", args.x), ("--y", args.y))
    bundle = build_witness_paths(g, args.x, args.y, k=args.k, gamma=args.gamma, d=args.d)
    print(bundle_text(bundle), end="")
    w = rainbow_witness(g, c, args.x, args.y, bundle)
    if w is None:
        print("no rainbow witness from this bundle")
        return 1
    print(f"witness length {w.length}")
    _print_path(c, w)
    return 0


def _cmd_experiment(args) -> int:
    mapping: dict[str, object] = {}
    if args.config:
        mapping.update(load_config(args.config))
    # each flag's dest is its config key, so a given flag overrides the file
    for key in config_field_types():
        val = getattr(args, key)
        if val is not None:
            mapping[key] = val
    if "seed" not in mapping:
        mapping["seed"] = _env_seed()
    records, summary = run_experiment(config_from_mapping(mapping))
    print(summary)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "gen": _cmd_gen,
        "stats": _cmd_stats,
        "color": _cmd_color,
        "recolor": _cmd_recolor,
        "verify": _cmd_verify,
        "rc": _cmd_rc,
        "pair": _cmd_pair,
        "witness": _cmd_witness,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (RainbowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
