"""End-to-end benchmark for rainbowconn: colored instances and pair verdicts.

Usage (from the repository root):

    python3 perfbench/run.py --workload thm1_n1e5 --seed 1 --seconds 30 --trace 0

One process runs one workload, single-threaded, calling the public functions
of ``graphs``, ``coloring``, ``verify`` and ``pairing`` directly.  A run
repeats whole rounds until ``--seconds`` is used up (at least three rounds).
A round is one complete job: set up the workload's instances from fixed
seeds (generation, structural probes, coloring) and then answer a fixed
number of pair queries drawn from ``--seed`` and the round index.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the package functions are wrapped with timers and counters and
the last line reports the per-layer metrics instead.  After the timed
rounds, every output is checked by ``checks.py``, which does not import the
package.  The full record of a run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# one thread: numpy's BLAS pools must not start before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
BUDGET = 10 ** 6

# thm1_n1e5: gate 5's instance (seed 0 is connected), pairs per round
THM1_N = 100_000
THM1_PAIRS = 20
# regular_n2000: gate 4's instances and coloring seed, pairs per r per round
REGULAR_N = 2000
REGULAR_R = (3, 4, 5)
REGULAR_PAIRS = 150


class Tracer:
    """Times and counts calls into wrapped package functions, per phase.

    Inclusive time, self time (minus wrapped callees) and call counts are
    kept under (phase, name).  ``patch`` replaces a module or class
    attribute, so only calls that look the name up at call time are seen.
    """

    def __init__(self):
        self.phase = "setup"
        self.time: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self._child: list[float] = []

    @contextlib.contextmanager
    def span(self, name: str):
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            child = self._child.pop()
            key = (self.phase, name)
            self.time[key] += dt
            self.self_time[key] += dt - child
            self.calls[key] += 1
            if self._child:
                self._child[-1] += dt

    def patch(self, owner, attr: str, name: str) -> None:
        inner = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(owner, attr, wrapped)

    def total(self, name: str, phase=None) -> float:
        return sum(v for (p, n), v in self.time.items() if n == name and phase in (None, p))

    def count(self, name: str, phase=None) -> int:
        return sum(v for (p, n), v in self.calls.items() if n == name and phase in (None, p))


class Run:
    """Accounting, check records and timings of one benchmark run."""

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        self.rounds: list[dict] = []
        self.instances: dict[int, dict] = {}   # fingerprint -> arrays for the checks
        self.fingerprints: dict[str, set] = defaultdict(set)
        self.witnesses: list[tuple] = []
        self.attempted = self.failed = self.skipped = 0
        self.tree_tried = self.tree_hits = self.attempts = 0
        self.probe_s = 0.0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def phase(self, name: str) -> None:
        if self.tracer:
            self.tracer.phase = name

    def probes(self, graphs, g) -> bool:
        """connected, degree_stats and the double-sweep diameter, as experiment runs them."""
        csr_before = self.tracer.total("graphs.csr") if self.tracer else 0.0
        t0 = time.perf_counter()
        with self.span("graphs.probes"):
            graphs.degree_stats(g)
            graphs.diameter(g, mode="double_sweep")
            ok = graphs.connected(g)
        if self.tracer:
            self.probe_s += time.perf_counter() - t0 - (self.tracer.total("graphs.csr") - csr_before)
        return ok

    def rebuild_graph(self, graphs, g) -> None:
        """Traced runs time Graph construction alone by rebuilding from the edges."""
        if self.tracer:
            phase, self.tracer.phase = self.tracer.phase, "extra"
            with self.span("graphs.Graph"):
                graphs.Graph(g.n, g.edges)
            self.tracer.phase = phase

    def record(self, key: str, check: dict, g, colors) -> int:
        """Keep compact copies of each distinct instance for the checks (untimed).

        Every round rebuilds the same instances from the same seeds, so a
        fingerprint per round is enough to tie its witnesses to one copy.
        """
        digest = hash((g.n, g.edges, tuple(colors)))
        self.fingerprints[key].add(digest)
        if digest not in self.instances:
            self.instances[digest] = dict(check, key=key, n=g.n, edges=checks.edge_array(g.edges),
                                          colors=np.asarray(colors, dtype=np.int64))
        return digest

    def answer(self, digest: int, u: int, v: int, w) -> None:
        self.attempted += 1
        if w is None:
            self.failed += 1
        else:
            self.witnesses.append((digest, u, v, w.vertices, w.edge_ids, w.color_set))


def sample_pairs(n: int, count: int, rng) -> list[tuple[int, int]]:
    """Distinct unordered pairs, drawn as gate 5 draws them, in sorted order."""
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    return sorted(chosen)


# ----------------------------------------------------------------------------
# workloads: one round each; returns (setup seconds, query seconds, pairs)
# ----------------------------------------------------------------------------

def round_thm1_n1e5(run: Run, index: int, pkg) -> tuple[float, float, int]:
    graphs, coloring, verify, rng = pkg.graphs, pkg.coloring, pkg.verify, pkg.rng
    n = THM1_N
    run.phase("setup")
    t0 = time.perf_counter()
    g = graphs.gen_gnp(graphs.GenParams(n=n, omega=math.log(math.log(n)), seed=0))
    if not run.probes(graphs, g):
        # color_threshold refuses disconnected graphs; experiment skips them
        run.skipped += 1
        return time.perf_counter() - t0, 0.0, 0
    c = coloring.color_threshold(g, coloring.threshold_params(n), seed=rng.derive_seed(0, "color"))
    setup = time.perf_counter() - t0
    run.rebuild_graph(graphs, g)
    digest = run.record("thm1_n1e5", {"kind": "gnp", "connected": True,
                                      "palette": c.palette_size}, g, c.colors)
    pairs = sample_pairs(n, THM1_PAIRS, rng.stream(run.seed, f"thm1_n1e5:{index}"))
    run.phase("query")
    t1 = time.perf_counter()
    found = [verify.rainbow_path_search(g, c, u, v, budget=BUDGET,
                                        seed=rng.derive_seed(run.seed, f"{u}:{v}"))
             for u, v in pairs]
    query = time.perf_counter() - t1
    for (u, v), w in zip(pairs, found):
        run.answer(digest, u, v, w)
    return setup, query, len(pairs)


def round_regular_n2000(run: Run, index: int, pkg) -> tuple[float, float, int]:
    graphs, coloring, verify, pairing, rng = (pkg.graphs, pkg.coloring, pkg.verify,
                                              pkg.pairing, pkg.rng)
    n = REGULAR_N
    run.phase("setup")
    built = []
    setup = 0.0
    for r in REGULAR_R:
        t0 = time.perf_counter()
        g = graphs.gen_regular_config(graphs.GenParams(n=n, r=r, seed=0))
        connected = run.probes(graphs, g)
        rp = coloring.regular_params(n, r)
        base = coloring.color_greedy_power(g, radius=2 * rp.k, q=rp.q, seed=1)
        c = coloring.recolor_cycle_classes(g, base, rp.k)[0] if r == 3 else base
        setup += time.perf_counter() - t0
        run.attempts += g.meta["attempts"]
        run.rebuild_graph(graphs, g)
        digest = run.record(f"r{r}", {"kind": "regular", "connected": connected,
                                      "r": r, "radius": 2 * rp.k,
                                      "q": rp.q, "palette": c.palette_size,
                                      "greedy": base.colors}, g, c.colors)
        if connected:
            built.append((r, rp, g, c, digest))
        else:
            run.skipped += 1
    run.phase("query")
    query = 0.0
    total = 0
    for r, rp, g, c, digest in built:
        pairs = sample_pairs(n, REGULAR_PAIRS, rng.stream(run.seed, f"regular:{r}:{index}"))
        d = r - 2
        t1 = time.perf_counter()
        found = []
        for u, v in pairs:
            w = None
            if d >= 2:
                w = pairing.witness_via_trees(g, c, u, v, k=rp.k, gamma=rp.gamma, d=d)
                run.tree_tried += 1
                run.tree_hits += w is not None
            if w is None:
                w = verify.rainbow_path_search(g, c, u, v, budget=BUDGET,
                                               seed=rng.derive_seed(run.seed, f"pair:{r}:{u}:{v}"))
            found.append(w)
        query += time.perf_counter() - t1
        for (u, v), w in zip(pairs, found):
            run.answer(digest, u, v, w)
        total += len(pairs)
    return setup, query, total


WORKLOADS = {
    "thm1_n1e5": round_thm1_n1e5,
    "regular_n2000": round_regular_n2000,
}


# ----------------------------------------------------------------------------
# checks (after the timed rounds)
# ----------------------------------------------------------------------------

def check_run(run: Run) -> list[str]:
    problems = []
    for key, digests in sorted(run.fingerprints.items()):
        if len(digests) != 1:
            problems.append(f"{key}: the same seeds gave {len(digests)} different instances")
    lists = {}
    for digest, inst in run.instances.items():
        key, n, edges, colors = inst["key"], inst["n"], inst["edges"], inst["colors"]
        found = checks.connectivity_problems(n, edges, inst["connected"])
        if inst["kind"] == "gnp":
            found += checks.gnp_problems(n, math.log(math.log(n)), edges)
            found += checks.threshold_problems(n, edges, colors, inst["palette"])
        else:
            greedy = np.asarray(inst["greedy"], dtype=np.int64)
            found += checks.regular_problems(n, inst["r"], edges)
            found += checks.power_coloring_problems(n, edges, greedy, inst["radius"])
            found += checks.recolor_problems(greedy, colors, inst["q"], inst["palette"])
        problems += [f"{key}: {p}" for p in found]
        indptr, nbr = checks.adjacency(n, edges)
        lists[digest] = (indptr.tolist(), nbr.tolist())
    for digest, u, v, verts, eids, color_set in run.witnesses:
        inst = run.instances[digest]
        problems += [f"{inst['key']}: {p}" for p in checks.witness_problems(
            inst["edges"], inst["colors"], *lists[digest], u, v, verts, eids, color_set)]
    if run.attempted != run.failed + len(run.witnesses):
        problems.append("pair accounting does not add up")
    return problems


# ----------------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------------

def end_to_end(rounds: list[dict], peak_mb: float) -> dict:
    """Round medians for the times; throughput over all query phases of the run."""
    pairs = sum(r["pairs"] for r in rounds)
    query = sum(r["query_s"] for r in rounds)
    return {
        "setup_s": {"value": statistics.median(r["setup_s"] for r in rounds), "unit": "s"},
        "pairs_per_s": {"value": pairs / query, "unit": "pairs/s"},
        "total_s": {"value": statistics.median(r["setup_s"] + r["query_s"] for r in rounds),
                    "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def per_layer(run: Run) -> dict:
    """Per-round means of layer times and counts, and whole-run ratios."""
    tr, k = run.tracer, len(run.rounds)

    def per_round(value, unit):
        return {"value": value / k, "unit": unit}

    found = run.attempted - run.failed
    rps = tr.total("verify.rainbow_path_search")
    rps_self = sum(v for (p, n), v in tr.self_time.items() if n == "verify.rainbow_path_search")
    return {
        "graphs.gen_gnp.s": per_round(tr.total("graphs.gen_gnp"), "s"),
        "graphs.Graph.s": per_round(tr.total("graphs.Graph"), "s"),
        "graphs.gen_regular_config.s": per_round(tr.total("graphs.gen_regular_config"), "s"),
        "graphs.gen_regular_config.attempts": per_round(run.attempts, "count"),
        "graphs.csr.s": per_round(tr.total("graphs.csr"), "s"),
        "graphs.bfs_distances.s": per_round(tr.total("graphs.bfs_distances", "query"), "s"),
        "graphs.bfs_distances.calls": per_round(tr.count("graphs.bfs_distances", "query"), "count"),
        "graphs.bfs_per_pair": {"value": tr.count("graphs.bfs_distances", "query") / run.attempted,
                                "unit": "calls/pair"},
        "graphs.probes.s": per_round(run.probe_s, "s"),
        "coloring.color_threshold.s": per_round(tr.total("coloring.color_threshold"), "s"),
        "coloring.color_greedy_power.s": per_round(tr.total("coloring.color_greedy_power"), "s"),
        "coloring.recolor_cycle_classes.s": per_round(tr.total("coloring.recolor_cycle_classes"), "s"),
        "verify.rainbow_path_search.s": per_round(rps, "s"),
        "verify.rainbow_path_search.calls": per_round(tr.count("verify.rainbow_path_search"), "count"),
        "verify.search_dfs.s": per_round(rps_self, "s"),
        "verify.found_ratio": {"value": found / run.attempted, "unit": "found/attempted"},
        "pairing.witness_via_trees.s": per_round(tr.total("pairing.witness_via_trees"), "s"),
        "pairing.build_witness_paths.s": per_round(tr.total("pairing.build_witness_paths"), "s"),
        "pairing.rainbow_witness.s": per_round(tr.total("pairing.rainbow_witness"), "s"),
        "pairing.tree_hit_ratio": {"value": run.tree_hits / run.tree_tried if run.tree_tried else 0.0,
                                   "unit": "trees/tried"},
    }


def install_tracer(pkg) -> Tracer:
    tr = Tracer()
    graphs, coloring, verify, pairing = pkg.graphs, pkg.coloring, pkg.verify, pkg.pairing
    for owner, attr, name in (
        (graphs, "gen_gnp", "graphs.gen_gnp"),
        (graphs, "gen_regular_config", "graphs.gen_regular_config"),
        (graphs.Graph, "csr", "graphs.csr"),
        (graphs, "bfs_distances", "graphs.bfs_distances"),
        (verify, "bfs_distances", "graphs.bfs_distances"),
        (pairing, "bfs_distances", "graphs.bfs_distances"),
        (coloring, "color_threshold", "coloring.color_threshold"),
        (coloring, "color_greedy_power", "coloring.color_greedy_power"),
        (coloring, "recolor_cycle_classes", "coloring.recolor_cycle_classes"),
        (verify, "rainbow_path_search", "verify.rainbow_path_search"),
        (pairing, "witness_via_trees", "pairing.witness_via_trees"),
        (pairing, "build_witness_paths", "pairing.build_witness_paths"),
        (pairing, "rainbow_witness", "pairing.rainbow_witness"),
    ):
        tr.patch(owner, attr, name)
    return tr


def load_package():
    """Import rainbowconn from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rainbowconn" / "__init__.py").is_file():
        raise SystemExit(f"error: no rainbowconn package under {src}")
    sys.path.insert(0, str(src))
    import rainbowconn
    from rainbowconn import coloring, graphs, pairing, rng, verify

    if Path(rainbowconn.__file__).resolve().parent != (src / "rainbowconn").resolve():
        raise SystemExit(f"error: imported rainbowconn from {rainbowconn.__file__}")
    return argparse.Namespace(graphs=graphs, coloring=coloring, verify=verify,
                              pairing=pairing, rng=rng)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pkg = load_package()
    run = Run(args.seed, install_tracer(pkg) if args.trace else None)
    body = WORKLOADS[args.workload]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup, query, pairs = body(run, len(run.rounds), pkg)
        run.rounds.append({"setup_s": setup, "query_s": query, "pairs": pairs,
                           "wall_s": time.perf_counter() - t0})
        # start another round only if it should end within half a round of
        # the deadline, so runs last about --seconds whatever the round length
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in run.rounds)
        if len(run.rounds) >= MIN_ROUNDS and elapsed + typical / 2 > args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = time.perf_counter() - start

    t0 = time.perf_counter()
    problems = check_run(run)
    check_s = time.perf_counter() - t0

    e2e = end_to_end(run.rounds, peak_mb)
    layers = per_layer(run) if args.trace else None
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__, "platform": platform.platform()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "rounds": run.rounds,
        "measured_s": measured, "check_s": check_s,
        "pairs_attempted": run.attempted, "pairs_without_witness": run.failed,
        "skipped_disconnected": run.skipped, "end_to_end": e2e,
        "per_layer": layers, "problems": problems,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"machine: nproc={machine['nproc']} python={machine['python']} numpy={machine['numpy']}")
    print(f"{args.workload}: rounds={len(run.rounds)} pairs_attempted={run.attempted} "
          f"pairs_without_witness={run.failed} skipped_disconnected={run.skipped} "
          f"total_s={e2e['total_s']['value']:.4f} checks={check_s:.1f}s")
    for p in problems[:50]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": layers or e2e}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
