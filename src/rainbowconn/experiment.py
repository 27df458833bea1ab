"""Seeded experiment sweeps with crash-safe CSV emission.

A sweep is (mode, n values, trials); each (n, trial) cell generates a graph,
colors it, verifies sampled pairs, and appends one CSV row carrying every
derived parameter so runs are auditable without rerunning.  Rows flush as
they are written; a crashed sweep leaves a readable prefix.  Identical
configs produce byte-identical files: elapsed times are written as NA unless
timing is requested, and all floats go through fixed formats.

The two dataclasses are the schema.  The CSV columns are ``schema`` followed
by the fields of ``ExperimentRecord``, in order; the config keys, in files
and as ``experiment`` flags, are the fields of ``ExperimentConfig``.  Each
mode is a key of ``_TRIALS``, which maps it to its per-cell trial function,
and of ``_READS``, which names the keys it reads.

Modes
  thm1           G(n, p) at the connectivity threshold, pendant-first
                 coloring, sampled-pair search verification.
  regular        random r-regular via the configuration model, greedy
                 power coloring; r = 3 additionally rewrites cycle classes;
                 pairs try the tree-witness construction first (r >= 4) and
                 fall back to search, also on a GuaranteeViolation (flagged).
                 ``sigma`` is the paper's count ``RegularParams.sigma``; at
                 r = 5, n = 2000 (k = 2) it is 3 - 6, clamped to 1.
  brute          exact rc on small instances against ``rc_lower_bound``,
                 max(distinct pendant edges, diameter).
  lemcol_stress  matched path pairing on synthetic rainbow tree pairs,
                 counting pairs and guarantee violations.  ``sigma`` is the
                 floor the matching is checked against, ``pairing_floor(d,
                 ell)``: 4 for the d = 3, depth-2 trees of that r = 5 case.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_type_hints

from .coloring import (color_greedy_power, color_threshold, recolor_cycle_classes,
                       regular_params, threshold_params)
from .errors import GenerationExhausted, GuaranteeViolation, PaletteExhausted
from .graphs import (GenParams, Graph, check_gnp_params, check_regular_params, connected,
                     diameter, gen_gnp, gen_regular_config, pendant_edges, read_text_lines)
from .pairing import build_tree_pair_graph, pair_tree_paths, pairing_floor, \
    random_rainbow_tree_coloring, witness_via_trees
from .rng import derive_seed
from .verify import (VerifyReport, brute_force_rc, rainbow_path_search, rc_lower_bound,
                     sample_pairs, verify_pairs, verify_sampled)

__all__ = [
    "SCHEMA",
    "CSV_HEADER",
    "ExperimentConfig",
    "ExperimentRecord",
    "load_config",
    "config_from_mapping",
    "config_field_types",
    "run_experiment",
    "summarize",
]

SCHEMA = "rainbowconn-exp-1"


@dataclass
class ExperimentConfig:
    mode: str
    n_values: tuple[int, ...] = ()
    p: Optional[float] = None
    omega: Optional[float] = None
    r: Optional[int] = None
    d: Optional[int] = None
    ell: Optional[int] = None
    epsilon: Optional[float] = None
    trials: int = 1
    sampled_pairs: int = 50
    budget: int = 10 ** 6
    q_max: Optional[int] = None
    seed: int = 0
    out: str = "experiment.csv"
    timing: bool = False

    def validate(self) -> None:
        if self.mode not in _TRIALS:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {tuple(_TRIALS)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.budget < 0:
            raise ValueError(f"budget {self.budget} is negative")
        if self.q_max is not None and self.q_max < 0:
            raise ValueError(f"q_max {self.q_max} is negative")
        for f in fields(self):
            if (f.name in _MODE_KEYS and f.name not in _READS[self.mode]
                    and getattr(self, f.name) != f.default):
                raise ValueError(f"{self.mode} does not use {f.name}; drop it")
        if self.mode == "lemcol_stress":
            if self.d is None or self.ell is None:
                raise ValueError("lemcol_stress needs d and ell")
            if self.d < 2 or self.ell < 1:
                raise ValueError("lemcol_stress needs d >= 2 and ell >= 1")
            return
        if not self.n_values:
            raise ValueError(f"mode {self.mode} needs n values")
        if self.mode in ("thm1", "regular") and self.sampled_pairs < 1:
            raise ValueError("sampled_pairs must be >= 1")
        # each cell's generator and parameter checks, so a bad n fails before any row
        for n in self.n_values:
            if self.mode == "regular":
                check_regular_params(GenParams(n=n, r=self.r))
                regular_params(n, self.r, self.epsilon)
            else:
                check_gnp_params(GenParams(n=n, p=self.p, omega=self.omega))
                if self.mode == "thm1":
                    threshold_params(n, self.epsilon)


# fixed float formats keep reruns byte-identical; other columns print as str()
_FORMATS = {
    "p": ".6g", "omega": ".6g", "epsilon": ".6g", "L": ".6g", "p0": ".6g",
    "theta_r": ".6g", "success_rate": ".4f", "mean_witness_len": ".3f",
    "elapsed_s": ".3f",
}


@dataclass
class ExperimentRecord:
    """One CSV row: the fields, in order, are the columns after ``schema``."""

    mode: str
    trial: int
    seed: int
    n: Optional[int] = None
    m: Optional[int] = None
    p: Optional[float] = None
    omega: Optional[float] = None
    r: Optional[int] = None
    d: Optional[int] = None
    ell: Optional[int] = None
    epsilon: Optional[float] = None
    L: Optional[float] = None
    k: Optional[int] = None
    gamma: Optional[int] = None
    q: Optional[int] = None
    p0: Optional[float] = None
    theta_r: Optional[float] = None
    sigma: Optional[int] = None
    Q: Optional[int] = None
    z1: Optional[int] = None
    diameter: Optional[int] = None
    diameter_mode: Optional[str] = None
    rc: Optional[int] = None
    rc_lower_bound: Optional[int] = None
    pairs_tried: Optional[int] = None
    pairs_connected: Optional[int] = None
    success_rate: Optional[float] = None
    mean_witness_len: Optional[float] = None
    fresh_colors: Optional[int] = None
    cycle_classes: Optional[int] = None
    flags: list[str] = field(default_factory=list)
    elapsed_s: Optional[float] = None

    def row(self, include_timing: bool) -> list[str]:
        """The row's cells: NA for None, ``flags`` joined with ``;``, and
        ``elapsed_s`` only with ``include_timing``."""
        out = [SCHEMA]
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "flags":
                v = ";".join(v)
            elif f.name == "elapsed_s" and not include_timing:
                v = None
            elif v is not None and f.name in _FORMATS:
                v = format(v, _FORMATS[f.name])
            out.append("NA" if v is None else str(v))
        return out


CSV_HEADER = ("schema",) + tuple(f.name for f in fields(ExperimentRecord))


# ----------------------------------------------------------------------------
# config files: flat key=value, # comments, flags override
# ----------------------------------------------------------------------------

def load_config(path: Union[str, Path]) -> dict[str, str]:
    """Flat key=value lines; blank lines and ``#`` comments, whole-line or
    inline, are skipped.  A later assignment of a key wins."""
    out: dict[str, str] = {}
    for where, body in read_text_lines(path):
        if "=" not in body:
            raise ValueError(f"{where}: expected key=value, got {body!r}")
        key, _, val = body.partition("=")
        out[key.strip()] = val.strip()
    return out


# an empty value (``timing=``) leaves the flag off
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False, "": False}


def config_field_types() -> dict[str, type]:
    """Each config key, in field order, and the type its value converts by:
    Optional[X] converts as X, and tuple[int, ...] token by token as int."""
    return {key: next((t for t in get_args(hint) if t is not type(None)), hint)
            for key, hint in get_type_hints(ExperimentConfig).items()}


def config_from_mapping(mapping: dict[str, object]) -> ExperimentConfig:
    """Config from a mapping keyed by ``ExperimentConfig`` field names.  Each
    value converts by its field's declared type, or raises ValueError naming
    the key, the type and the raw value; None leaves the default.  A bool
    takes 1/true/yes/on or 0/false/no/off in any case."""
    types = config_field_types()
    kwargs = {}
    for key, raw in mapping.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        if raw is None:
            continue
        want = types[key]
        try:
            if key == "n_values":
                kwargs[key] = tuple(want(tok) for tok in str(raw).replace(",", " ").split())
            elif want is bool:
                kwargs[key] = _BOOL_WORDS[str(raw).lower()]
            else:
                kwargs[key] = want(raw)
        except (KeyError, ValueError):
            raise ValueError(f"config key {key!r}: expected {want.__name__}, "
                             f"got {raw!r}") from None
    if "mode" not in kwargs:
        raise ValueError("config is missing mode")
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------------
# per-mode trial bodies
# ----------------------------------------------------------------------------

def _probe(rec: ExperimentRecord, g: Graph, diameter_mode: str) -> None:
    """Fill the graph columns: m, Z1 and the diameter by ``diameter_mode``."""
    rec.m = g.m
    rec.z1 = len(pendant_edges(g))
    rec.diameter = diameter(g, mode=diameter_mode)
    rec.diameter_mode = diameter_mode


def _trial_thm1(cfg: ExperimentConfig, n: int, trial: int, tseed: int) -> ExperimentRecord:
    rec = ExperimentRecord(mode=cfg.mode, trial=trial, seed=tseed, n=n,
                           p=cfg.p, omega=cfg.omega)
    g = gen_gnp(GenParams(n=n, p=cfg.p, omega=cfg.omega, seed=tseed))
    rec.p = g.meta["p"]
    if g.meta.get("p_clamped"):
        rec.flags.append("p_clamped")
    tp = threshold_params(n, cfg.epsilon)
    rec.epsilon, rec.L, rec.k = tp.epsilon, tp.L, tp.k
    rec.gamma, rec.q, rec.p0 = tp.gamma, tp.q, tp.p0
    rec.flags.extend(f"clamped:{name}" for name in tp.clamped)
    _probe(rec, g, "double_sweep")
    if not connected(g):
        rec.flags.append("disconnected")
        return rec
    rec.rc_lower_bound = rc_lower_bound(g, rec.diameter)
    c = color_threshold(g, tp, seed=derive_seed(tseed, "color"))
    rec.Q = c.palette_size
    rec.flags.extend(c.flags)
    _tally(rec, verify_sampled(g, c, cfg.sampled_pairs, seed=tseed, budget=cfg.budget))
    return rec


def _tally(rec: ExperimentRecord, rep: VerifyReport) -> None:
    """Copy a pair report into the row."""
    rec.pairs_tried, rec.pairs_connected = rep.pairs_checked, rep.pairs_connected
    rec.success_rate, rec.mean_witness_len = rep.success_rate, rep.mean_witness_length


def _trial_regular(cfg: ExperimentConfig, n: int, trial: int, tseed: int) -> ExperimentRecord:
    r = cfg.r
    rec = ExperimentRecord(mode=cfg.mode, trial=trial, seed=tseed, n=n, r=r)
    try:
        g = gen_regular_config(GenParams(n=n, p=None, omega=None, r=r, seed=tseed))
    except GenerationExhausted:
        rec.flags.append("generation_exhausted")
        return rec
    rp = regular_params(n, r, cfg.epsilon)
    rec.epsilon, rec.k, rec.gamma = rp.epsilon, rp.k, rp.gamma
    rec.q, rec.theta_r, rec.sigma = rp.q, rp.theta_r, rp.sigma
    rec.flags.extend(f"clamped:{name}" for name in rp.clamped)
    _probe(rec, g, "double_sweep")
    try:
        c = color_greedy_power(g, radius=2 * rp.k, q=rp.q,
                               seed=derive_seed(tseed, "color"))
    except PaletteExhausted:
        rec.flags.append("palette_exhausted")
        return rec
    if r == 3:
        c, classes = recolor_cycle_classes(g, c, rp.k)
        rec.fresh_colors = c.palette_size - rp.q
        rec.cycle_classes = len(classes)
        rec.flags.extend(c.flags)
    rec.Q = c.palette_size
    d = r - 2
    rec.d = d if d >= 2 else None
    via_tree = violations = 0

    def find(u, v):
        nonlocal via_tree, violations
        try:
            w = witness_via_trees(g, c, u, v, k=rp.k, gamma=rp.gamma, d=d) if d >= 2 else None
        except GuaranteeViolation:
            violations, w = violations + 1, None
        if w is None:
            return rainbow_path_search(g, c, u, v, budget=cfg.budget,
                                       seed=derive_seed(tseed, f"pair:{u}:{v}"))
        via_tree += 1
        return w

    _tally(rec, verify_pairs(sample_pairs(g.n, cfg.sampled_pairs, tseed), find, "search",
                             keep_witnesses=False))
    rec.flags.append(f"tree_witness:{via_tree}")
    if violations:
        rec.flags.append(f"guarantee_violation:{violations}")
    return rec


def _trial_brute(cfg: ExperimentConfig, n: int, trial: int, tseed: int) -> ExperimentRecord:
    rec = ExperimentRecord(mode=cfg.mode, trial=trial, seed=tseed, n=n,
                           p=cfg.p, omega=cfg.omega)
    g = None
    for attempt in range(200):
        cand = gen_gnp(GenParams(n=n, p=cfg.p, omega=cfg.omega,
                                 seed=derive_seed(tseed, "gen", attempt)))
        if connected(cand):
            g = cand
            if attempt:
                rec.flags.append(f"regen:{attempt}")
            break
    if g is None:
        rec.flags.append("no_connected_instance")
        return rec
    rec.p = g.meta["p"]
    _probe(rec, g, "exact")
    rec.rc_lower_bound = rc_lower_bound(g, rec.diameter)
    res = brute_force_rc(g, q_max=cfg.q_max)
    if res is None:
        rec.flags.append("unresolved")
    else:
        rec.rc = res[0]
        rec.Q = res[1].palette_size
    return rec


def _trial_lemcol(cfg: ExperimentConfig, n: None, trial: int, tseed: int) -> ExperimentRecord:
    d, ell = cfg.d, cfg.ell
    rec = ExperimentRecord(mode=cfg.mode, trial=trial, seed=tseed, d=d, ell=ell)
    g, t1, t2 = build_tree_pair_graph(d, ell)
    rec.n, rec.m = g.n, g.m
    palette = 2 * (g.m // 2)
    c = random_rainbow_tree_coloring(g, t1, t2, palette=palette, seed=tseed)
    rec.Q = palette
    rec.sigma = pairing_floor(d, ell)  # kept on a violation row: the floor it missed
    try:
        res = pair_tree_paths(t1, t2, c)
    except GuaranteeViolation:
        rec.flags.append("guarantee_violation")
        rec.pairs_tried = 0
        rec.pairs_connected = 0
        rec.success_rate = 0.0
        return rec
    rec.pairs_tried = len(res.pairs)
    rec.pairs_connected = len(res.pairs)
    rec.success_rate = 1.0
    rec.mean_witness_len = float(2 * ell)
    return rec


_TRIALS = {
    "thm1": _trial_thm1,
    "regular": _trial_regular,
    "brute": _trial_brute,
    "lemcol_stress": _trial_lemcol,
}

# the keys some modes' trials read and others ignore, per mode the ones its
# trials read; ``validate`` refuses any other such key set off its default
_READS = {
    "thm1": ("n_values", "p", "omega", "epsilon", "sampled_pairs", "budget"),
    "regular": ("n_values", "r", "epsilon", "sampled_pairs", "budget"),
    "brute": ("n_values", "p", "omega", "q_max"),
    "lemcol_stress": ("d", "ell"),
}
_MODE_KEYS = {key for keys in _READS.values() for key in keys}


# ----------------------------------------------------------------------------
# sweep driver
# ----------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> tuple[list[ExperimentRecord], str]:
    """Run the sweep, appending one flushed CSV row per (n, trial) cell.

    Returns the records plus a printable summary.  Domain-level failures
    (generation exhausted, palette exhausted, disconnected instance) become
    row flags; only I/O errors propagate.
    """
    cfg.validate()
    records: list[ExperimentRecord] = []
    cells: list[Optional[int]]
    if cfg.mode == "lemcol_stress":
        cells = [None]
    else:
        cells = list(cfg.n_values)
    out_path = Path(cfg.out)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        fh.flush()
        for n in cells:
            for trial in range(cfg.trials):
                tag = f"{cfg.mode}:{n if n is not None else cfg.d}"
                tseed = derive_seed(cfg.seed, tag, trial)
                t0 = time.perf_counter()
                rec = _TRIALS[cfg.mode](cfg, n, trial, tseed)
                rec.elapsed_s = time.perf_counter() - t0
                records.append(rec)
                writer.writerow(rec.row(cfg.timing))
                fh.flush()
    return records, summarize(records)


def summarize(records: Sequence[ExperimentRecord]) -> str:
    lines = [f"{len(records)} rows"]
    rates = sorted(r.success_rate for r in records if r.success_rate is not None)
    if rates:
        if len(rates) >= 4:
            qs = statistics.quantiles(rates, n=4)
            lines.append("success rate min/q1/med/q3/max = "
                         f"{rates[0]:.4f}/{qs[0]:.4f}/{qs[1]:.4f}/{qs[2]:.4f}/{rates[-1]:.4f}")
        else:
            lines.append("success rates = " + "/".join(f"{r:.4f}" for r in rates))
    rcs = [(r.rc, r.rc_lower_bound) for r in records if r.rc is not None]
    if rcs:
        tight = sum(1 for rc, lb in rcs if rc == lb)
        lines.append(f"rc equals lower bound on {tight}/{len(rcs)} solved instances")
    flag_counts: dict[str, int] = {}
    for r in records:
        for fl in r.flags:
            key = fl.split(":")[0]
            flag_counts[key] = flag_counts.get(key, 0) + 1
    if flag_counts:
        lines.append("flags: " + ", ".join(f"{k}={v}" for k, v in sorted(flag_counts.items())))
    return "\n".join(lines)
