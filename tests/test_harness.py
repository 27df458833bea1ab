"""Experiment sweeps (config, CSV schema, per-mode runs) and the CLI."""

import argparse
import csv
from dataclasses import fields

import pytest

from rainbowconn import experiment as experiment_mod
from rainbowconn import graphs as graphs_mod
from rainbowconn import pairing as pairing_mod
from rainbowconn.cli import build_parser, main
from rainbowconn.coloring import EdgeColoring, read_coloring, threshold_params, write_coloring
from rainbowconn.errors import GuaranteeViolation
from rainbowconn.experiment import (
    CSV_HEADER,
    SCHEMA,
    ExperimentConfig,
    ExperimentRecord,
    config_from_mapping,
    load_config,
    run_experiment,
    summarize,
)
from rainbowconn.graphs import (GenParams, cycle_graph, gen_regular_config, path_graph,
                                read_edge_list, star_graph, write_edge_list)
from strategies import hub_path


def write_p4(tmp_path):
    p = tmp_path / "p4.el"
    write_edge_list(path_graph(4), p)
    return p


def distinct_coloring(m):
    return EdgeColoring(tuple(range(m)), m, ("random",) * m)


# ----------------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------------

class TestLoadConfig:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("# sweep\nmode=brute\n\nn_values=5,6\n  seed = 3 \n")
        assert load_config(p) == {"mode": "brute", "n_values": "5,6", "seed": "3"}

    def test_value_may_contain_equals(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("out=run=1.csv\nmode=brute\n")
        assert load_config(p)["out"] == "run=1.csv"

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("mode=brute\njust a bare line\n")
        with pytest.raises(ValueError, match=":2:"):
            load_config(p)

    def test_later_assignment_wins(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("seed=1\nseed=2\nmode=brute\n")
        assert load_config(p)["seed"] == "2"

    def test_inline_comments_stripped(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("mode=brute  # exact rc\nseed=3# trailing\n")
        assert load_config(p) == {"mode": "brute", "seed": "3"}


class TestConfigFromMapping:
    BASE = {"mode": "brute", "n_values": "5,6", "p": "0.5"}

    def test_coerces_types(self):
        # thm1, not BASE's brute: brute runs no search, so it refuses a budget
        cfg = config_from_mapping(dict(self.BASE, mode="thm1", n_values="50,60", trials="3",
                                       seed="7", budget="100"))
        assert cfg.n_values == (50, 60)
        assert cfg.p == 0.5
        assert (cfg.trials, cfg.seed, cfg.budget) == (3, 7, 100)

    def test_n_values_space_separated(self):
        cfg = config_from_mapping(dict(self.BASE, n_values="5 6  7"))
        assert cfg.n_values == (5, 6, 7)

    @pytest.mark.parametrize("raw,want", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("off", False), ("", False),
    ])
    def test_timing_flag_spellings(self, raw, want):
        cfg = config_from_mapping(dict(self.BASE, timing=raw))
        assert cfg.timing is want

    def test_accepts_already_typed_values(self):
        # CLI flag overrides arrive as ints/floats, not strings
        cfg = config_from_mapping({"mode": "brute", "n_values": "5", "p": 0.7, "seed": 4})
        assert cfg.p == 0.7 and cfg.seed == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_mapping(dict(self.BASE, colour="3"))

    def test_missing_mode_rejected(self):
        with pytest.raises(ValueError, match="missing mode"):
            config_from_mapping({"n_values": "5", "p": "0.5"})

    def test_validation_runs(self):
        with pytest.raises(ValueError, match="unknown mode"):
            config_from_mapping({"mode": "quantum", "n_values": "5"})


class TestConfigValidate:
    def test_trials_floor(self):
        cfg = ExperimentConfig(mode="brute", n_values=(5,), p=0.5, trials=0)
        with pytest.raises(ValueError, match="trials"):
            cfg.validate()

    def test_lemcol_needs_d_and_ell(self):
        with pytest.raises(ValueError, match="needs d and ell"):
            ExperimentConfig(mode="lemcol_stress", d=3).validate()
        with pytest.raises(ValueError, match="d >= 2"):
            ExperimentConfig(mode="lemcol_stress", d=1, ell=2).validate()

    def test_lemcol_ignores_missing_n_values(self):
        ExperimentConfig(mode="lemcol_stress", d=3, ell=2).validate()

    @pytest.mark.parametrize("key, value", [("n_values", (5, 6)), ("p", 0.5),
                                            ("omega", 1.0), ("r", 4)])
    def test_lemcol_rejects_graph_keys(self, key, value):
        cfg = ExperimentConfig(mode="lemcol_stress", d=3, ell=2, **{key: value})
        with pytest.raises(ValueError, match=f"does not use {key}"):
            cfg.validate()

    def test_graph_modes_need_n_values(self):
        with pytest.raises(ValueError, match="needs n values"):
            ExperimentConfig(mode="thm1", omega=2.0).validate()

    def test_exactly_one_density_knob(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(mode="brute", n_values=(5,), p=0.5, omega=1.0).validate()
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(mode="brute", n_values=(5,)).validate()

    def test_regular_needs_r(self):
        with pytest.raises(ValueError, match="needs r"):
            ExperimentConfig(mode="regular", n_values=(30,)).validate()

    def test_sampled_pairs_floor(self):
        cfg = ExperimentConfig(mode="thm1", n_values=(30,), omega=2.0, sampled_pairs=0)
        with pytest.raises(ValueError, match="sampled_pairs"):
            cfg.validate()

    def test_negative_budget_rejected(self):
        cfg = ExperimentConfig(mode="regular", n_values=(30,), r=3, budget=-1)
        with pytest.raises(ValueError, match="budget -1"):
            cfg.validate()

    @pytest.mark.parametrize("key, value", [("sampled_pairs", 7), ("budget", 3)])
    @pytest.mark.parametrize("mode, keys", [
        ("brute", {"n_values": (5,), "omega": 2.0}),
        ("lemcol_stress", {"d": 3, "ell": 2}),
    ], ids=["brute", "lemcol_stress"])
    def test_search_keys_refused_without_search(self, mode, keys, key, value):
        # neither mode runs the sampled search, so both keys would be ignored
        ExperimentConfig(mode=mode, **keys).validate()
        with pytest.raises(ValueError, match=f"{mode} does not use {key}; drop it"):
            ExperimentConfig(mode=mode, **keys, **{key: value}).validate()

    def test_search_keys_read_by_search_modes(self):
        ExperimentConfig(mode="thm1", n_values=(30,), omega=2.0, sampled_pairs=7,
                         budget=3).validate()
        ExperimentConfig(mode="regular", n_values=(30,), r=3, sampled_pairs=7,
                         budget=3).validate()


# ----------------------------------------------------------------------------
# CSV schema and row formatting
# ----------------------------------------------------------------------------

class TestRecordRow:
    def test_schema_and_header_frozen(self):
        assert SCHEMA == "rainbowconn-exp-1"
        assert CSV_HEADER == (
            "schema", "mode", "trial", "seed", "n", "m", "p", "omega", "r", "d",
            "ell", "epsilon", "L", "k", "gamma", "q", "p0", "theta_r", "sigma",
            "Q", "z1", "diameter", "diameter_mode", "rc", "rc_lower_bound",
            "pairs_tried", "pairs_connected", "success_rate", "mean_witness_len",
            "fresh_colors", "cycle_classes", "flags", "elapsed_s",
        )
        assert len(CSV_HEADER) == 33

    def test_every_derived_symbol_has_a_column(self):
        assert {"L", "k", "gamma", "q", "p0", "theta_r", "sigma", "Q"} <= set(CSV_HEADER)

    def test_unset_fields_become_na(self):
        rec = ExperimentRecord(mode="brute", trial=0, seed=9)
        row = rec.row(include_timing=False)
        assert len(row) == len(CSV_HEADER)
        assert row[:4] == [SCHEMA, "brute", "0", "9"]
        named = dict(zip(CSV_HEADER, row))
        assert named["rc"] == "NA" and named["theta_r"] == "NA"
        assert named["flags"] == ""
        assert named["elapsed_s"] == "NA"

    def test_float_formats(self):
        rec = ExperimentRecord(mode="thm1", trial=0, seed=0, p=0.123456789,
                               success_rate=0.5, mean_witness_len=3.25,
                               L=4.711711, epsilon=1 / 3)
        named = dict(zip(CSV_HEADER, rec.row(False)))
        assert named["p"] == "0.123457"
        assert named["success_rate"] == "0.5000"
        assert named["mean_witness_len"] == "3.250"
        assert named["L"] == "4.71171"
        assert named["epsilon"] == "0.333333"

    def test_elapsed_gated_by_timing(self):
        rec = ExperimentRecord(mode="brute", trial=0, seed=0, elapsed_s=0.12345)
        assert dict(zip(CSV_HEADER, rec.row(False)))["elapsed_s"] == "NA"
        assert dict(zip(CSV_HEADER, rec.row(True)))["elapsed_s"] == "0.123"

    def test_flags_joined_with_semicolon(self):
        rec = ExperimentRecord(mode="brute", trial=0, seed=0,
                               flags=["p_clamped", "regen:3"])
        assert dict(zip(CSV_HEADER, rec.row(False)))["flags"] == "p_clamped;regen:3"

    def test_fully_populated_row_pinned(self):
        # every column set; the cells are the ones the hand-written row gave
        rec = ExperimentRecord(
            mode="regular", trial=2, seed=123456789, n=2000, m=5000, p=0.00123456789,
            omega=2.5, r=5, d=3, ell=4, epsilon=0.1, L=4.711711, k=2, gamma=5, q=321,
            p0=1 / 3, theta_r=1.2618595071429148, sigma=9, Q=330, z1=0, diameter=7,
            diameter_mode="double_sweep", rc=8, rc_lower_bound=7, pairs_tried=150,
            pairs_connected=149, success_rate=149 / 150, mean_witness_len=9.87654,
            fresh_colors=6, cycle_classes=3, flags=["clamped:k", "tree_witness:92"],
            elapsed_s=1.23456)
        want = [
            "rainbowconn-exp-1", "regular", "2", "123456789", "2000", "5000",
            "0.00123457", "2.5", "5", "3", "4", "0.1", "4.71171", "2", "5", "321",
            "0.333333", "1.26186", "9", "330", "0", "7", "double_sweep", "8", "7",
            "150", "149", "0.9933", "9.877", "6", "3", "clamped:k;tree_witness:92",
        ]
        assert rec.row(False) == want + ["NA"]
        assert rec.row(True) == want + ["1.235"]


# ----------------------------------------------------------------------------
# sweep driver
# ----------------------------------------------------------------------------

class TestRunExperiment:
    def test_brute_rows_respect_lower_bound(self, tmp_path):
        out = tmp_path / "b.csv"
        cfg = ExperimentConfig(mode="brute", n_values=(5, 6), omega=2.0,
                               trials=2, seed=0, out=str(out))
        records, summary = run_experiment(cfg)
        assert len(records) == 4
        for rec in records:
            assert rec.rc is not None
            assert rec.rc >= max(rec.z1, rec.diameter)
            assert rec.rc_lower_bound == max(rec.z1, rec.diameter)
        assert "rc equals lower bound" in summary

    def test_csv_file_matches_records(self, tmp_path):
        out = tmp_path / "b.csv"
        cfg = ExperimentConfig(mode="brute", n_values=(5,), omega=2.0,
                               trials=2, seed=1, out=str(out))
        records, _ = run_experiment(cfg)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_HEADER)
        assert len(rows) == 1 + len(records)
        for rec, row in zip(records, rows[1:]):
            assert row == rec.row(cfg.timing)
        assert "\r" not in out.read_bytes().decode()

    def test_lemcol_stress_never_violates(self, tmp_path):
        out = tmp_path / "l.csv"
        cfg = ExperimentConfig(mode="lemcol_stress", d=3, ell=2, trials=5,
                               seed=0, out=str(out))
        records, summary = run_experiment(cfg)
        assert len(records) == 5
        for rec in records:
            assert "guarantee_violation" not in rec.flags
            assert rec.success_rate == 1.0
            assert rec.pairs_tried >= 4  # (d-1)^ell
            assert rec.sigma == 4
        assert summary.startswith("5 rows")
        assert "min/q1/med/q3/max = 1.0000" in summary

    def test_violation_row_keeps_floor(self, tmp_path, monkeypatch):
        # a pairing that falls below its floor still leaves a row naming
        # the floor it missed
        def short_pairing(t1, t2, c):
            raise GuaranteeViolation("0 pairs matched, floor is 8")

        monkeypatch.setattr(experiment_mod, "pair_tree_paths", short_pairing)
        cfg = ExperimentConfig(mode="lemcol_stress", d=2, ell=6, trials=2,
                               seed=0, out=str(tmp_path / "l.csv"))
        records, _ = run_experiment(cfg)
        assert all("guarantee_violation" in rec.flags for rec in records)
        assert [(rec.sigma, rec.pairs_tried) for rec in records] == [(8, 0)] * 2

    def test_binary_stress_meets_floor(self, tmp_path):
        # trial 299 once fell below the floor, when binary trees were
        # paired two levels per round
        cfg = ExperimentConfig(mode="lemcol_stress", d=2, ell=6, trials=300,
                               seed=0, out=str(tmp_path / "l.csv"))
        records, _ = run_experiment(cfg)
        assert not [rec.trial for rec in records if "guarantee_violation" in rec.flags]
        assert min(rec.pairs_tried for rec in records) >= 8

    def test_regular_mode_populates_recolor_fields(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = ExperimentConfig(mode="regular", n_values=(30,), r=3, trials=2,
                               sampled_pairs=4, budget=20000, seed=0, out=str(out))
        records, _ = run_experiment(cfg)
        for rec in records:
            assert (rec.k, rec.q, rec.gamma, rec.sigma) == (2, 160, 3, 2)
            assert rec.theta_r is None
            assert rec.d is None  # r - 2 < 2: no tree route
            assert rec.fresh_colors is not None
            assert rec.cycle_classes is not None
            assert "tree_witness:0" in rec.flags
            assert rec.pairs_tried == 4

    def test_regular_row_counts_broken_pairings(self, tmp_path, monkeypatch):
        # a pairing below its floor is flagged and its pair answered by the
        # search, so the row is written and every pair is still tried
        def run(out):
            cfg = ExperimentConfig(mode="regular", n_values=(1000,), r=5, trials=1,
                                   sampled_pairs=40, budget=20000, seed=0, out=str(out))
            return run_experiment(cfg)[0][0]

        def counts(rec):
            pairs = (fl.partition(":") for fl in rec.flags)
            return {name: int(n) for name, _, n in pairs
                    if name in ("tree_witness", "guarantee_violation")}

        plain = run(tmp_path / "plain.csv")
        assert "guarantee_violation" not in counts(plain)
        monkeypatch.setattr(pairing_mod, "pairing_floor", lambda d, depth: 10 ** 9)
        broken = run(tmp_path / "broken.csv")
        violations = counts(broken)["guarantee_violation"]
        assert violations > 0
        assert counts(broken)["tree_witness"] + violations == counts(plain)["tree_witness"]
        assert broken.pairs_tried == plain.pairs_tried == 40
        assert broken.sigma == plain.sigma

    def test_thm1_mode_carries_threshold_params(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = ExperimentConfig(mode="thm1", n_values=(30,), omega=2.0, trials=1,
                               sampled_pairs=4, budget=20000, seed=0, out=str(out))
        records, _ = run_experiment(cfg)
        rec = records[0]
        tp = threshold_params(30)
        assert (rec.L, rec.k, rec.gamma, rec.q, rec.p0) == (tp.L, tp.k, tp.gamma, tp.q, tp.p0)
        assert rec.epsilon == tp.epsilon
        if "disconnected" not in rec.flags:
            assert rec.Q is not None
            assert rec.pairs_tried == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = ExperimentConfig(mode="lemcol_stress", d=3, ell=2, trials=3,
                                   seed=5, out=str(out))
            run_experiment(cfg)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_master_seed_changes_trial_seeds(self, tmp_path):
        seeds = []
        for s in (0, 1):
            out = tmp_path / f"s{s}.csv"
            cfg = ExperimentConfig(mode="lemcol_stress", d=3, ell=1, trials=1,
                                   seed=s, out=str(out))
            records, _ = run_experiment(cfg)
            seeds.append(records[0].seed)
        assert seeds[0] != seeds[1]

    def test_summarize_counts_flag_prefixes(self):
        recs = [ExperimentRecord(mode="regular", trial=i, seed=i,
                                 flags=[f"tree_witness:{i}"]) for i in range(3)]
        assert "tree_witness=3" in summarize(recs)
        assert summarize([]).startswith("0 rows")


# ----------------------------------------------------------------------------
# CLI: generation and stats
# ----------------------------------------------------------------------------

class TestCliGenStats:
    def test_gen_gnp_then_stats(self, tmp_path, capsys):
        out = tmp_path / "g.el"
        assert main(["gen", "gnp", "--n", "100", "--omega", "2",
                     "--seed", "1", "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["stats", "--in", str(out)]) == 0
        text = capsys.readouterr().out
        assert "n=100\n" in text
        assert "z1=" in text and "diameter=" in text
        assert "diameter_mode=exact" in text

    @pytest.mark.parametrize("p", ["1e-17", "1e-300"])
    def test_gen_tiny_p_writes_an_empty_graph(self, tmp_path, capsys, p):
        out = tmp_path / "g.el"
        assert main(["gen", "gnp", "--n", "10", "--p", p, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.out and captured.err == ""
        g = read_edge_list(out)
        assert (g.n, g.m) == (10, 0)

    def test_gen_same_seed_byte_identical(self, tmp_path, capsys):
        files = []
        for name in ("a.el", "b.el"):
            out = tmp_path / name
            main(["gen", "gnp", "--n", "40", "--p", "0.2", "--seed", "9",
                  "--out", str(out)])
            files.append(out.read_bytes())
        capsys.readouterr()
        assert files[0] == files[1]

    def test_gen_regular_is_regular(self, tmp_path, capsys):
        out = tmp_path / "r.el"
        assert main(["gen", "regular", "--n", "10", "--r", "3", "--seed", "0",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        g = read_edge_list(out)
        deg = [0] * g.n
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        assert deg == [3] * 10

    def test_env_seed_matches_explicit_flag(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        monkeypatch.setenv("RAINBOW_SEED", "7")
        main(["gen", "gnp", "--n", "30", "--p", "0.3", "--out", str(a)])
        monkeypatch.delenv("RAINBOW_SEED")
        main(["gen", "gnp", "--n", "30", "--p", "0.3", "--seed", "7", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_gen_nan_omega_is_domain_error(self, tmp_path, capsys):
        out = tmp_path / "g.el"
        rc = main(["gen", "gnp", "--n", "5", "--omega", "nan", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: omega=nan is not a number\n"
        assert not out.exists()

    def test_gen_no_attempt_is_domain_error(self, tmp_path, capsys):
        out = tmp_path / "g.el"
        rc = main(["gen", "regular", "--n", "10", "--r", "3", "--max-attempts", "0",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: max_attempts=0 allows no attempt; need >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, want", [
        (["gen", "gnp", "--n", "10000000000000000000", "--p", "0"], "n*n must fit in int64"),
        (["gen", "regular", "--n", "100000000000000000000", "--r", "4"],
         "points are more than numpy can index"),
        (["experiment", "--mode", "thm1", "--n-values", "100000000000000000000",
          "--omega", "1"], "n*n must fit in int64"),
        (["experiment", "--mode", "regular", "--n-values", "100000000000000000000",
          "--r", "4"], "points are more than numpy can index"),
    ], ids=["gnp", "regular", "experiment_thm1", "experiment_regular"])
    def test_unindexable_n_refused_before_generation(self, tmp_path, capsys, argv, want):
        # the pair keys w*n + v of gen_gnp and the n*r points of the pairing
        # model must be indexable; the refusal comes before any allocation,
        # and an experiment refuses before its first row
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert want in captured.err
        assert captured.out == "" and not out.exists()

    def test_bad_env_seed_is_domain_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RAINBOW_SEED", "lots")
        rc = main(["gen", "gnp", "--n", "10", "--p", "0.5",
                   "--out", str(tmp_path / "x.el")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "RAINBOW_SEED" in captured.err


# ----------------------------------------------------------------------------
# CLI: rc, color, verify
# ----------------------------------------------------------------------------

class TestCliRc:
    def test_brute_on_p4_prints_3(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        assert main(["rc", "brute", "--in", str(p4)]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_witness_out_revalidates(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        wout = tmp_path / "w.col"
        assert main(["rc", "brute", "--in", str(p4), "--witness-out", str(wout)]) == 0
        capsys.readouterr()
        c = read_coloring(wout)
        assert c.palette_size == 3
        assert main(["verify", "exact", "--in", str(p4), "--coloring", str(wout)]) == 0
        assert "success_rate=1.000000" in capsys.readouterr().out

    def test_unresolved_cap_exits_1(self, tmp_path, capsys):
        c5 = tmp_path / "c5.el"
        write_edge_list(cycle_graph(5), c5)
        assert main(["rc", "brute", "--in", str(c5), "--q-max", "2"]) == 1
        assert "unresolved" in capsys.readouterr().err

    def test_negative_cap_is_an_error(self, tmp_path, capsys):
        # refused up front, not reported as a solver result
        k2 = tmp_path / "k2.el"
        write_edge_list(path_graph(2), k2)
        wout = tmp_path / "w.col"
        assert main(["rc", "brute", "--in", str(k2), "--q-max", "-1",
                     "--witness-out", str(wout)]) == 1
        assert capsys.readouterr().err == "error: q_max -1 is negative\n"
        assert not wout.exists()


class TestCliColorVerify:
    def test_thm1_star_coloring_verifies(self, tmp_path, capsys):
        gpath = tmp_path / "star.el"
        write_edge_list(star_graph(15), gpath)
        cpath = tmp_path / "star.col"
        assert main(["color", "thm1", "--in", str(gpath), "--seed", "0",
                     "--out", str(cpath)]) == 0
        capsys.readouterr()
        assert main(["verify", "exact", "--in", str(gpath),
                     "--coloring", str(cpath)]) == 0
        text = capsys.readouterr().out
        assert "pairs_checked=120" in text
        assert "success_rate=1.000000" in text

    @pytest.mark.parametrize("epsilon", ["inf", "nan", "1e308"])
    def test_thm1_non_finite_epsilon_is_an_error(self, tmp_path, capsys, epsilon):
        gpath = tmp_path / "star.el"
        write_edge_list(star_graph(19), gpath)
        cpath = tmp_path / "star.col"
        rc = main(["color", "thm1", "--in", str(gpath), "--epsilon", epsilon,
                   "--out", str(cpath)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: epsilon ")
        assert captured.err.count("\n") == 1  # one line, no traceback
        assert not cpath.exists()

    @pytest.mark.parametrize("epsilon", ["1e17", "1e300"])
    def test_thm1_epsilon_past_n_is_an_error(self, tmp_path, capsys, epsilon):
        # 1e300 escaped as "high is out of bounds for int64"; 1e17 wrote a
        # palette of about 1.6e18
        gpath = tmp_path / "g.el"
        assert main(["gen", "gnp", "--n", "200", "--omega", "2", "--seed", "0",
                     "--out", str(gpath)]) == 0
        capsys.readouterr()
        cpath = tmp_path / "g.col"
        rc = main(["color", "thm1", "--in", str(gpath), "--epsilon", epsilon,
                   "--out", str(cpath)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: epsilon is too large: k = ")
        assert captured.err.endswith(f"reaches n=200 at epsilon={float(epsilon)}\n")
        assert captured.err.count("\n") == 1
        assert not cpath.exists()

    def test_greedy_huge_radius_is_radius_n_minus_1(self, tmp_path, capsys):
        gpath = tmp_path / "g.el"
        assert main(["gen", "regular", "--n", "40", "--r", "3", "--seed", "0",
                     "--out", str(gpath)]) == 0
        outs = []
        for radius in ("100000000", "39"):
            outs.append(tmp_path / f"r{radius}.col")
            assert main(["color", "greedy", "--in", str(gpath), "--radius", radius,
                         "--q", "60", "--seed", "0", "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_negative_palette_is_an_error(self, tmp_path, capsys):
        # a 1-vertex graph has no pairs, so this coloring used to verify
        gpath = tmp_path / "k1.el"
        gpath.write_text("1 0\n")
        cpath = tmp_path / "neg.col"
        cpath.write_text("0 -3\n")
        rc = main(["verify", "exact", "--in", str(gpath), "--coloring", str(cpath)])
        assert rc == 1
        assert capsys.readouterr().err == "error: palette size -3 is negative\n"

    def test_greedy_coloring_is_locally_proper(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        cpath = tmp_path / "g.col"
        assert main(["color", "greedy", "--in", str(p4), "--radius", "1",
                     "--q", "5", "--seed", "0", "--out", str(cpath)]) == 0
        capsys.readouterr()
        c = read_coloring(cpath)
        assert c.palette_size == 5
        # P4 edges share a vertex consecutively
        assert c.colors[0] != c.colors[1]
        assert c.colors[1] != c.colors[2]

    def test_deficient_coloring_exits_1(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        cpath = tmp_path / "bad.col"
        write_coloring(EdgeColoring((0, 0, 1), 2, ("random",) * 3), cpath)
        assert main(["verify", "exact", "--in", str(p4),
                     "--coloring", str(cpath)]) == 1
        assert "success_rate=0.666667" in capsys.readouterr().out

    def test_single_pair_modes(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        bad = tmp_path / "bad.col"
        write_coloring(EdgeColoring((0, 0, 1), 2, ("random",) * 3), bad)
        good = tmp_path / "good.col"
        write_coloring(distinct_coloring(3), good)
        assert main(["verify", "exact", "--in", str(p4), "--coloring", str(bad),
                     "--x", "0", "--y", "3"]) == 1
        assert "no rainbow path" in capsys.readouterr().out
        assert main(["verify", "exact", "--in", str(p4), "--coloring", str(good),
                     "--x", "0", "--y", "3"]) == 0
        out = capsys.readouterr().out
        assert "rainbow path length 3" in out
        assert "vertices 0>1>2>3" in out

    def test_single_pair_exact_names_its_length_cap(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        good = tmp_path / "good.col"
        write_coloring(distinct_coloring(3), good)
        assert main(["verify", "exact", "--in", str(p4), "--coloring", str(good),
                     "--x", "0", "--y", "3", "--max-len", "2"]) == 1
        assert capsys.readouterr().out == "pair (0,3): no rainbow path of at most 2 edges\n"

    def test_single_pair_search_names_its_budget(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        bad = tmp_path / "bad.col"
        write_coloring(EdgeColoring((0, 0, 1), 2, ("random",) * 3), bad)
        assert main(["verify", "search", "--in", str(p4), "--coloring", str(bad),
                     "--x", "0", "--y", "3", "--budget", "50"]) == 1
        assert capsys.readouterr().out == "pair (0,3): no rainbow path found within budget 50\n"

    @pytest.mark.parametrize("mode", ["exact", "search"])
    def test_hub_graph_verifies(self, tmp_path, capsys, mode):
        # diameter 2, and the 0-9 pair's one rainbow path has 9 edges: a
        # search capped at 4 * diameter missed it
        g, c = hub_path(9)
        gpath, cpath = tmp_path / "hub.el", tmp_path / "hub.col"
        write_edge_list(g, gpath)
        write_coloring(c, cpath)
        assert main(["verify", mode, "--in", str(gpath), "--coloring", str(cpath)]) == 0
        out = capsys.readouterr().out
        assert "pairs_checked=55\npairs_connected=55\n" in out

    @pytest.mark.parametrize("mode, flag", [("exact", "--max-len"), ("search", "--max-len"),
                                            ("search", "--budget"), ("exact", "--budget")])
    def test_single_pair_negative_bound_rejected(self, tmp_path, capsys, mode, flag):
        p4 = write_p4(tmp_path)
        good = tmp_path / "good.col"
        write_coloring(distinct_coloring(3), good)
        rc = main(["verify", mode, "--in", str(p4), "--coloring", str(good),
                   "--x", "0", "--y", "3", flag, "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "-1 is negative" in captured.err

    def test_all_pairs_exact_negative_budget_rejected(self, tmp_path, capsys):
        # the exact verifier takes no budget, so only the CLI can refuse it
        p4 = write_p4(tmp_path)
        good = tmp_path / "good.col"
        write_coloring(distinct_coloring(3), good)
        rc = main(["verify", "exact", "--in", str(p4), "--coloring", str(good),
                   "--budget", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "-1 is negative" in captured.err

    def test_sample_mode_rejects_endpoints(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        good = tmp_path / "good.col"
        write_coloring(distinct_coloring(3), good)
        rc = main(["verify", "sample", "--in", str(p4), "--coloring", str(good),
                   "--x", "0", "--y", "3"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err

    @pytest.mark.parametrize("pairs", ["0", "-5"])
    def test_sample_mode_needs_a_pair(self, tmp_path, capsys, pairs):
        p4 = write_p4(tmp_path)
        good = tmp_path / "good.col"
        write_coloring(distinct_coloring(3), good)
        rc = main(["verify", "sample", "--in", str(p4), "--coloring", str(good),
                   "--pairs", pairs])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "at least one" in captured.err

    def test_sample_mode_clamps_and_repeats(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        good = tmp_path / "good.col"
        write_coloring(distinct_coloring(3), good)
        outs = []
        for _ in range(2):
            assert main(["verify", "sample", "--in", str(p4),
                         "--coloring", str(good), "--seed", "3"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "pairs_checked=6" in outs[0]

    def test_coloring_of_another_graph_rejected(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        short = tmp_path / "short.col"
        write_coloring(distinct_coloring(2), short)
        for extra in ([], ["--x", "0", "--y", "3"]):
            rc = main(["verify", "exact", "--in", str(p4), "--coloring", str(short)] + extra)
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.err.startswith("error:")
            assert "colors 2 edges" in captured.err and "has 3" in captured.err

    @pytest.mark.parametrize("mode", ["exact", "search"])
    @pytest.mark.parametrize("x, y", [(0, 4), (-1, 2), (9, 0)])
    def test_endpoint_out_of_range_rejected(self, tmp_path, capsys, mode, x, y):
        p4 = write_p4(tmp_path)
        good = tmp_path / "good.col"
        write_coloring(distinct_coloring(3), good)
        rc = main(["verify", mode, "--in", str(p4), "--coloring", str(good),
                   "--x", str(x), "--y", str(y)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "not a vertex" in captured.err

    def test_half_pair_rejected(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        good = tmp_path / "good.col"
        write_coloring(distinct_coloring(3), good)
        rc = main(["verify", "exact", "--in", str(p4), "--coloring", str(good),
                   "--x", "0"])
        assert rc == 1
        assert "both --x and --y" in capsys.readouterr().err

    @pytest.mark.parametrize("edges, colors, bad, line", [
        ("4 3\n0 1\n1 2\n2 3\n", "3\n0 0 random\n1 1 random\n2 2 random\n", "c.col", 1),
        ("4 3\n0 1\n1 2\n2 3\n", "3 3\n0 0 random\n1 x random\n2 2 random\n", "c.col", 3),
        ("4 3\n0 1\n# middle\n1 x\n2 3\n", "3 3\n0 0 random\n", "g.el", 4),
        ("4 3\n0 1\n2 3\n\n1 2\n", "3 3\n0 0 random\n", "g.el", 5),
        ("4 3\n0 1\n0 1\n2 3\n", "3 3\n0 0 random\n", "g.el", 3),
        ("4 3\n# c\n0 1\n2 1\n2 3\n", "3 3\n0 0 random\n", "g.el", 4),
        ("4 3\n0 1\n1 2\n2 4\n", "3 3\n0 0 random\n", "g.el", 4),
        ("-1 0\n", "0 0\n", "g.el", 1),
    ], ids=["coloring_header", "coloring_token", "edge_list_token", "edge_list_unsorted",
            "edge_list_duplicate", "edge_list_reversed", "edge_list_out_of_range",
            "edge_list_negative_n"])
    def test_malformed_line_named(self, tmp_path, capsys, edges, colors, bad, line):
        (tmp_path / "g.el").write_text(edges)
        (tmp_path / "c.col").write_text(colors)
        rc = main(["verify", "exact", "--in", str(tmp_path / "g.el"),
                   "--coloring", str(tmp_path / "c.col")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: {tmp_path / bad}:{line}: ")


# ----------------------------------------------------------------------------
# CLI: pairing, recoloring, witnesses
# ----------------------------------------------------------------------------

class TestCliPairRecolor:
    def test_pair_lemcol_reports_floor(self, capsys):
        assert main(["pair", "lemcol", "--d", "3", "--ell", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "floor=4" in out
        first = out.splitlines()[0]
        pairs = int(first.split("pairs=")[1].split()[0])
        assert pairs >= 4

    def test_pair_lemcol_binary_rule(self, capsys):
        assert main(["pair", "lemcol", "--d", "2", "--ell", "4", "--seed", "1"]) == 0
        assert "floor=4" in capsys.readouterr().out

    @pytest.mark.parametrize("d, ell", [(3, 0), (1, 2), (0, 2), (3, -1)])
    def test_pair_lemcol_bad_shape_refused(self, capsys, d, ell):
        # --ell 0 used to report "tree arities 0 and 0 do not match d=3"
        assert main(["pair", "lemcol", "--d", str(d), "--ell", str(ell)]) == 1
        assert capsys.readouterr().err == "error: pair lemcol needs --d >= 2 and --ell >= 1\n"

    def test_recolor_cycles_pipeline(self, tmp_path, capsys):
        gpath = tmp_path / "g.el"
        base = tmp_path / "base.col"
        rec = tmp_path / "rec.col"
        assert main(["gen", "regular", "--n", "60", "--r", "3", "--seed", "2",
                     "--out", str(gpath)]) == 0
        assert main(["color", "greedy", "--in", str(gpath), "--radius", "2",
                     "--q", "60", "--seed", "0", "--out", str(base)]) == 0
        capsys.readouterr()
        assert main(["recolor", "cycles", "--in", str(gpath),
                     "--coloring", str(base), "--k", "2", "--out", str(rec)]) == 0
        out = capsys.readouterr().out
        assert "classes=" in out
        c = read_coloring(rec)
        assert c.m == 90
        assert c.palette_size >= 60

    def test_recolor_huge_depth_is_depth_n_minus_1(self, tmp_path, capsys):
        # --k 100000000 grew 10**8 empty levels per vertex
        gpath = tmp_path / "g.el"
        base = tmp_path / "base.col"
        assert main(["gen", "regular", "--n", "40", "--r", "3", "--seed", "0",
                     "--out", str(gpath)]) == 0
        assert main(["color", "greedy", "--in", str(gpath), "--radius", "2",
                     "--q", "60", "--seed", "0", "--out", str(base)]) == 0
        outs = []
        for k in ("100000000", "39"):
            outs.append(tmp_path / f"k{k}.col")
            assert main(["recolor", "cycles", "--in", str(gpath), "--coloring", str(base),
                         "--k", k, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_recolor_mismatched_coloring_errors(self, tmp_path, capsys):
        gpath = tmp_path / "g.el"
        write_edge_list(cycle_graph(6), gpath)
        cpath = tmp_path / "wrong.col"
        write_coloring(distinct_coloring(3), cpath)
        rc = main(["recolor", "cycles", "--in", str(gpath),
                   "--coloring", str(cpath), "--k", "1", "--out",
                   str(tmp_path / "o.col")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err
        assert f"{cpath} colors 3 edges but {gpath} has 6" in captured.err

    def test_recolor_negative_depth_rejected(self, tmp_path, capsys):
        gpath = tmp_path / "g.el"
        write_edge_list(cycle_graph(6), gpath)
        cpath = tmp_path / "base.col"
        write_coloring(distinct_coloring(6), cpath)
        out = tmp_path / "o.col"
        rc = main(["recolor", "cycles", "--in", str(gpath), "--coloring", str(cpath),
                   "--k", "-1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:") and "negative" in captured.err
        assert not out.exists()


@pytest.fixture(scope="module")
def witness_files(tmp_path_factory):
    # the structured-pair scale: d-ary trees need degree r = 5
    root = tmp_path_factory.mktemp("witness")
    g = gen_regular_config(GenParams(n=2000, r=5, seed=0))
    gpath = root / "g.el"
    write_edge_list(g, gpath)
    cpath = root / "distinct.col"
    write_coloring(distinct_coloring(g.m), cpath)
    mpath = root / "mono.col"
    write_coloring(EdgeColoring((0,) * g.m, 1, ("random",) * g.m), mpath)
    return gpath, cpath, mpath


class TestCliWitness:
    def test_witness_bundle_and_path(self, witness_files, capsys):
        gpath, cpath, _ = witness_files
        assert main(["witness", "--in", str(gpath), "--coloring", str(cpath),
                     "--x", "3", "--y", "777", "--k", "2", "--gamma", "4",
                     "--d", "3"]) == 0
        out = capsys.readouterr().out
        assert "excluded_x=" in out and "levels_x=" in out
        assert "witness length 13" in out

    def test_witness_from_matched_pairs_alone(self, witness_files, capsys):
        # the i-th leaves of the two trees never both keep a hat here; a
        # matched leaf pair still gives the witness
        gpath, cpath, _ = witness_files
        assert main(["witness", "--in", str(gpath), "--coloring", str(cpath),
                     "--x", "26", "--y", "384", "--k", "2", "--gamma", "4",
                     "--d", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("x=26\ny=384\n")
        assert "witness length 13" in out

    def test_witness_rejects_mismatch_and_range(self, tmp_path, capsys):
        p4 = write_p4(tmp_path)
        short = tmp_path / "short.col"
        write_coloring(distinct_coloring(2), short)
        good = tmp_path / "good.col"
        write_coloring(distinct_coloring(3), good)
        for cpath, y, msg in ((short, 3, "colors 2 edges"), (good, 9, "--y 9 is not a vertex")):
            rc = main(["witness", "--in", str(p4), "--coloring", str(cpath),
                       "--x", "0", "--y", str(y), "--k", "1", "--gamma", "1",
                       "--d", "2"])
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.err.startswith("error:")
            assert msg in captured.err

    @pytest.mark.parametrize("x, y, k, gamma, d",
                             [(3, 777, 2, -1, 2), (3, 777, -1, 2, 2), (10, 278, 2, -1, 3)],
                             ids=["gamma", "k", "gamma_inside_tree"])
    def test_witness_negative_depth_rejected(self, witness_files, capsys, x, y, k, gamma, d):
        # the depths are checked before any tree grows, so a y inside x's
        # scaffold tree (278 in the depth-2 tree of 10) gets the same error
        gpath, cpath, _ = witness_files
        rc = main(["witness", "--in", str(gpath), "--coloring", str(cpath),
                   "--x", str(x), "--y", str(y), "--k", str(k), "--gamma", str(gamma),
                   "--d", str(d)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:") and "negative" in captured.err
        assert ("gamma=-1" if gamma < 0 else "k=-1") in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("k, gamma", [("100000000", "4"), ("2", "2000")], ids=["k", "gamma"])
    def test_witness_depth_past_n_rejected(self, witness_files, capsys, k, gamma):
        gpath, cpath, _ = witness_files
        rc = main(["witness", "--in", str(gpath), "--coloring", str(cpath),
                   "--x", "3", "--y", "777", "--k", k, "--gamma", gamma, "--d", "3"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:") and "reaches n=2000" in captured.err
        assert captured.out == ""

    def test_witness_unusable_scaffold_prints_no_bundle(self, witness_files, capsys):
        # k = 0 grows trees the pairing cannot use: refuse before printing
        gpath, cpath, _ = witness_files
        rc = main(["witness", "--in", str(gpath), "--coloring", str(cpath),
                   "--x", "3", "--y", "100", "--k", "0", "--gamma", "3", "--d", "3"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:") and "scaffold depth" in captured.err
        assert captured.out == ""

    def test_witness_mono_coloring_fails_honestly(self, witness_files, capsys):
        gpath, _, mpath = witness_files
        assert main(["witness", "--in", str(gpath), "--coloring", str(mpath),
                     "--x", "3", "--y", "777", "--k", "2", "--gamma", "4",
                     "--d", "3"]) == 1
        out = capsys.readouterr().out
        assert "no rainbow witness" in out
        assert "excluded_x=" in out  # diagnostics still printed


# ----------------------------------------------------------------------------
# CLI: experiment command and usage errors
# ----------------------------------------------------------------------------

class TestCliExperiment:
    def test_flags_only_run(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert main(["experiment", "--mode", "brute", "--n-values", "5",
                     "--p", "0.7", "--trials", "1", "--seed", "3",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("1 rows")
        assert out.read_text().splitlines()[0] == ",".join(CSV_HEADER)

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("mode=lemcol_stress\nd=3\nell=2\ntrials=2\n"
                           "out=ignored.csv\n")
        out = tmp_path / "real.csv"
        assert main(["experiment", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("2 rows")
        assert out.exists()
        assert not (tmp_path / "ignored.csv").exists()

    def test_cli_rerun_byte_identical(self, tmp_path, capsys):
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["experiment", "--mode", "lemcol_stress", "--d", "3",
                         "--ell", "2", "--trials", "2", "--seed", "0",
                         "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_flags_are_the_config_fields(self):
        # every config key is one flag, its name with dashes, the key as its
        # dest: the CLI's override loop reads each key off the parsed args
        top = build_parser()
        sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a.option_strings for a in sub.choices["experiment"]._actions}
        del flags["help"]
        want = {f.name: ["--" + f.name.replace("_", "-")] for f in fields(ExperimentConfig)}
        assert flags == {**want, "config": ["--config"]}

    def test_flag_types(self, capsys):
        parse = build_parser().parse_args
        args = parse(["experiment", "--n-values", "5,6", "--p", "0.5", "--trials", "3",
                      "--mode", "brute", "--timing"])
        assert (args.n_values, args.p, args.trials, args.mode) == ("5,6", 0.5, 3, "brute")
        assert args.timing is True
        assert parse(["experiment"]).timing is None  # unset: a file's timing stands
        assert main(["experiment", "--p", "x"]) == 2
        assert main(["experiment", "--trials", "1.5"]) == 2
        assert "invalid float value: 'x'" in capsys.readouterr().err

    def test_k2_lower_bound_is_one(self, tmp_path, capsys):
        # the one edge of K2 is pendant at both ends: one color suffices
        out = tmp_path / "k2.csv"
        assert main(["experiment", "--mode", "brute", "--n-values", "2", "--p", "1",
                     "--trials", "1", "--out", str(out)]) == 0
        assert "rc equals lower bound on 1/1 solved instances" in capsys.readouterr().out
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert (row["z1"], row["rc"], row["rc_lower_bound"]) == ("2", "1", "1")

    @pytest.mark.parametrize("how", ["file", "flag"])
    def test_bad_value_names_its_key(self, tmp_path, capsys, how):
        if how == "file":
            cfgfile = tmp_path / "exp.cfg"
            cfgfile.write_text("mode=brute\nn_values=5\np=0.5\ntrials=abc\n")
            argv = ["experiment", "--config", str(cfgfile)]
            msg = "config key 'trials': expected int, got 'abc'"
        else:
            argv = ["experiment", "--mode", "brute", "--n-values", "5,x", "--p", "0.5",
                    "--out", str(tmp_path / "e.csv")]
            msg = "config key 'n_values': expected int, got '5,x'"
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {msg}\n"

    def test_misspelled_timing_is_an_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("mode=brute\nn_values=5\np=0.5\ntiming=ture\n")
        rc = main(["experiment", "--config", str(cfgfile), "--out", str(tmp_path / "e.csv")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: config key 'timing': expected bool, got 'ture'\n"
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--mode", "thm1", "--n-values", "2000,5", "--omega", "2", "--trials", "1",
         "--sampled-pairs", "5"],
        ["--mode", "regular", "--n-values", "10", "--r", "3"],
        ["--mode", "regular", "--n-values", "20", "--r", "2"],
        ["--mode", "thm1", "--n-values", "50", "--omega", "2", "--epsilon", "0"],
        # values only the generators refused, once the cell ran
        ["--mode", "regular", "--n-values", "200,17", "--r", "3", "--sampled-pairs", "5"],
        ["--mode", "regular", "--n-values", "16", "--r", "17"],
        ["--mode", "brute", "--n-values", "5", "--p", "1.5"],
        ["--mode", "thm1", "--n-values", "2000", "--p", "-0.1"],
        ["--mode", "brute", "--n-values", "5", "--omega", "nan"],
        ["--mode", "brute", "--n-values", "5", "--p", "0.5", "--q-max", "-1", "--trials", "1"],
    ])
    def test_bad_cell_fails_before_the_csv(self, tmp_path, capsys, flags):
        # a bad cell must not leave a header-only CSV or the rows of earlier cells
        out = tmp_path / "e.csv"
        rc = main(["experiment", *flags, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags, key", [
        (["--mode", "regular", "--n-values", "20", "--r", "3", "--p", "0.5", "--q-max", "3",
          "--d", "4", "--trials", "1", "--sampled-pairs", "2"], "p"),
        (["--mode", "thm1", "--n-values", "50", "--omega", "2", "--trials", "1",
          "--r", "7", "--ell", "3"], "r"),
        (["--mode", "brute", "--n-values", "5", "--p", "0.5", "--trials", "1",
          "--r", "3", "--epsilon", "0.3"], "r"),
        (["--mode", "lemcol_stress", "--d", "3", "--ell", "2", "--q-max", "3"], "q_max"),
        (["--mode", "brute", "--n-values", "5", "--omega", "2", "--sampled-pairs", "7",
          "--budget", "3"], "sampled_pairs"),
        (["--mode", "lemcol_stress", "--d", "3", "--ell", "2", "--sampled-pairs", "9"],
         "sampled_pairs"),
    ], ids=["regular_p", "thm1_r_ell", "brute_r_epsilon", "lemcol_q_max",
            "brute_sampled_pairs_budget", "lemcol_sampled_pairs"])
    def test_unread_key_refused(self, tmp_path, capsys, flags, key):
        # a value the mode never reads would be lost from the CSV: refuse it
        out = tmp_path / "e.csv"
        rc = main(["experiment", *flags, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {flags[1]} does not use {key}; drop it\n"
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["inf", "nan", "1e308"])
    @pytest.mark.parametrize("flags", [
        ["--mode", "thm1", "--n-values", "20", "--omega", "1"],
        ["--mode", "regular", "--n-values", "20", "--r", "3"],
    ], ids=["thm1", "regular"])
    def test_non_finite_epsilon_is_an_error(self, tmp_path, capsys, flags, epsilon):
        out = tmp_path / "e.csv"
        rc = main(["experiment", *flags, "--epsilon", epsilon, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: epsilon ")
        assert captured.err.count("\n") == 1  # one line, no traceback
        assert not out.exists()

    def test_bad_config_key_is_domain_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("mode=brute\nwat=1\n")
        rc = main(["experiment", "--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "unknown config key" in captured.err


class TestCliUsage:
    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["gen", "gnp", "--omega", "2", "--out", "x.el"]) == 2
        capsys.readouterr()

    def test_empty_argv(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_non_utf8_input_named(self, tmp_path, capsys):
        path = tmp_path / "g.el"
        path.write_bytes(b"\xff 1\n")
        assert main(["stats", "--in", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: not utf-8 text (invalid start byte at byte 0)\n")

    def test_unindexable_n_named(self, tmp_path, capsys):
        path = tmp_path / "g.el"
        path.write_text("99999999999999999999 1\n0 1\n")
        assert main(["stats", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: n=99999999999999999999 is more vertices")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("exc, line", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 22.4 GiB"),
         "error: out of memory: Unable to allocate 22.4 GiB\n"),
    ], ids=["bare", "numpy"])
    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, exc, line):
        # one allocation raises, as numpy's does when the request is too large;
        # nothing is allocated for real
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(graphs_mod, "_column_pairs", refuse)
        assert main(["gen", "gnp", "--n", "10", "--p", "0.5", "--out", str(tmp_path / "g.el")]) == 1
        assert capsys.readouterr().err == line

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["stats", "--in", str(tmp_path / "absent.el")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err
