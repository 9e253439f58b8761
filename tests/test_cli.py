"""End-to-end CLI tests: artifacts, determinism, error paths."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from cvarsafe import (OracleError, RolloutBatch, cli, dp, exact_optimal_cvar,
                      generate_corpus, oracle, rollout, save_corpus,
                      smoke_disturbance, solver, synthesize_policy)
from cvarsafe.artifacts import (SCHEMA_VERSION, read_sweep, write_rollouts_csv,
                                write_tables_csv)
from cvarsafe.config import (ConfigError, build_grid, build_model, config_hash,
                             load_config, resolve_config, sweep_hash)
from cvarsafe.models import PumpParams, StormwaterParams

TINY_CONFIG = {
    "model": {"disturbance": "smoke"},
    "grid": {"x": [7, 7], "z": 5, "action": 5, "s": 5},
    "alphas": [0.99, 0.5],
    "rs": [1.0, 1.8],
    "deploy": {"x0": [2.5, 3.0], "alpha": 0.5, "rollouts": 100},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def write_config(tmp_path, name, overrides):
    path = tmp_path / name
    path.write_text(json.dumps({**TINY_CONFIG, **overrides}))
    return str(path)


def truncate_sweep(sweep_dir, keep_rows):
    """Keep the comment, the header and the first ``keep_rows`` data rows."""
    csv = sweep_dir / "sweep.csv"
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[:2 + keep_rows]))


def edit_sweep_meta(sweep_dir, edit):
    """Rewrite sweep_meta.json after ``edit`` changed its parsed contents."""
    path = sweep_dir / "sweep_meta.json"
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))


def edit_sweep_csv(sweep_dir, edit):
    """Rewrite sweep.csv after ``edit`` changed its list of data rows, each a
    list of cells."""
    path = sweep_dir / "sweep.csv"
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    edit(rows)
    path.write_text("\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n")


def read_configured_sweep(config_path, sweep_dir):
    """``read_sweep`` of ``sweep_dir`` for the config at ``config_path``:
    (the sweep, the configured grid, the config hash)."""
    cfg = load_config(config_path)
    grid = build_grid(cfg, build_model(cfg))
    return (read_sweep(str(sweep_dir), grid, sweep_hash(cfg)), grid,
            config_hash(cfg))


def read_tree(root):
    """The bytes of every file under ``root``, keyed by its relative path."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(Path(root).rglob("*")) if path.is_file()}


def is_canonical_cell(cell):
    """An integer, an empty cell, a design letter, or a float written in its
    shortest round-trip form."""
    if cell in ("", "a", "b", "c", "d") or re.fullmatch(r"-?[0-9]+", cell):
        return True
    try:
        return repr(float(cell)) == cell
    except ValueError:
        return False


class TestSweepCommand:
    def test_artifacts_and_roundtrip(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["sweep", "--config", tiny_config, "--out", str(out)]) == 0
        v0, grid, chash = read_configured_sweep(tiny_config, out)
        assert v0.shape == (5, 49)
        assert np.all(v0[-1] == 0.0)
        assert len(chash) == 12
        head = (out / "sweep.csv").read_text().splitlines()[0]
        assert head == f"# config={chash}"

    def test_rerun_is_byte_identical(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["sweep", "--config", tiny_config, "--out", str(out1)])
        cli.main(["sweep", "--config", tiny_config, "--out", str(out2)])
        assert read_tree(out1) == read_tree(out2)

    def test_thread_count_does_not_change_bytes(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        cli.main(["sweep", "--config", tiny_config, "--out", str(out1),
                  "--threads", "1"])
        cli.main(["sweep", "--config", tiny_config, "--out", str(out2),
                  "--threads", "4"])
        assert read_tree(out1)["sweep.csv"] == read_tree(out2)["sweep.csv"]

    def test_atom_list_law_matches_its_named_law(self, tiny_config, tmp_path):
        # The smoke law written out as [value, probability] atoms gives the
        # same sweep rows; only the config hash in the first line differs.
        smoke = smoke_disturbance()
        atoms = [[float(v), float(p)] for v, p in zip(smoke.values, smoke.probs)]
        path = write_config(tmp_path, "atoms.json", {"model": {"disturbance": atoms}})
        named, listed = tmp_path / "named", tmp_path / "listed"
        assert cli.main(["sweep", "--config", tiny_config, "--out", str(named)]) == 0
        assert cli.main(["sweep", "--config", path, "--out", str(listed)]) == 0
        rows = [(out / "sweep.csv").read_text().splitlines() for out in (named, listed)]
        assert rows[0][0] != rows[1][0]
        assert rows[0][1:] == rows[1][1:]

    def test_one_progress_line_per_s(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["sweep", "--config", tiny_config, "--out", str(out),
                         "--threads", "2"]) == 0
        solved = [line.split() for line in capsys.readouterr().err.splitlines()
                  if line.startswith("  solved ")]
        assert sorted(solved) == [["solved", f"s={s:g}", f"({k}/5)"]
                                  for k, s in enumerate([0, 0.5, 1, 1.5, 2], 1)]

    def test_persist_tables_flag(self, tmp_path):
        path = write_config(tmp_path, "config.json",
                            {"flags": {"persist_tables": True}})
        out = tmp_path / "run"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        tables = sorted(out.glob("tables_s=*.csv"))
        assert len(tables) == 5  # one per dual parameter
        header = tables[0].read_text().splitlines()[2]
        assert header == "t,i0,i1,iz,value,action"
        # Every CSV the commands write carries the config hash and only
        # canonical cells.
        for command in (["safe-sets"], ["deploy", "--sweep", str(out)],
                        ["compare-designs"]):
            assert cli.main(command + ["--config", path, "--out", str(out)]) == 0
        chash = read_configured_sweep(path, out)[2]
        for csv in sorted(out.glob("*.csv")):
            lines = csv.read_text().splitlines()
            assert lines[0] == f"# config={chash}", csv.name
            data = lines[3:] if lines[1].startswith("# s=") else lines[2:]
            bad = [c for line in data for c in line.split(",")
                   if not is_canonical_cell(c)]
            assert not bad, (csv.name, bad[:3])

    def test_persist_tables_must_be_a_boolean(self, tmp_path, capsys):
        path = write_config(tmp_path, "config.json",
                            {"flags": {"persist_tables": "no"}})
        out = tmp_path / "run"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 2
        assert ("config error: flags.persist_tables: expected true or false"
                in capsys.readouterr().err)
        assert not out.exists()  # so no tables were written

    def test_persist_tables_solves_each_s_once(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "config.json",
                            {"flags": {"persist_tables": True}})
        calls = []
        value_iteration = dp.value_iteration

        def counting(*args, **kwargs):
            calls.append(args[0])
            return value_iteration(*args, **kwargs)

        monkeypatch.setattr(dp, "value_iteration", counting)
        monkeypatch.setattr(solver, "value_iteration", counting)
        out = tmp_path / "run"
        assert cli.main(["sweep", "--config", path, "--out", str(out),
                         "--threads", "2"]) == 0
        assert sorted(calls) == [0.0, 0.5, 1.0, 1.5, 2.0]
        monkeypatch.undo()
        # Each file holds the tables of one plain value_iteration solve.
        cfg = load_config(path)
        model = build_model(cfg)
        grid = build_grid(cfg, model)
        chash = read_configured_sweep(path, out)[2]
        for s in grid.s_axis:
            ref = tmp_path / "ref.csv"
            write_tables_csv(str(ref), s, *dp.value_iteration(float(s), model, grid),
                             grid, chash)
            got = out / f"tables_s={float(s)!r}.csv"
            assert got.read_bytes() == ref.read_bytes()


class TestSafeSetsCommand:
    def test_masks_and_summary(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        cli.main(["sweep", "--config", tiny_config, "--out", str(out)])
        assert cli.main(["safe-sets", "--config", tiny_config,
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        counts = summary["cell_counts"]
        assert len(counts) == 4
        # nesting in both parameters
        assert counts["alpha=0.5,r=1.0"] <= counts["alpha=0.99,r=1.0"]
        assert counts["alpha=0.99,r=1.0"] <= counts["alpha=0.99,r=1.8"]
        assert (out / "surface_alpha=0.99.csv").exists()
        assert (out / "mask_alpha=0.5_r=1.8.csv").exists()

    def test_surface_holds_the_risk_value_and_its_masks(self, tiny_config,
                                                        tmp_path):
        out = tmp_path / "run"
        cli.main(["sweep", "--config", tiny_config, "--out", str(out)])
        assert cli.main(["safe-sets", "--config", tiny_config,
                         "--out", str(out)]) == 0
        v0, grid, _ = read_configured_sweep(tiny_config, out)
        for alpha in TINY_CONFIG["alphas"]:
            lines = (out / f"surface_alpha={alpha!r}.csv").read_text().splitlines()
            assert lines[1] == "x1,x2,w_star,s_star"
            table = np.array([[float(c) for c in line.split(",")]
                              for line in lines[2:]])
            w_star, s_star = solver.risk_value(grid.s_axis, v0, alpha)
            assert np.array_equal(table[:, :2], grid.x_nodes())
            assert np.array_equal(table[:, 2], w_star)
            assert np.array_equal(table[:, 3], s_star)
            for r in TINY_CONFIG["rs"]:
                mask = (out / f"mask_alpha={alpha!r}_r={r!r}.csv").read_text()
                in_set = [int(line.rsplit(",", 1)[1])
                          for line in mask.splitlines()[2:]]
                assert in_set == (table[:, 2] <= r).astype(int).tolist()

    def test_missing_sweep_is_an_error(self, tiny_config, tmp_path):
        out = tmp_path / "nosweep"
        out.mkdir()
        assert cli.main(["safe-sets", "--config", tiny_config,
                         "--out", str(out)]) == 1

    def test_sweep_cut_to_one_row_is_refused(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        cli.main(["sweep", "--config", tiny_config, "--out", str(out)])
        truncate_sweep(out, 1)
        assert cli.main(["safe-sets", "--config", tiny_config,
                         "--out", str(out)]) == 1
        assert "sweep_meta.json" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_sweep_with_another_s_axis_is_refused(self, tiny_config, tmp_path):
        other = write_config(tmp_path, "other.json",
                             {"grid": {**TINY_CONFIG["grid"], "s": 3}})
        out = tmp_path / "run"
        cli.main(["sweep", "--config", other, "--out", str(out)])
        assert cli.main(["safe-sets", "--config", tiny_config,
                         "--out", str(out)]) == 1

    def test_sweep_of_another_design_on_the_same_axes_is_refused(
            self, tiny_config, tmp_path, capsys):
        other = write_config(tmp_path, "other.json", {
            "model": {"design": "c", "disturbance": "smoke"}})
        out = tmp_path / "run"
        assert cli.main(["sweep", "--config", other, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["safe-sets", "--config", tiny_config,
                         "--out", str(out)]) == 1
        assert "another model or grid config" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_sweep_without_a_sweep_hash_is_refused(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        cli.main(["sweep", "--config", tiny_config, "--out", str(out)])
        edit_sweep_meta(out, lambda meta: meta.pop("sweep_hash"))
        assert cli.main(["safe-sets", "--config", tiny_config,
                         "--out", str(out)]) == 1

    def test_sweep_of_another_schema_version_is_refused(self, tiny_config,
                                                        tmp_path, capsys):
        out = tmp_path / "run"
        cli.main(["sweep", "--config", tiny_config, "--out", str(out)])
        edit_sweep_meta(out, lambda meta: meta.update(
            schema_version=SCHEMA_VERSION + 1))
        with pytest.raises(ValueError, match="schema version"):
            read_configured_sweep(tiny_config, out)
        capsys.readouterr()
        assert cli.main(["safe-sets", "--config", tiny_config,
                         "--out", str(out)]) == 1
        assert (f"schema version {SCHEMA_VERSION + 1}, expected {SCHEMA_VERSION}"
                in capsys.readouterr().err)

    def test_alpha_r_overrides(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        cli.main(["sweep", "--config", tiny_config, "--out", str(out)])
        assert cli.main(["safe-sets", "--config", tiny_config, "--out", str(out),
                         "--alpha", "1.0", "--r", "2.0"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cell_counts"] == {"alpha=1.0,r=2.0": 49}


class TestDeployCommand:
    def test_summary_fields(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["deploy", "--config", tiny_config, "--out", str(out),
                         "--seed", "3"]) == 0
        summary = json.loads((out / "deploy_summary.json").read_text())
        for key in ("s_star", "dp_value", "cvar_hat", "excess_hat",
                    "excess_stderr", "consistency_gap"):
            assert key in summary
        assert summary["num_rollouts"] == 100
        rollouts = (out / "rollouts.csv").read_text().splitlines()
        assert rollouts[1] == "rollout_id,t,x1,x2,z,u,w"
        assert len(rollouts) == 2 + 100 * 21

    def test_csv_max_records_leading_rollouts(self, tmp_path):
        path = write_config(tmp_path, "config.json", {"deploy": {
            **TINY_CONFIG["deploy"], "rollouts": 100, "csv_max": 30}})
        out = tmp_path / "run"
        assert cli.main(["deploy", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "deploy_summary.json").read_text())
        assert summary["num_rollouts"] == summary["num"] == 100
        written = (out / "rollouts.csv").read_bytes()
        assert len(written.splitlines()) == 2 + 30 * 21
        # The same file written from the whole batch cut to 30 rollouts.
        cfg = load_config(path)
        model = build_model(cfg)
        grid = build_grid(cfg, model)
        policy = synthesize_policy(cfg["deploy"]["x0"], cfg["deploy"]["alpha"],
                                   solver.sweep(model, grid), model, grid)
        full = rollout(policy, 100, cfg["seed"], model)
        cut = RolloutBatch(full.states[:, :30], full.zs[:, :30],
                           full.actions[:, :30], full.shocks[:, :30],
                           full.y_prime)
        write_rollouts_csv(str(tmp_path / "ref.csv"), cut, config_hash(cfg))
        assert written == (tmp_path / "ref.csv").read_bytes()

    def test_alpha_one_reports_the_mean(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["deploy", "--config", tiny_config, "--out", str(out),
                         "--alpha", "1.0"]) == 0
        summary = json.loads((out / "deploy_summary.json").read_text())
        assert summary["alpha"] == 1.0
        assert summary["cvar_hat"] == summary["mean_hat"]

    def test_zero_rollouts_reports_dp_only(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["deploy", "--config", tiny_config, "--out", str(out),
                         "--rollouts", "0"]) == 0
        summary = json.loads((out / "deploy_summary.json").read_text())
        assert "dp_value" in summary and "cvar_hat" not in summary
        assert not (out / "rollouts.csv").exists()

    def test_deterministic_reruns(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cli.main(["deploy", "--config", tiny_config, "--out", str(out),
                      "--seed", "12"])
        assert read_tree(out1) == read_tree(out2)

    def test_sweep_of_another_design_and_grid_is_refused(self, tiny_config,
                                                          tmp_path, capsys):
        other = write_config(tmp_path, "other.json", {
            "model": {"design": "b", "disturbance": "smoke"},
            "grid": {"x": [5, 5], "z": 4, "action": 3, "s": 3}})
        base = tmp_path / "other"
        assert cli.main(["sweep", "--config", other, "--out", str(base)]) == 0
        out = tmp_path / "run"
        assert cli.main(["deploy", "--config", tiny_config, "--out", str(out),
                         "--sweep", str(base)]) == 1
        assert "another grid" in capsys.readouterr().err
        assert not (out / "deploy_summary.json").exists()

    def test_sweep_of_another_design_on_the_same_axes_is_refused(
            self, tiny_config, tmp_path, capsys):
        other = write_config(tmp_path, "other.json", {
            "model": {"design": "d", "disturbance": "smoke"}})
        base = tmp_path / "other"
        assert cli.main(["sweep", "--config", other, "--out", str(base)]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert cli.main(["deploy", "--config", tiny_config, "--out", str(out),
                         "--sweep", str(base)]) == 1
        assert "another model or grid config" in capsys.readouterr().err
        assert not (out / "deploy_summary.json").exists()

    def test_sweep_cut_to_one_row_is_refused(self, tiny_config, tmp_path):
        base = tmp_path / "base"
        cli.main(["sweep", "--config", tiny_config, "--out", str(base)])
        truncate_sweep(base, 1)
        out = tmp_path / "run"
        assert cli.main(["deploy", "--config", tiny_config, "--out", str(out),
                         "--sweep", str(base)]) == 1

    def test_x0_override_out_of_bounds(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["deploy", "--config", tiny_config, "--out", str(out),
                         "--x0", "99,1"]) == 2
        assert "config error: deploy.x0[0]" in capsys.readouterr().err
        assert not out.exists()  # refused before the sweep ran


def edit_meta(edit):
    return lambda sweep_dir: edit_sweep_meta(sweep_dir, edit)


def write_meta(text):
    return lambda sweep_dir: (sweep_dir / "sweep_meta.json").write_text(text)


def edit_csv(edit):
    return lambda sweep_dir: edit_sweep_csv(sweep_dir, edit)


# Edits of a tiny sweep (s axis 0, 0.5, ..., 2) after which reading it for
# the tiny config is refused, and the file the refusal names.
REFUSED_SWEEPS = {
    "other-schema-version": ("sweep_meta.json", edit_meta(
        lambda meta: meta.update(schema_version=SCHEMA_VERSION + 1))),
    "schema-version-true": ("sweep_meta.json", edit_meta(
        lambda meta: meta.update(schema_version=True))),
    "meta-not-json": ("sweep_meta.json", write_meta("{")),
    "meta-not-an-object": ("sweep_meta.json", write_meta("[]")),
    "no-x-axes": ("sweep_meta.json", edit_meta(lambda meta: meta.pop("x_axes"))),
    "no-z-axis": ("sweep_meta.json", edit_meta(lambda meta: meta.pop("z_axis"))),
    "no-action-axis": ("sweep_meta.json", edit_meta(
        lambda meta: meta.pop("action_axis"))),
    "no-s-axis": ("sweep_meta.json", edit_meta(lambda meta: meta.pop("s_axis"))),
    "no-sweep-hash": ("sweep_meta.json", edit_meta(
        lambda meta: meta.pop("sweep_hash"))),
    "z-axis-string": ("sweep_meta.json", edit_meta(
        lambda meta: meta.update(z_axis="0.0,0.5"))),
    "x-axis-string-node": ("sweep_meta.json", edit_meta(
        lambda meta: meta["x_axes"][0].__setitem__(0, "0.0"))),
    "s-axis-bools": ("sweep_meta.json", edit_meta(
        lambda meta: meta.update(s_axis=[False, True]))),
    "sweep-hash-number": ("sweep_meta.json", edit_meta(
        lambda meta: meta.update(sweep_hash=7))),
    "other-x-axis": ("sweep_meta.json", edit_meta(
        lambda meta: meta["x_axes"][1].__setitem__(-1, 6.5))),
    "fewer-x-axes": ("sweep_meta.json", edit_meta(
        lambda meta: meta["x_axes"].pop())),
    "other-z-axis": ("sweep_meta.json", edit_meta(
        lambda meta: meta["z_axis"].append(3.0))),
    "other-action-axis": ("sweep_meta.json", edit_meta(
        lambda meta: meta["action_axis"].__setitem__(1, 0.3))),
    "other-s-axis": ("sweep_meta.json", edit_meta(
        lambda meta: meta["s_axis"].__setitem__(1, 0.25))),
    "other-sweep-hash": ("sweep_meta.json", edit_meta(
        lambda meta: meta.update(sweep_hash="0" * 12))),
    "one-row": ("sweep.csv", edit_csv(lambda rows: rows.__delitem__(
        slice(1, None)))),
    "extra-row": ("sweep.csv", edit_csv(lambda rows: rows.append(rows[-1]))),
    "short-row": ("sweep.csv", edit_csv(lambda rows: rows[2].pop())),
    "long-row": ("sweep.csv", edit_csv(lambda rows: rows[2].append("0.0"))),
    "edited-s": ("sweep.csv", edit_csv(lambda rows: rows[1].__setitem__(
        0, "0.25"))),
    "reversed-rows": ("sweep.csv", edit_csv(lambda rows: rows.reverse())),
    "text-cell": ("sweep.csv", edit_csv(lambda rows: rows[0].__setitem__(
        3, "x"))),
    "nan-cell": ("sweep.csv", edit_csv(lambda rows: rows[0].__setitem__(
        3, "nan"))),
    "inf-cell": ("sweep.csv", edit_csv(lambda rows: rows[2].__setitem__(
        1, "inf"))),
    "negative-cell": ("sweep.csv", edit_csv(lambda rows: rows[4].__setitem__(
        5, "-0.5"))),
}


class TestSweepProvenance:
    @pytest.mark.parametrize("case", sorted(REFUSED_SWEEPS))
    def test_refused_naming_the_file(self, tiny_config, tmp_path, capsys, case):
        filename, edit = REFUSED_SWEEPS[case]
        base = tmp_path / "base"
        assert cli.main(["sweep", "--config", tiny_config, "--out", str(base)]) == 0
        edit(base)
        capsys.readouterr()
        for command in ("safe-sets", "deploy"):
            out = tmp_path / command
            assert cli.main([command, "--config", tiny_config, "--out", str(out),
                             "--sweep", str(base)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {base}/{filename}"), err
            assert "finished in" not in err
            assert not list(out.glob("*.json"))

    def test_unreadable_file_refused_naming_it(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["sweep", "--config", tiny_config, "--out", str(out)]) == 0
        (out / "sweep.csv").unlink()
        (out / "sweep.csv").mkdir()
        capsys.readouterr()
        assert cli.main(["safe-sets", "--config", tiny_config,
                         "--out", str(out)]) == 1
        assert f"{out}/sweep.csv" in capsys.readouterr().err

    def test_untouched_sweep_is_read_back_exactly(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["sweep", "--config", tiny_config, "--out", str(out)]) == 0
        v0, grid, _ = read_configured_sweep(tiny_config, out)
        cfg = load_config(tiny_config)
        assert np.array_equal(v0, solver.sweep(build_model(cfg), grid))


def test_one_timing_line_per_command(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    for argv in (["sweep", "--config", tiny_config],
                 ["safe-sets", "--config", tiny_config],
                 ["deploy", "--config", tiny_config, "--sweep", str(out)],
                 ["compare-designs", "--config", tiny_config],
                 ["oracle", "--count", "1"]):
        assert cli.main(argv + ["--out", str(out)]) == 0
        timing = [line for line in capsys.readouterr().err.splitlines()
                  if "finished in" in line]
        assert len(timing) == 1
        assert re.fullmatch(rf"{argv[0]} finished in \d+\.\d\ds -> "
                            + re.escape(str(out)), timing[0])


class TestOracleCommand:
    def test_generated_corpus_passes(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["oracle", "--count", "6", "--seed", "5",
                         "--out", str(out)]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["checked"] == 6 and report["failures"] == []

    def test_shipped_corpus_passes(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["oracle", "--out", str(out)]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["checked"] >= 50

    def test_corrupted_corpus(self, tmp_path, capsys):
        # A config error: exit 2 naming the file, and no timing line.
        bad = tmp_path / "bad.json"
        bad.write_text('{"instances": [,]}')
        assert cli.main(["oracle", "--corpus", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: corpus parse failed: "), err
        assert "finished in" not in err

    @pytest.mark.parametrize("schema", [None, 2, True, 1.0],
                             ids=["missing", "2", "true", "1.0"])
    def test_corpus_of_another_schema_refused(self, tmp_path, capsys, schema):
        # Only JSON exactly 1 is this schema; an empty corpus would pass.
        payload = {"instances": []}
        if schema is not None:
            payload["schema"] = schema
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert cli.main(["oracle", "--corpus", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: {bad}: corpus parse failed: schema: "), err

    def test_corpus_row_off_by_1e_10_refused_at_parse(self, tmp_path, capsys):
        # Rows are checked at the tolerance the oracle's Pmfs use, so a row
        # summing to 1 + 1e-10 is a parse error, not a failure mid-check.
        inst = {"actions": [0.0], "c_bar": 2.0, "cost": [[0.5], [1.0]],
                "horizon": 1, "next": [[[0, 1]], [[0, 1]]],
                "probs": [[[0.5, 0.5000000001]], [[0.5, 0.5]]],
                "states": [0.0, 1.0], "terminal": [0.5, 1.5], "x0": 0}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "instances": [inst]}))
        out = tmp_path / "o"
        assert cli.main(["oracle", "--corpus", str(bad), "--out", str(out)]) == 2
        assert "corpus parse failed" in capsys.readouterr().err
        assert not out.exists()

    def test_corpus_states_whose_span_overflows_refused_at_parse(
            self, tmp_path, capsys):
        inst = {"actions": [0.0], "c_bar": 2.0, "cost": [[0.5], [1.0], [1.5]],
                "horizon": 1, "next": [[[0, 1]], [[1, 2]], [[2, 2]]],
                "probs": [[[0.5, 0.5]], [[0.5, 0.5]], [[0.5, 0.5]]],
                "states": [-1e308, 0.0, 1e308], "terminal": [0.5, 1.5, 2.0],
                "x0": 1}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "instances": [inst]}))
        assert cli.main(["oracle", "--corpus", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "corpus parse failed" in err and "finite span" in err

    def test_corpus_nan_probability_refused_at_parse(self, tmp_path, capsys):
        inst = {"actions": [0.0], "c_bar": 2.0, "cost": [[0.5], [1.0]],
                "horizon": 1, "next": [[[0, 1]], [[0, 1]]],
                "probs": [[[math.nan, 1.0]], [[0.5, 0.5]]],
                "states": [0.0, 1.0], "terminal": [0.5, 1.5], "x0": 0}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "instances": [inst]}))
        assert cli.main(["oracle", "--corpus", str(bad)]) == 2
        assert "corpus parse failed" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        {"horizon": 2.7}, {"x0": 0.9}, {"next": [[[0.6, 1]], [[0, 1]]]},
        {"horizon": True}, {"horizon": "2"}, {"x0": "1"},
        {"next": [[["0", "1"]], [[0, 1]]]}, {"next": [[[True, 1]], [[0, 1]]]},
        {"c_bar": "2"}, {"states": ["0", 1.0]}, {"actions": [True]},
        {"states": [math.nan], "cost": [[0.5]], "terminal": [0.5],
         "next": [[[0, 0]]], "probs": [[[0.5, 0.5]]]},
        {"horizon": [1]}, {"c_bar": [2.0]}, {"x0": [0]},
    ], ids=["horizon-fraction", "x0-fraction", "next-fraction", "horizon-bool",
            "horizon-string", "x0-string", "next-strings", "next-bool",
            "c_bar-string", "states-string", "actions-bool", "single-nan-state",
            "horizon-list", "c_bar-list", "x0-list"])
    def test_corpus_bad_number_refused_at_parse(self, tmp_path, capsys, fields):
        # A number is never truncated, nor read from a string or a bool.
        inst = {"actions": [0.0], "c_bar": 2.0, "cost": [[0.5], [1.0]],
                "horizon": 1, "next": [[[0, 1]], [[0, 1]]],
                "probs": [[[0.5, 0.5]], [[0.5, 0.5]]],
                "states": [0.0, 1.0], "terminal": [0.5, 1.5], "x0": 0, **fields}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "instances": [inst]}))
        assert cli.main(["oracle", "--corpus", str(bad)]) == 2
        assert "corpus parse failed" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["number-record", "instances-number",
                                      "list-record"])
    def test_malformed_corpus_refused_at_parse(self, tmp_path, capsys, case):
        inst = {"actions": [0.0], "c_bar": 2.0, "cost": [[0.5], [1.0]],
                "horizon": 1, "next": [[[0, 1]], [[0, 1]]],
                "probs": [[[0.5, 0.5]], [[0.5, 0.5]]],
                "states": [0.0, 1.0], "terminal": [0.5, 1.5], "x0": 0}
        instances, where = {"number-record": ([5], "instances[0]"),
                            "instances-number": (5, "instances"),
                            "list-record": ([inst, [inst]], "instances[1]")}[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "instances": instances}))
        assert cli.main(["oracle", "--corpus", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {bad}: corpus parse failed: {where}: " in err

    def test_empty_corpus_warns_and_passes(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"schema": 1, "instances": []}')
        assert cli.main(["oracle", "--corpus", str(empty)]) == 0

    def test_budget_refusals_reported(self, tmp_path, capsys):
        # Instances 0 and 1 have one policy each; 2 and 3 exceed the budget.
        # The report is what the benchmark's oracle workload reads.
        out = tmp_path / "run"
        assert cli.main(["oracle", "--count", "4", "--seed", "2", "--budget", "1",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        for i, alpha, status in ((0, 0.05, "ok"), (1, 0.25, "ok"),
                                 (2, 0.5, "FAIL"), (3, 0.99, "FAIL")):
            assert f"  instance {i}: alpha={alpha} {status}\n" in err
        assert "oracle: 4 instances checked: FAIL (2 mismatches)" in err
        report = json.loads((out / "oracle_report.json").read_text())
        assert report == {"schema_version": SCHEMA_VERSION, "checked": 4, "failures": [
            {"instance": 2, "alpha": 0.5,
             "error": "243 policies exceed the enumeration budget 1"},
            {"instance": 3, "alpha": 0.99,
             "error": "32 policies exceed the enumeration budget 1"}]}

    def test_pipeline_gap_reported(self, tmp_path, capsys, monkeypatch):
        # A grid pipeline off by 1e-6 fails every instance with its gap.
        exact = cli._pipeline_value
        monkeypatch.setattr(cli, "_pipeline_value",
                            lambda inst, alpha: exact(inst, alpha) + 1e-6)
        out = tmp_path / "run"
        assert cli.main(["oracle", "--count", "2", "--seed", "5",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "instance 0: alpha=0.05 FAIL" in err
        assert "instance 1: alpha=0.25 FAIL" in err
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["checked"] == 2
        assert [(f["instance"], f["alpha"]) for f in report["failures"]] == [
            (0, 0.05), (1, 0.25)]
        for failure in report["failures"]:
            label, gap = failure["error"].rsplit(" ", 1)
            assert label == "pipeline gap"
            assert abs(float(gap) - 1e-6) <= 1e-15

    def test_cross_check_refusal_reported(self, tmp_path, monkeypatch):
        # An exchange identity off by 1e-6 is refused with an error naming
        # both values, and the command reports it as the instance's failure.
        inst = generate_corpus(5, 1)[0]
        alpha = cli._ORACLE_ALPHAS[0]
        res = exact_optimal_cvar(inst, alpha)
        exact = oracle.exchange_identity_value
        monkeypatch.setattr(oracle, "exchange_identity_value",
                            lambda inst, alpha: exact(inst, alpha) + 1e-6)
        error = (f"policy enumeration ({res.value!r}) and exchange identity "
                 f"({res.exchange_value + 1e-6!r}) disagree beyond "
                 f"{oracle.IDENTITY_TOL}")
        with pytest.raises(OracleError) as refused:
            exact_optimal_cvar(inst, alpha)
        assert str(refused.value) == error
        corpus = tmp_path / "one.json"
        save_corpus(corpus, [inst])
        out = tmp_path / "run"
        assert cli.main(["oracle", "--corpus", str(corpus), "--out", str(out)]) == 1
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["failures"] == [{"instance": 0, "alpha": alpha, "error": error}]

    def test_write_corpus(self, tmp_path, capsys):
        target = tmp_path / "corpus.json"
        assert cli.main(["oracle", "--count", "3", "--seed", "2",
                         "--write-corpus", str(target)]) == 0
        assert json.loads(target.read_text())["schema"] == 1
        assert "instance 2: alpha=0.5 ok" in capsys.readouterr().err


class TestCompareDesignsCommand:
    def test_counts_csv(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "model": {"disturbance": "smoke"},
            "grid": {"x": [7, 7], "z": 4, "action": 4, "s": 4},
            "alphas": [0.99],
            "rs": [1.0],
        }))
        out = tmp_path / "run"
        assert cli.main(["compare-designs", "--config", str(cfg),
                         "--out", str(out)]) == 0
        lines = (out / "design_counts.csv").read_text().splitlines()
        assert lines[1] == "design,alpha,r,cells,ratio_vs_a"
        assert len(lines) == 2 + 4
        base_row = lines[2].split(",")
        assert base_row[0] == "a" and base_row[4] == "0.0"


class TestReadmeConfiguration:
    def test_example_config_resolves_and_builds(self):
        # The JSON block under README "### Configuration" must stay a valid
        # config, so the documented example cannot drift from the parser.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        cfg = resolve_config(json.loads(block))
        grid = build_grid(cfg, build_model(cfg))
        assert grid.x_shape == tuple(cfg["grid"]["x"])


class TestConfigErrors:
    def test_unknown_field_path_in_message(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": {"nx": 5}}))
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        assert "grid.nx" in capsys.readouterr().err

    def test_bad_alpha_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"alphas": [0.5, 7.0]}))
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        assert "alphas[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}"],
                             ids=["not-json", "not-utf8"])
    def test_malformed_json(self, tmp_path, capsys, content):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(content)
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {cfg}: " in capsys.readouterr().err

    def test_config_root_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[]")
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {cfg}: config root must be a JSON object\n"

    def test_section_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": 5}))
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: grid: expected an object\n"

    def test_atom_list_law_must_sum_to_one(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": {
            "disturbance": [[10.0, 0.5], [14.0, 0.5000000001]]}}))
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: model.disturbance: atom probabilities sum to "
            "1.0000000001, expected 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("grid", [{"z": "abc"}, {"s": 2.5},
                                      {"x": [7, None]}])
    def test_non_integer_grid_count(self, tmp_path, capsys, grid):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": grid}))
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        field = next(iter(grid))
        assert f"config error: grid.{field}" in capsys.readouterr().err

    def test_removed_reoptimize_field_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "config.json", {"deploy": {
            **TINY_CONFIG["deploy"], "reoptimize": True}})
        out = tmp_path / "o"
        assert cli.main(["deploy", "--config", path, "--out", str(out)]) == 2
        assert "deploy.reoptimize: unknown field" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_threads_rejected(self, tiny_config, tmp_path, capsys):
        assert cli.main(["sweep", "--config", tiny_config, "--threads", "0",
                         "--out", str(tmp_path / "o")]) == 2
        assert "threads: count must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("csv_max", ["lots", 2.5])
    def test_non_integer_csv_max(self, tmp_path, capsys, csv_max):
        path = write_config(tmp_path, "config.json", {"deploy": {
            **TINY_CONFIG["deploy"], "csv_max": csv_max}})
        out = tmp_path / "o"
        assert cli.main(["deploy", "--config", path, "--out", str(out)]) == 2
        assert "config error: deploy.csv_max" in capsys.readouterr().err
        assert not out.exists()  # refused before the sweep ran

    def test_oracle_count_zero_checks_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["oracle", "--count", "0", "--out", str(out)]) == 0
        assert "empty corpus, nothing verified" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_oracle_count_rejected(self, tmp_path, capsys):
        # --seed and --budget are checked like --count, naming the flag.
        out = tmp_path / "o"
        for flags, error in ((["--count", "-1"], "--count: must be >= 0"),
                             (["--seed", "-1"], "--seed: must be >= 0"),
                             (["--budget", "-1"], "--budget: must be >= 1"),
                             (["--budget", "0"], "--budget: must be >= 1")):
            argv = ["oracle", "--count", "2", *flags, "--out", str(out)]
            assert cli.main(argv) == 2, flags
            assert f"config error: {error}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("flags, error", [
        (["--corpus", "CORPUS", "--count", "3"],
         "--count: cannot be used with --corpus"),
        (["--corpus", "CORPUS", "--count", "3", "--seed", "1"],
         "--count: cannot be used with --corpus"),
        (["--seed", "4"], "--seed: seeds a generated corpus, needs --count"),
        (["--corpus", "CORPUS", "--seed", "4"],
         "--seed: seeds a generated corpus, needs --count"),
    ], ids=["count-with-corpus", "count-and-seed-with-corpus",
            "seed-with-shipped-corpus", "seed-with-corpus"])
    def test_ignored_oracle_flag_rejected(self, tmp_path, capsys, flags, error):
        # A flag the chosen corpus would not use is refused, not dropped.
        corpus = tmp_path / "corpus.json"
        assert cli.main(["oracle", "--count", "1", "--write-corpus",
                         str(corpus)]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        argv = [str(corpus) if flag == "CORPUS" else flag for flag in flags]
        assert cli.main(["oracle", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {error}\n"
        assert not out.exists()

    def test_oracle_count_without_seed_uses_seed_zero(self, tmp_path):
        paths = [tmp_path / "default.json", tmp_path / "zero.json"]
        for path, seed in zip(paths, ([], ["--seed", "0"])):
            assert cli.main(["oracle", "--count", "3", *seed,
                             "--write-corpus", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("flag, value, field", [
        ("--alpha", "", "alphas"),
        ("--alpha", "0.5,abc", "alphas"),
        ("--alpha", "0.5,nan", "alphas[1]"),
        ("--r", "x", "rs"),
    ])
    def test_bad_list_override(self, tiny_config, tmp_path, capsys,
                               flag, value, field):
        assert cli.main(["safe-sets", "--config", tiny_config, flag, value,
                         "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--x0", "a,b", "deploy.x0"),
        ("--x0", "9,1", "deploy.x0[0]"),
        ("--alpha", "1.5", "deploy.alpha"),
        ("--seed", "-1", "seed"),
    ])
    def test_bad_deploy_override(self, tiny_config, tmp_path, capsys,
                                 flag, value, field):
        out = tmp_path / "o"
        assert cli.main(["deploy", "--config", tiny_config, flag, value,
                         "--out", str(out)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()  # refused before the sweep ran

    @pytest.mark.parametrize("overrides, field", [
        ({"alphas": ["x"]}, "alphas[0]"),
        ({"alphas": [True]}, "alphas[0]"),
        ({"rs": [1.0, "x"]}, "rs[1]"),
        ({"deploy": {**TINY_CONFIG["deploy"], "alpha": "x"}}, "deploy.alpha"),
        ({"deploy": {**TINY_CONFIG["deploy"], "x0": ["a", 1]}}, "deploy.x0[0]"),
        ({"deploy": {**TINY_CONFIG["deploy"], "x0": [2.5, None]}}, "deploy.x0[1]"),
        ({"seed": "x"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": "3"}, "seed"),
        ({"seed": " 3 "}, "seed"),
        ({"threads": "2"}, "threads"),
        ({"grid": {**TINY_CONFIG["grid"], "x": ["7", 7]}}, "grid.x[0]"),
        ({"model": {"disturbance": "smoke", "params": {"horizon": "5"}}},
         "model.params.horizon"),
        ({"model": {"disturbance": [["12", 1]]}}, "model.disturbance[0][0]"),
        ({"model": {"disturbance": [[True, 1]]}}, "model.disturbance[0][0]"),
        ({"model": {"disturbance": [[12.0, "1"]]}}, "model.disturbance[0][1]"),
        ({"model": {"disturbance": [[10.0, math.nan], [14.0, 1.0]]}},
         "model.disturbance[0][1]"),
        ({"rs": [[1.0]]}, "rs[0]"),
        ({"deploy": {**TINY_CONFIG["deploy"], "x0": [[2.5], 3.0]}}, "deploy.x0[0]"),
        ({"model": {"disturbance": [[[10.0], 1.0]]}}, "model.disturbance[0][0]"),
    ])
    def test_non_numeric_config_field(self, tmp_path, capsys, overrides, field):
        path = write_config(tmp_path, "config.json", overrides)
        out = tmp_path / "o"
        assert cli.main(["deploy", "--config", path, "--out", str(out)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("design, params, error", [
        ("a", {"a1": "x"}, "model.params.a1: expected a finite number"),
        ("a", {"horizon": 2.5}, "model.params.horizon: expected an integer"),
        ("b", {"pump": {"eps": None}},
         "model.params.pump.eps: expected a finite number"),
    ], ids=["a1", "horizon", "pump.eps"])
    def test_bad_param_value(self, tmp_path, capsys, design, params, error):
        path = write_config(tmp_path, "config.json", {"model": {
            "design": design, "params": params}})
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 2
        assert f"config error: {error}" in capsys.readouterr().err
        assert not out.exists()

    # The kinds come from the parameter dataclasses: every int field is a
    # count, and every pump field a number.
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(
        StormwaterParams) if f.type == "int"])
    def test_every_int_param_is_a_count(self, name):
        with pytest.raises(ConfigError, match=re.escape(
                f"model.params.{name}: expected an integer count, got 1.5")):
            resolve_config({"model": {"params": {name: 1.5}}})

    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(PumpParams)])
    def test_every_pump_param_is_a_number(self, name):
        with pytest.raises(ConfigError, match=re.escape(
                f"model.params.pump.{name}: expected a finite number, got 'x'")):
            resolve_config({"model": {"design": "b",
                                      "params": {"pump": {name: "x"}}}})

    def test_numbers_are_checked_not_converted(self):
        # An int stays an int, so the config hash of a valid file is unchanged.
        cfg = resolve_config({"alphas": [1], "deploy": {"x0": [2, 3]}})
        assert type(cfg["alphas"][0]) is int
        assert type(cfg["deploy"]["x0"][0]) is int

    def test_resolved_config_does_not_share_the_defaults(self):
        cfg = resolve_config({})
        cfg["deploy"]["x0"][0] = 9.0
        cfg["grid"]["z"] = 3
        assert resolve_config({})["deploy"]["x0"] == [2.5, 3.0]
        assert resolve_config({})["grid"]["z"] == 11

    def test_pump_params_on_baseline_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {"model": {"design": "a", "params": {"pump": {"q_max": 5.0}}}}))
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        assert "required exactly for design b" in capsys.readouterr().err

    def test_params_override_changes_the_sweep(self, tiny_config, tmp_path):
        path = write_config(tmp_path, "a2.json", {"model": {
            **TINY_CONFIG["model"], "params": {"a2": 11000.0}}})
        for name, config in (("default", tiny_config), ("a2", path)):
            assert cli.main(["sweep", "--config", config,
                             "--out", str(tmp_path / name)]) == 0
        rows = [(tmp_path / name / "sweep.csv").read_text().splitlines()[2:]
                for name in ("default", "a2")]
        assert rows[0] != rows[1]

    def test_configured_pump_kept_for_design_b_only(self, tmp_path,
                                                    monkeypatch):
        pumps = {}
        prepare = cli._prepare

        def recording_prepare(cfg):
            pumps[cfg["model"]["design"]] = cfg["model"]["params"].get("pump")
            return prepare(cfg)

        monkeypatch.setattr(cli, "_prepare", recording_prepare)
        path = write_config(tmp_path, "config.json", {"model": {
            **TINY_CONFIG["model"], "design": "b",
            "params": {"pump": {"q_max": 5.0}}}})
        assert cli.main(["compare-designs", "--config", path,
                         "--out", str(tmp_path / "o")]) == 0
        assert pumps == {"a": None, "b": {"q_max": 5.0}, "c": None, "d": None}
