"""End-to-end CLI tests: artifacts, determinism, error paths."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from cvarsafe import cli, dp, solver
from cvarsafe.artifacts import SCHEMA_VERSION, read_sweep, write_tables_csv
from cvarsafe.config import build_grid, build_model, load_config, resolve_config

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
        dsweep, grid, chash = read_sweep(str(out))
        assert dsweep.v0.shape == (5, 49)
        assert np.all(dsweep.v0[-1] == 0.0)
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
        chash = read_sweep(str(out))[2]
        for csv in sorted(out.glob("*.csv")):
            lines = csv.read_text().splitlines()
            assert lines[0] == f"# config={chash}", csv.name
            data = lines[3:] if lines[1].startswith("# s=") else lines[2:]
            bad = [c for line in data for c in line.split(",")
                   if not is_canonical_cell(c)]
            assert not bad, (csv.name, bad[:3])

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
        chash = read_sweep(str(out))[2]
        for s in grid.s_axis:
            ref = tmp_path / "ref.csv"
            write_tables_csv(str(ref), *dp.value_iteration(float(s), model, grid),
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
            read_sweep(str(out))
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

    def test_corrupted_corpus(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"instances": [,]}')
        assert cli.main(["oracle", "--corpus", str(bad)]) == 2

    def test_empty_corpus_warns_and_passes(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"schema": 1, "instances": []}')
        assert cli.main(["oracle", "--corpus", str(empty)]) == 0

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

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("grid", [{"z": "abc"}, {"s": 2.5},
                                      {"x": [7, None]}])
    def test_non_integer_grid_count(self, tmp_path, capsys, grid):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": grid}))
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        field = next(iter(grid))
        assert f"config error: grid.{field}" in capsys.readouterr().err

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
        assert cli.main(["oracle", "--count", "-1",
                         "--out", str(tmp_path / "o")]) == 2
        assert "config error: --count: must be >= 0" in capsys.readouterr().err

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
    ])
    def test_non_numeric_config_field(self, tmp_path, capsys, overrides, field):
        path = write_config(tmp_path, "config.json", overrides)
        out = tmp_path / "o"
        assert cli.main(["deploy", "--config", path, "--out", str(out)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_pump_params_on_baseline_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {"model": {"design": "a", "params": {"pump": {"q_max": 5.0}}}}))
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
