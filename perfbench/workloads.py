"""The benchmark's two workloads, run through ``cvarsafe.cli.main``.

Each workload makes its inputs from the seed in ``setup``, runs its timed
operations in ``run_pass``, and reads the answers back from the artifacts
for checking against ``reference.json``. Why these two:

  baseline-pipeline  ``sweep -> safe-sets -> deploy`` on the coarse baseline
                     (design a, 9-atom law, 25x25x11 grid, 11 actions, 21 s
                     values, 1e5 rollouts), then ``oracle --corpus`` on a
                     seeded corpus of tiny instances. The dual sweep takes
                     nearly all of the time, so it stresses dp and solver;
                     the oracle's enumeration and tiny sweeps keep the
                     oracle layer and the per-call costs of dp and solver
                     measured.
  deploy-mc          ``deploy --sweep`` with 1e6 rollouts from a smoke-law
                     sweep made in set-up, at an (x0, alpha) whose s* is
                     interior. It stresses rollout with its grids and models
                     calls; dp runs one value iteration.

The oracle corpus is a small share of ``baseline-pipeline`` rather than a
workload of its own: its pure-Python enumeration slows by up to a factor
of two, for minutes at a time, when the host's other tenants are busy, so
on a shared host its wall time cannot be compared between runs, while the
numpy-bound sweep and rollouts move about a third as much.

An operation is one CLI command or one oracle instance. It fails on a
nonzero exit, an exception or a failed answer check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from cvarsafe import cli, config as config_mod
from cvarsafe.oracle import generate_corpus, save_corpus

V0_TOL = 1e-9      # sweep values and DP values against the reference
MC_SIGMAS = 3.0    # Monte Carlo estimates, in combined standard errors


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``FULL`` is the benchmark, the self-test uses a tiny one."""

    grid: dict
    smoke_s: int           # s values of the deploy-mc sweep
    baseline_rollouts: int
    mc_rollouts: int
    corpus_work: float     # oracle corpus size, in ``corpus_work_units``


# The baseline grid is that of configs/coarse-baseline.json. The deploy-mc
# sweep uses every fifth s value of it: s* = 1.0 lies on both axes, so the
# policy and its DP value are the same at a quarter of the set-up cost.
FULL = Scale({"x": [25, 25], "z": 11, "action": 11, "s": 21}, smoke_s=5,
             baseline_rollouts=100_000, mc_rollouts=1_000_000,
             corpus_work=20_000)  # about 80 instances, 1.3 s a pass


@dataclass
class PassResult:
    """Timed operations of one pass and what they left behind."""

    seconds: float = 0.0
    cpu_s: float = 0.0    # process CPU time of the pass, answer reading included
    command_s: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)  # (name, instances, error or None)
    answers: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)


def run_cli(argv):
    """One CLI command in this process; returns (exit code, seconds, log).

    An exception or a ``SystemExit`` counts as a failed command, with the
    traceback in the log.
    """
    log = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(log):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a failed operation, not a benchmark crash
        rc = None
        log.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, log.getvalue()


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_sweep_csv(path):
    """(s values, v0 rows) of a sweep.csv, parsed independently of the program."""
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return data[:, 0], data[:, 1:]


def s_star_at_ends(s, v0, alpha) -> float:
    """Share of state nodes whose minimizing s is 0 or c_bar (the last s)."""
    s_star = s[np.argmin(s[:, None] + v0 / alpha, axis=0)]
    return float(np.mean((s_star == s[0]) | (s_star == s[-1])))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _deploy_answers(summary) -> dict:
    return {k: summary[k] for k in ("s_star", "dp_value", "excess_hat",
                                    "excess_stderr")}


def _deploy_health(summary) -> dict:
    gap = abs(summary["excess_hat"] - summary["dp_value"])
    se = summary["excess_stderr"]
    return {"consistency_gap": gap,
            "consistency_gap_stderr_units": gap / se if se > 0 else None}


def check_sweep(got, ref) -> list:
    s, v0 = np.asarray(got["s"]), np.asarray(got["v0"])
    s_ref, v0_ref = np.asarray(ref["s"]), np.asarray(ref["v0"])
    if s.shape != s_ref.shape or v0.shape != v0_ref.shape:
        return [f"sweep shape {v0.shape} != reference {v0_ref.shape}"]
    if not np.array_equal(s, s_ref):
        return ["sweep s axis differs from the reference"]
    err = float(np.max(np.abs(v0 - v0_ref)))
    return [] if err <= V0_TOL else [f"v0 differs from the reference by {err!r}"]


def check_deploy(got, ref) -> list:
    errors = []
    if got["s_star"] != ref["s_star"]:
        errors.append(f"s* {got['s_star']!r} != reference {ref['s_star']!r}")
    if abs(got["dp_value"] - ref["dp_value"]) > V0_TOL:
        errors.append(f"dp_value {got['dp_value']!r} != reference {ref['dp_value']!r}")
    se = math.hypot(got["excess_stderr"], ref["excess_stderr"])
    if abs(got["excess_hat"] - ref["excess_hat"]) > MC_SIGMAS * se:
        errors.append(f"excess_hat {got['excess_hat']!r} is more than {MC_SIGMAS} "
                      f"combined stderr from reference {ref['excess_hat']!r}")
    return errors


class Workload:
    """Set-up, timed passes, answers and health of one workload."""

    name = ""

    def __init__(self, scale: Scale, seed: int, workdir: str, threads: int):
        self.scale = scale
        self.seed = int(seed)
        self.workdir = workdir
        self.threads = int(threads)
        self.setup_answers = {}

    def _write_config(self, cfg: dict) -> str:
        path = os.path.join(self.workdir, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        return path

    def _command(self, result: PassResult, name: str, argv) -> bool:
        rc, seconds, log = run_cli(argv)
        result.command_s[name] = seconds
        ok = rc == 0
        result.ops.append([name, 1, None if ok else f"exit {rc}: {log[-2000:]}"])
        return ok

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, out_dir: str) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult, reference) -> None:
        """Mark the operations whose answers disagree with ``reference``."""
        raise NotImplementedError

    def check_setup(self, reference) -> list:
        """Errors in the inputs that set-up made, against ``reference``."""
        return []

    def sizes(self) -> dict:
        raise NotImplementedError

    def health(self, result: PassResult) -> dict:
        return {}


class _SweepWorkload(Workload):
    """A workload on one stormwater config: records its grid and operator sizes."""

    def _resolve(self, cfg: dict) -> None:
        self.cfg = config_mod.resolve_config(cfg)
        model = config_mod.build_model(self.cfg)
        grid = config_mod.build_grid(self.cfg, model)
        self._sizes = {
            "n_x": grid.n_xnodes, "n_z": grid.z_axis.size,
            "n_u": grid.action_axis.size, "n_w": len(model.static_disturbance),
            "corners": 2 ** grid.state_dim, "n_s": grid.s_axis.size,
            "horizon": model.horizon,
        }
        self.config_path = self._write_config(cfg)

    def sizes(self) -> dict:
        return self._sizes


def corpus_work_units(inst) -> float:
    """Estimated oracle cost of one instance, in policy evaluations.

    Enumeration evaluates every policy by walking every disturbance path
    (all atoms have positive probability); the per-instance sweep costs
    about 40 evaluations. Fitted to per-instance timings (R^2 = 0.99).
    """
    nodes = sum(inst.n_atoms ** t for t in range(inst.horizon + 1))
    return 40 + inst.policy_count() * (1 + 0.03 * nodes)


def make_corpus(seed: int, work: float, pool_size: int = 500):
    """The shortest prefix of ``generate_corpus(seed, pool_size)`` whose
    estimated work reaches ``work``.

    Instance costs span three orders of magnitude, so a fixed count would
    make the work depend on the seed; a fixed work budget does not.
    """
    pool = generate_corpus(seed, pool_size)
    cumulative = np.cumsum([corpus_work_units(i) for i in pool])
    count = int(np.searchsorted(cumulative, work)) + 1
    if count > len(pool):
        raise RuntimeError(f"{len(pool)} instances hold less than the work budget")
    return pool[:count]


class BaselinePipeline(_SweepWorkload):
    name = "baseline-pipeline"

    def setup(self) -> None:
        self._resolve({
            "model": {"design": "a", "disturbance": "default"},
            "grid": self.scale.grid,
            "alphas": [0.99, 0.05, 0.005],
            "rs": [0.2, 1.0, 1.8],
            "deploy": {"x0": [2.5, 3.0], "alpha": 0.05,
                       "rollouts": self.scale.baseline_rollouts},
        })
        self.corpus = make_corpus(self.seed, self.scale.corpus_work)
        self.corpus_path = os.path.join(self.workdir, "corpus.json")
        save_corpus(self.corpus_path, self.corpus)

    def run_pass(self, out_dir: str) -> PassResult:
        base, dep = os.path.join(out_dir, "base"), os.path.join(out_dir, "deploy")
        cfg = ["--config", self.config_path]
        result = PassResult()
        t0 = time.perf_counter()
        (self._command(result, "sweep", ["sweep", *cfg, "--out", base,
                                         "--threads", str(self.threads)])
         and self._command(result, "safe-sets", ["safe-sets", *cfg, "--out", base])
         and self._command(result, "deploy", ["deploy", *cfg, "--out", dep,
                                              "--sweep", base,
                                              "--seed", str(self.seed)]))
        self._oracle(result, os.path.join(out_dir, "oracle"))
        result.seconds = time.perf_counter() - t0
        done = {op[0] for op in result.ops if op[2] is None}
        if "sweep" in done:
            s, v0 = read_sweep_csv(f"{base}/sweep.csv")
            result.answers["sweep"] = {"s": s.tolist(), "v0": v0.tolist()}
            result.hashes["sweep.csv"] = sha256(f"{base}/sweep.csv")
        if "safe-sets" in done:
            summary = _load_json(f"{base}/summary.json")
            result.answers["safe-sets"] = {"cell_counts": summary["cell_counts"]}
            result.hashes["summary.json"] = sha256(f"{base}/summary.json")
        if "deploy" in done:
            result.answers["deploy"] = _deploy_answers(
                _load_json(f"{dep}/deploy_summary.json"))
            result.hashes["deploy_summary.json"] = sha256(f"{dep}/deploy_summary.json")
        return result

    def _oracle(self, result: PassResult, out_dir: str) -> None:
        """``oracle --corpus``: one operation per instance, failed on a
        mismatch; its answer is zero mismatches, so it needs no reference."""
        rc, seconds, log = run_cli(["oracle", "--corpus", self.corpus_path,
                                    "--out", out_dir])
        result.command_s["oracle"] = seconds
        count = len(self.corpus)
        report_path = f"{out_dir}/oracle_report.json"
        if rc in (0, 1) and os.path.exists(report_path):
            report = _load_json(report_path)
            ops = [[f"instance {f['instance']}", 1, f["error"]]
                   for f in report["failures"]]
            ops.append(["oracle", report["checked"] - len(ops), None])
            if report["checked"] != count:
                ops.append(["unchecked instances", count - report["checked"],
                            f"checked {report['checked']} of {count}"])
        else:
            ops = [["oracle", count, f"exit {rc}: {log[-2000:]}"]]
        result.ops += ops

    def check(self, result: PassResult, reference) -> None:
        checks = {
            "sweep": check_sweep,
            "safe-sets": lambda got, ref: [] if got == ref else [
                f"cell counts {got['cell_counts']} != reference {ref['cell_counts']}"],
            "deploy": check_deploy,
        }
        for op in result.ops:
            if op[2] is None and op[0] in checks:
                errors = checks[op[0]](result.answers[op[0]], reference[op[0]])
                op[2] = "; ".join(errors) or None

    def sizes(self) -> dict:
        insts = self.corpus
        return dict(self._sizes, corpus={
            "instances": len(insts),
            "work_units": sum(corpus_work_units(i) for i in insts),
            "max_states": max(i.n_states for i in insts),
            "max_actions": max(i.n_actions for i in insts),
            "max_atoms": max(i.n_atoms for i in insts),
            "policies": sum(i.policy_count() for i in insts)})

    def health(self, result: PassResult) -> dict:
        out = {}
        if "sweep" in result.answers:
            s = np.asarray(result.answers["sweep"]["s"])
            v0 = np.asarray(result.answers["sweep"]["v0"])
            out["s_star_at_ends_share"] = {
                repr(float(a)): s_star_at_ends(s, v0, float(a))
                for a in self.cfg["alphas"]}
        if "deploy" in result.answers:
            out.update(_deploy_health(result.answers["deploy"]))
        return out


class DeployMonteCarlo(_SweepWorkload):
    name = "deploy-mc"

    def setup(self) -> None:
        self._resolve({
            "model": {"design": "a", "disturbance": "smoke"},
            "grid": dict(self.scale.grid, s=self.scale.smoke_s),
            "alphas": [0.5],
            "rs": [1.0],
            "deploy": {"x0": [0.0, 3.25], "alpha": 0.5,
                       "rollouts": self.scale.mc_rollouts},
        })
        self.sweep_dir = os.path.join(self.workdir, "sweep")
        rc, _, log = run_cli(["sweep", "--config", self.config_path,
                              "--out", self.sweep_dir,
                              "--threads", str(self.threads)])
        if rc != 0:
            raise RuntimeError(f"set-up sweep failed (exit {rc}): {log[-2000:]}")
        s, v0 = read_sweep_csv(f"{self.sweep_dir}/sweep.csv")
        self.setup_answers = {"sweep": {"s": s.tolist(), "v0": v0.tolist()}}

    def check_setup(self, reference) -> list:
        return check_sweep(self.setup_answers["sweep"], reference["sweep"])

    def run_pass(self, out_dir: str) -> PassResult:
        result = PassResult()
        t0 = time.perf_counter()
        self._command(result, "deploy", [
            "deploy", "--config", self.config_path, "--out", out_dir,
            "--sweep", self.sweep_dir, "--seed", str(self.seed)])
        result.seconds = time.perf_counter() - t0
        if result.ops[0][2] is None:
            path = f"{out_dir}/deploy_summary.json"
            result.answers["deploy"] = _deploy_answers(_load_json(path))
            result.hashes["deploy_summary.json"] = sha256(path)
        return result

    def check(self, result: PassResult, reference) -> None:
        op = result.ops[0]
        if op[2] is None:
            op[2] = "; ".join(check_deploy(result.answers["deploy"],
                                           reference["deploy"])) or None

    def health(self, result: PassResult) -> dict:
        sweep = self.setup_answers["sweep"]
        alpha = float(self.cfg["deploy"]["alpha"])
        out = {"s_star_at_ends_share": {repr(alpha): s_star_at_ends(
            np.asarray(sweep["s"]), np.asarray(sweep["v0"]), alpha)}}
        if "deploy" in result.answers:
            out.update(_deploy_health(result.answers["deploy"]))
        return out


WORKLOADS = {w.name: w for w in (BaselinePipeline, DeployMonteCarlo)}
