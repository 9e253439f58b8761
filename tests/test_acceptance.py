"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``ACCEPTANCE <id> ...: PASS`` line (visible with
``pytest -s``). Shared heavy artifacts (the coarse baseline sweep, the
shipped oracle corpus) are computed once per session.

Numerical slack policy: comparisons stated exactly by a criterion use that
tolerance verbatim; monotonicity/Lipschitz checks carry an extra 1e-12 for
float accumulation noise, and Monte Carlo bounds carry +1e-9 so that
zero-variance (deterministic) batches compare exactly.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from cvarsafe import (AugmentedGrid, Pmf, cvar_dual, default_disturbance,
                      design_params, estimate_risk, exact_optimal_cvar,
                      extract_safe_set, load_corpus, make_stormwater_model,
                      q_pump, risk_value, rollout, smoke_disturbance, sweep,
                      synthesize_policy, transition)
from cvarsafe import cli
from pointwise import expectation_dp
from references import cvar_tail, q_pump_piecewise
from test_cli import read_tree

COARSE = {"x": (25, 25), "z": 11, "action": 11, "s": 21}
FLOAT_SLACK = 1e-12
MC_ATOL = 1e-9
ORACLE_ALPHAS = (0.05, 0.25, 0.5, 0.99, 1.0)


def coarse_grid(model):
    return AugmentedGrid.uniform(model, COARSE["x"], COARSE["z"],
                                 COARSE["action"], COARSE["s"])


@pytest.fixture(scope="session")
def corpus():
    ref = resources.files("cvarsafe").joinpath("data/tiny_corpus.json")
    with resources.as_file(ref) as path:
        instances = load_corpus(path)
    assert len(instances) >= 50
    return instances


@pytest.fixture(scope="session")
def smoke_baseline():
    model = make_stormwater_model(design_params("a"), smoke_disturbance())
    grid = coarse_grid(model)
    v0 = sweep(model, grid)  # single-threaded: criterion 4's own budget
    return model, grid, v0


def check_dual_sweep_boundaries(s_values, v0, alphas):
    assert np.all(v0[-1] == 0.0), "v0 row at s = c_bar must be zero"
    ds = np.diff(s_values)
    dv = np.diff(v0, axis=0)
    assert dv.max() <= FLOAT_SLACK, "v0 must be nonincreasing in s"
    assert np.abs(dv).max() <= ds.max() + FLOAT_SLACK, "v0 must be 1-Lipschitz"
    for alpha in alphas:
        L = s_values[:, None] + v0 / alpha
        bound = ds[:, None] * (1.0 + alpha) / alpha
        assert np.all(np.abs(np.diff(L, axis=0)) <= bound + FLOAT_SLACK)


def random_pmf(rng, max_atoms=32):
    n = int(rng.integers(1, max_atoms + 1))
    values = np.round(rng.normal(0.0, 5.0, size=n), 3)
    weights = rng.random(n) + 1e-3
    return Pmf(values, weights / weights.sum())


def test_c1_oracle_equivalence(corpus):
    """Pipeline == exact enumeration == exchange identity, to 1e-9, <= 60 s."""
    t0 = time.perf_counter()
    worst_pipeline = 0.0
    worst_exchange = 0.0
    for i, inst in enumerate(corpus):
        alpha = ORACLE_ALPHAS[i % len(ORACLE_ALPHAS)]
        result = exact_optimal_cvar(inst, alpha)  # asserts exchange internally
        worst_exchange = max(worst_exchange,
                             abs(result.value - result.exchange_value))
        model, grid = inst.to_model_and_grid()
        w_star, _ = risk_value(grid.s_axis, sweep(model, grid), alpha)
        gap = abs(float(w_star[inst.x0]) - result.value)
        worst_pipeline = max(worst_pipeline, gap)
        assert gap <= 1e-9, f"instance {i}: pipeline gap {gap}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"criterion 1 overran its budget: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 oracle-equivalence: PASS "
          f"({len(corpus)} instances, max pipeline gap {worst_pipeline:.2e}, "
          f"max exchange gap {worst_exchange:.2e}, {elapsed:.1f}s)")


def test_c2_cvar_axioms():
    """Dual form against the tests' tail-form reference, translation
    equivariance, monotonicity, bounds; <= 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    alphas = (0.05, 0.25, 0.5, 0.99, 1.0)
    for _ in range(1000):
        pmf = random_pmf(rng)
        shift = float(rng.normal(0.0, 10.0))
        shifted_pmf = Pmf(pmf.values + shift, pmf.probs)
        values = []
        for alpha in alphas:
            dual, _ = cvar_dual(pmf, alpha)
            if alpha < 1.0:
                assert abs(dual - cvar_tail(pmf, alpha)) <= 1e-10
            shifted, _ = cvar_dual(shifted_pmf, alpha)
            assert abs(shifted - (dual + shift)) <= 1e-10
            values.append(dual)
        assert np.all(np.diff(values) <= 1e-10)       # alpha-monotone
        assert values[-1] >= pmf.mean() - 1e-10       # CVaR_1 = mean
        assert values[0] <= pmf.values[-1] + 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0, f"criterion 2 overran its budget: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 cvar-axioms: PASS (1000 pmfs x 5 levels, "
          f"{elapsed:.1f}s)")


def test_c3_dual_parameter_boundaries(smoke_baseline, corpus):
    """s = c_bar row zero, 1-Lipschitz columns, objective Lipschitz bound."""
    _, grid, v0 = smoke_baseline
    check_dual_sweep_boundaries(grid.s_axis, v0, alphas=(0.99, 0.05, 0.005))
    checked = 1
    for inst in corpus[:10]:
        model, grid = inst.to_model_and_grid()
        check_dual_sweep_boundaries(grid.s_axis, sweep(model, grid),
                                    alphas=(0.5, 1.0))
        checked += 1
    print(f"\nACCEPTANCE 3 dual-parameter-boundaries: PASS ({checked} sweeps checked)")


def test_c4_safe_set_nesting(smoke_baseline):
    """Masks nest over alpha and r on the coarse baseline; <= 5 min."""
    t0 = time.perf_counter()
    _, grid, v0 = smoke_baseline
    alphas = (0.99, 0.05, 0.005)
    rs = (0.2, 1.0, 1.8)
    masks = {}
    for alpha in alphas:
        w_star, _ = risk_value(grid.s_axis, v0, alpha)
        for r in rs:
            masks[(alpha, r)] = extract_safe_set(w_star, r)
    for r in rs:
        for bigger, smaller in zip(alphas, alphas[1:]):
            assert np.all(masks[(smaller, r)] <= masks[(bigger, r)]), \
                f"alpha nesting violated at r={r}"
    for alpha in alphas:
        for lo, hi in zip(rs, rs[1:]):
            assert np.all(masks[(alpha, lo)] <= masks[(alpha, hi)]), \
                f"r nesting violated at alpha={alpha}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    counts = {f"a={a},r={r}": int(m.sum()) for (a, r), m in masks.items()}
    print(f"\nACCEPTANCE 4 safe-set-nesting: PASS ({counts}, "
          f"+sweep in fixture, {elapsed:.1f}s)")


def test_c5_design_comparison_direction():
    """N_b, N_c, N_d > N_a at r = 1 for alpha in {0.99, 0.05}; <= 30 min."""
    t0 = time.perf_counter()
    counts = {}
    for design in "abcd":
        model = make_stormwater_model(design_params(design),
                                      default_disturbance())
        grid = coarse_grid(model)
        v0 = sweep(model, grid, threads=4)
        for alpha in (0.99, 0.05):
            w_star, _ = risk_value(grid.s_axis, v0, alpha)
            counts[(design, alpha)] = int(extract_safe_set(w_star, 1.0).sum())
    for alpha in (0.99, 0.05):
        base = counts[("a", alpha)]
        assert base > 0
        for design in "bcd":
            assert counts[(design, alpha)] > base, \
                f"design {design} did not enlarge the safe set at alpha={alpha}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1800.0
    cells = {f"{d}@{a}": n for (d, a), n in counts.items()}
    print(f"\nACCEPTANCE 5 design-direction: PASS ({cells}, {elapsed:.1f}s)")


def test_c6_alpha_one_matches_expectation_dp(smoke_baseline):
    """V*_1 equals the independent expectation DP within one s spacing."""
    model, grid, v0 = smoke_baseline
    w_star, _ = risk_value(grid.s_axis, v0, 1.0)
    reference = expectation_dp(model, grid)
    spacing = float(np.diff(grid.s_axis).max())
    worst = float(np.abs(w_star - reference).max())
    assert worst <= spacing, f"alpha=1 gap {worst} exceeds s spacing {spacing}"
    print(f"\nACCEPTANCE 6 alpha-one-consistency: PASS "
          f"(max gap {worst:.2e} vs spacing {spacing})")


def test_c7_monte_carlo_consistency(corpus, smoke_baseline):
    """1e6 seeded rollouts reproduce J_0 within 3 stderr (+0.05 off-grid)."""
    t0 = time.perf_counter()
    worst_sigma = 0.0
    for i, inst in enumerate(corpus):
        alpha = ORACLE_ALPHAS[i % len(ORACLE_ALPHAS)]
        model, grid = inst.to_model_and_grid()
        v0 = sweep(model, grid)
        x0 = np.array([inst.states[inst.x0]])
        policy = synthesize_policy(x0, alpha, v0, model, grid)
        batch = rollout(policy, 1_000_000, seed=1000 + i, model=model,
                        keep=0)
        stats = estimate_risk(batch, alpha, policy.s_star)
        gap = abs(stats["excess_hat"] - policy.dp_value)
        bound = 3.0 * stats["excess_stderr"] + MC_ATOL
        assert gap <= bound, f"instance {i}: MC gap {gap} > {bound}"
        if stats["excess_stderr"] > 0:
            worst_sigma = max(worst_sigma, gap / stats["excess_stderr"])

    model, grid, v0 = smoke_baseline
    x0 = np.array([2.5, 3.0])  # a grid node
    grid_tol = 0.05
    reported = {}
    for alpha in (0.99, 0.05):
        policy = synthesize_policy(x0, alpha, v0, model, grid)
        batch = rollout(policy, 1_000_000, seed=999, model=model, keep=0)
        stats = estimate_risk(batch, alpha, policy.s_star)
        gap = abs(stats["excess_hat"] - policy.dp_value)
        reported[alpha] = round(gap, 6)
        assert gap <= 3.0 * stats["excess_stderr"] + grid_tol, \
            f"stormwater MC gap {gap} exceeds 3 stderr + {grid_tol}"
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 7 monte-carlo-consistency: PASS "
          f"({len(corpus)} instances (worst gap {worst_sigma:.2f} stderr), "
          f"stormwater gaps {reported} <= 3se + {grid_tol}, {elapsed:.1f}s)")


def test_c8_physics():
    """Pump form agreement 1e-12, continuity, box invariance, moments 2%."""
    pump = design_params("b")
    rng = np.random.default_rng(88)
    x = rng.uniform([0, 0], [5, 6], size=(10_000, 2))
    u = rng.uniform(-1, 1, size=10_000)
    closed = q_pump(x, u, pump)
    cases = np.array([q_pump_piecewise(xi, ui, pump) for xi, ui in zip(x, u)])
    worst_pump = float(np.max(np.abs(closed - cases)))
    assert worst_pump <= 1e-12

    from test_models import TestFlowContinuity
    cont = TestFlowContinuity()
    cont.test_valve_across_zero_head()
    cont.test_ramp_outlets_at_their_elevations()
    cont.test_pump_across_level_bands()
    cont.test_pump_across_u_zero()

    dist = default_disturbance()
    for design in "abcd":
        params = design_params(design)
        model = make_stormwater_model(params, dist)
        grid = AugmentedGrid.uniform(model, (12, 12), 3, 5, 3)
        nodes = grid.x_nodes()
        for uu in grid.action_axis:
            for w in dist.values:
                nxt = transition(nodes, float(uu), float(w), params)
                assert nxt[:, 0].min() >= 0.0 and nxt[:, 0].max() <= params.kbar1
                assert nxt[:, 1].min() >= 0.0 and nxt[:, 1].max() <= params.kbar2

    mean = dist.mean()
    var = float(dist.probs @ (dist.values - mean) ** 2)
    skew = float(dist.probs @ (dist.values - mean) ** 3) / var ** 1.5
    moments = (mean, var, skew)
    for got, want in zip(moments, (12.2, 9.9, 0.74)):
        assert abs(got - want) / want <= 0.02
    print(f"\nACCEPTANCE 8 physics: PASS (pump gap {worst_pump:.1e}, "
          f"moments {tuple(round(m, 4) for m in moments)})")


def test_c9_cli_determinism(tmp_path):
    """Byte-identical artifacts across reruns and thread counts, all commands."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "model": {"disturbance": "smoke"},
        "grid": {"x": [7, 7], "z": 5, "action": 5, "s": 5},
        "alphas": [0.99, 0.05],
        "rs": [0.2, 1.0],
        "deploy": {"x0": [2.5, 3.0], "alpha": 0.5, "rollouts": 200},
    }))

    def run(tag, threads):
        out = tmp_path / tag
        base = ["--config", str(cfg_path), "--threads", str(threads),
                "--seed", "7"]
        assert cli.main(["sweep"] + base + ["--out", str(out / "sweep")]) == 0
        assert cli.main(["safe-sets"] + base + ["--out", str(out / "sweep")]) == 0
        assert cli.main(["deploy"] + base + ["--out", str(out / "deploy"),
                                             "--sweep", str(out / "sweep")]) == 0
        assert cli.main(["oracle", "--count", "5", "--seed", "7",
                         "--out", str(out / "oracle")]) == 0
        assert cli.main(["compare-designs"] + base +
                        ["--out", str(out / "designs"), "--alpha", "0.99",
                         "--r", "1.0"]) == 0
        return read_tree(out)

    first = run("run1", threads=1)
    second = run("run2", threads=1)
    threaded = run("run3", threads=4)
    assert first == second, "rerun changed artifact bytes"
    assert first == threaded, "thread count changed artifact bytes"
    assert len(first) >= 12
    print(f"\nACCEPTANCE 9 determinism: PASS ({len(first)} artifacts, "
          f"reruns and threads byte-identical)")
