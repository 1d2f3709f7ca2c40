"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` — each criterion is a
single test whose PASSED/FAILED line is the verdict.  Tests also print a
summary line (visible with ``-s`` or on failure).
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from vineshap import (ClaytonCopula, DVineModel, ExperimentConfig,
                      GaussianCopula, VineCondSimEstimator, VineRatioEstimator,
                      analytic_mean_predictor, burr_conditional_params,
                      burr_log_density, burr_sample, covered_sets, fit_dvine,
                      fit_nonparametric, greedy_cover, required_sets,
                      run_experiment, shapley_from_values, study_params,
                      truth_vine)
from vineshap.cli import main as cli_main
from vineshap.dvine import ParametricMode
from vineshap.simstudy import BurrParams, marginal


def report(n, ok, detail):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------

def test_criterion_01_shapley_axioms():
    t0 = time.time()
    rng = np.random.default_rng(100)
    worst_eff = worst_sym = worst_null = 0.0
    for i in range(100):
        m = 1 + i % 6
        values = {mask: float(rng.normal()) for mask in range(1 << m)}
        phi0, phi = shapley_from_values(m, values)
        worst_eff = max(worst_eff,
                        abs(phi0 + phi.sum() - values[(1 << m) - 1]))
        if m >= 2:
            # symmetry: symmetrize the table in features 0 and 1
            def canon(mask):
                b0, b1 = mask & 1, (mask >> 1) & 1
                return (mask & ~0b11) | (b0 << 1) | b1
            sym = {}
            for mask in range(1 << m):
                key = min(mask, canon(mask))
                sym[mask] = values[key]
            _, phi_s = shapley_from_values(m, sym)
            worst_sym = max(worst_sym, abs(phi_s[0] - phi_s[1]))
            # null player: make feature m-1 irrelevant
            low = (1 << (m - 1)) - 1
            null = {mask: values[mask & low] for mask in range(1 << m)}
            _, phi_n = shapley_from_values(m, null)
            worst_null = max(worst_null, abs(phi_n[m - 1]))
    elapsed = time.time() - t0
    ok = worst_eff <= 1e-10 and worst_sym <= 1e-10 and worst_null <= 1e-10 \
        and elapsed < 10
    report(1, ok, f"efficiency {worst_eff:.1e}, symmetry {worst_sym:.1e}, "
                  f"null {worst_null:.1e}, {elapsed:.1f}s")


def test_criterion_02_additive_game_exactness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = worst_oracle = 0.0
    for m in range(2, 11):
        a = rng.normal(size=m)
        values = {mask: float(sum(a[j] for j in range(m) if mask & (1 << j)))
                  for mask in range(1 << m)}
        _, phi = shapley_from_values(m, values)
        worst = max(worst, float(np.max(np.abs(phi - a))))
        # independent brute-force oracle: direct weighted sum per feature
        j = m - 1
        bit = 1 << j
        phi_j = 0.0
        for mask in range(1 << m):
            if mask & bit:
                continue
            s = bin(mask).count("1")
            w = math.factorial(s) * math.factorial(m - s - 1) / math.factorial(m)
            phi_j += w * (values[mask | bit] - values[mask])
        worst_oracle = max(worst_oracle, abs(phi[j] - phi_j))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and worst_oracle <= 1e-10 and elapsed < 5
    report(2, ok, f"|phi - a| {worst:.1e}, vs brute force {worst_oracle:.1e}, "
                  f"{elapsed:.1f}s")


def test_criterion_03_copula_oracles_and_roundtrips():
    t0 = time.time()
    g = np.linspace(0.05, 0.95, 20)
    uu, vv = np.meshgrid(g, g)
    u, v = uu.ravel(), vv.ravel()
    eps = 1e-5

    def clayton_cdf(a, b, th):
        return (a ** -th + b ** -th - 1.0) ** (-1.0 / th)

    def gauss_cdf(a, b, rho):
        return stats.multivariate_normal.cdf(
            np.column_stack([stats.norm.ppf(a), stats.norm.ppf(b)]),
            mean=[0, 0], cov=[[1, rho], [rho, 1]])

    worst_fd = 0.0
    cl = ClaytonCopula(2.0)
    num = (clayton_cdf(u + eps, v + eps, 2.0) - clayton_cdf(u + eps, v - eps, 2.0)
           - clayton_cdf(u - eps, v + eps, 2.0)
           + clayton_cdf(u - eps, v - eps, 2.0)) / (4 * eps * eps)
    worst_fd = max(worst_fd, float(np.max(
        np.abs(np.exp(cl.log_density(u, v)) - num) / np.maximum(np.abs(num), 1.0))))
    hnum = (clayton_cdf(u, v + eps, 2.0) - clayton_cdf(u, v - eps, 2.0)) / (2 * eps)
    worst_fd = max(worst_fd, float(np.max(np.abs(cl.hfunc(u, v, "second") - hnum))))
    ga = GaussianCopula(0.6)
    hnum = (gauss_cdf(u, v + eps, 0.6) - gauss_cdf(u, v - eps, 0.6)) / (2 * eps)
    worst_fd = max(worst_fd, float(np.max(np.abs(ga.hfunc(u, v, "second") - hnum))))

    worst_par = 0.0
    for cop in (ga, cl, ClaytonCopula(2.0, rotation=180),
                ClaytonCopula(2.0, rotation=90)):
        w = cop.hfunc(u, v, "second")
        worst_par = max(worst_par, float(np.max(np.abs(
            cop.hinv(w, v, "second") - u))))
        w = cop.hfunc(u, v, "first")
        worst_par = max(worst_par, float(np.max(np.abs(
            cop.hinv(w, u, "first") - v))))

    rng = np.random.default_rng(102)
    v0 = rng.uniform(size=3000)
    u0 = ClaytonCopula(1.5, rotation=180).hinv(rng.uniform(size=3000), v0, "second")
    grid = fit_nonparametric(np.column_stack([u0, v0]))
    w = grid.hfunc(u, v, "second")
    worst_grid = float(np.max(np.abs(grid.hinv(w, v, "second") - u)))
    elapsed = time.time() - t0
    ok = worst_fd <= 1e-5 and worst_par <= 1e-9 and worst_grid <= 1e-3 \
        and elapsed < 30
    report(3, ok, f"fd {worst_fd:.1e}, parametric roundtrip {worst_par:.1e}, "
                  f"grid roundtrip {worst_grid:.1e}, {elapsed:.1f}s")


def test_criterion_04_dvine_vs_trivariate_gaussian():
    t0 = time.time()
    r12, r23, r13_2 = 0.55, -0.35, 0.45
    r13 = r13_2 * np.sqrt((1 - r12 ** 2) * (1 - r23 ** 2)) + r12 * r23
    rng = np.random.default_rng(103)
    from vineshap import EmpiricalMarginal
    marg = [EmpiricalMarginal(rng.normal(size=50)) for _ in range(3)]
    model = DVineModel((0, 1, 2),
                       [[GaussianCopula(r12), GaussianCopula(r23)],
                        [GaussianCopula(r13_2)]], marg)
    u = rng.uniform(0.01, 0.99, size=(1000, 3))
    z = stats.norm.ppf(u)
    R = np.array([[1, r12, r13], [r12, 1, r23], [r13, r23, 1]])
    want = stats.multivariate_normal(np.zeros(3), R).logpdf(z) \
        - np.sum(stats.norm.logpdf(z), axis=1)
    got = model.copula_log_density(u)
    worst = float(np.max(np.abs(got - want)))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10
    report(4, ok, f"max |logc_vine - logc_closed| {worst:.1e}, {elapsed:.1f}s")


def test_criterion_05_rosenblatt_roundtrip_and_uniformity():
    t0 = time.time()
    params = study_params(1.0, M=4)
    rng = np.random.default_rng(104)
    data = burr_sample(params, 1000, rng)
    model = fit_dvine(data, (0, 1, 2, 3), ParametricMode())
    w = rng.uniform(0.01, 0.99, size=(100, 4))
    u = model.inverse_rosenblatt(w)
    worst = float(np.max(np.abs(model.rosenblatt(u) - w)))
    # model samples transformed back must be per-coordinate uniform
    w2 = rng.uniform(size=(2000, 4))
    t = model.rosenblatt(model.inverse_rosenblatt(w2))
    crit = stats.chi2.ppf(0.99, df=19)
    chis = []
    for k in range(4):
        counts, _ = np.histogram(t[:, k], bins=20, range=(0, 1))
        chis.append(float(np.sum((counts - 100.0) ** 2 / 100.0)))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and max(chis) < crit
    report(5, ok, f"roundtrip {worst:.1e}, chi2 max {max(chis):.1f} "
                  f"(crit {crit:.1f}), {elapsed:.1f}s")


def test_criterion_06_burr_ground_truth():
    t0 = time.time()
    taus = {}
    for p in (0.5, 1.0, 1.5):
        x = burr_sample(study_params(p, M=2), 10000,
                        np.random.default_rng(int(10 * p)))
        taus[p] = stats.kendalltau(x[:, 0], x[:, 1]).statistic
    tau_ok = all(abs(taus[p] - 1 / (1 + 2 * p)) < 0.02 for p in taus)

    # conditional sampler vs analytic conditional marginal (KS, level 0.01)
    params = study_params(1.0, M=3)
    x_star = np.array([0.8, 0.0, 0.0])
    cond, sbar = burr_conditional_params(params, {0}, x_star)
    samp = burr_sample(cond, 10000, np.random.default_rng(105))
    from vineshap.simstudy import BurrMarginal
    cm = BurrMarginal(cond.p, cond.b[0], cond.r[0])
    ks = stats.kstest(samp[:, 0], lambda t: np.asarray(cm.cdf(t)))

    # Bayes: conditional x marginal = joint on an M=2 grid
    p2 = BurrParams(p=1.2, b=[2, 4], r=[1, 3])
    x1 = 0.7
    c2, _ = burr_conditional_params(p2, {0}, np.array([x1, 0.0]))
    m1 = BurrParams(p=p2.p, b=[p2.b[0]], r=[p2.r[0]])
    grid = np.linspace(0.05, 3.0, 50)
    joint = np.array([np.exp(burr_log_density(p2, [[x1, y]]))[0] for y in grid])
    fm = np.exp(burr_log_density(m1, [[x1]]))[0]
    cond_d = np.array([np.exp(burr_log_density(c2, [[y]]))[0] for y in grid])
    bayes = float(np.max(np.abs(cond_d * fm - joint)))
    elapsed = time.time() - t0
    ok = tau_ok and ks.pvalue > 0.01 and bayes <= 1e-10 and elapsed < 60
    report(6, ok, f"taus {[float(round(taus[p], 3)) for p in taus]}, "
                  f"KS p={ks.pvalue:.3f}, bayes {bayes:.1e}, {elapsed:.1f}s")


def test_criterion_07_estimator_oracle_agreement():
    t0 = time.time()
    params = study_params(1.0, M=3)
    g = analytic_mean_predictor(params)
    truth = truth_vine(params)
    marginals = [marginal(params, j) for j in range(3)]
    rng = np.random.default_rng(106)
    train = burr_sample(params, 1000, rng)
    test_x = burr_sample(params, 10, rng)
    K, K_o = 1000, 10000

    def truth_model(order):
        return DVineModel(order, truth.pairs, marginals)

    plans, models = {}, {}
    for method in ("condsim", "ratio"):
        plan = greedy_cover(3, method, rng=np.random.default_rng(1))
        plans[method] = plan
        models[method] = [truth_model(o) for o in plan.orders]

    cs = VineCondSimEstimator(train, g, models["condsim"], plans["condsim"],
                              K=K, rng=np.random.default_rng(107))
    ra = VineRatioEstimator(train, g, models["ratio"], plans["ratio"],
                            K=K, rng=np.random.default_rng(108))
    oracle_rng = np.random.default_rng(109)
    worst = {"condsim": 0.0, "ratio": 0.0}
    checks = 0
    coalitions = [s for r in (1, 2) for s in itertools.combinations(range(3), r)]
    for x_star in test_x:
        ra.begin_explanation(x_star)
        for features in coalitions:
            features = set(features)
            cond, sbar = burr_conditional_params(params, features, x_star)
            samp = burr_sample(cond, K_o, oracle_rng)
            x = np.empty((K_o, 3))
            x[:, sorted(features)] = x_star[sorted(features)]
            x[:, sbar] = samp
            preds = np.asarray(g(x))
            v_o = float(np.mean(preds))
            se_o = float(np.std(preds, ddof=1) / np.sqrt(K_o))
            for tag, est in (("condsim", cs), ("ratio", ra)):
                v, se = est.contribution_with_se(features, x_star)
                z = abs(v - v_o) / (3 * np.hypot(se, se_o) + 1e-10)
                worst[tag] = max(worst[tag], z)
                checks += 1
    elapsed = time.time() - t0
    ok = worst["condsim"] <= 1.0 and worst["ratio"] <= 1.0 and elapsed < 300
    report(7, ok, f"{checks} checks; worst |v-v_o|/(3se+eps): "
                  f"condsim {worst['condsim']:.2f}, ratio {worst['ratio']:.2f}, "
                  f"{elapsed:.1f}s")


def test_criterion_08_desk_scale_ordering():
    t0 = time.time()
    config = ExperimentConfig(
        burr=study_params(0.5, M=4), n_train=1000, n_test=20, repetitions=5,
        K=1000, K_oracle=10000,
        methods=("independence", "gaussian-copula", "vine-ratio-par"),
        predictor="analytic-mean", seed=0)
    summary = {m: v for m, v, _ in run_experiment(config, workers=2).summary}
    elapsed = time.time() - t0
    ok = (summary["independence"] > summary["gaussian-copula"]
          and summary["independence"] >= 1.5 * summary["vine-ratio-par"]
          and elapsed < 1800)
    report(8, ok, f"MAE indep {summary['independence']:.4f} > "
                  f"gauss-cop {summary['gaussian-copula']:.4f}, "
                  f"ratio {summary['vine-ratio-par']:.4f} "
                  f"(x{summary['independence'] / summary['vine-ratio-par']:.1f}), "
                  f"{elapsed:.0f}s")


def test_criterion_09_structure_search():
    t0 = time.time()
    complete = True
    for m in range(2, 11):
        for method in ("condsim", "ratio"):
            for seed in range(10):
                plan = greedy_cover(m, method, rng=np.random.default_rng(seed))
                covered = set()
                for order in plan.orders:
                    covered |= set(covered_sets(order, method))
                if not covered >= required_sets(m, method):
                    complete = False
    two_orders = all(
        len(greedy_cover(3, "condsim", rng=np.random.default_rng(s)).orders) == 2
        for s in range(10))
    n_cs = len(greedy_cover(10, "condsim", rng=np.random.default_rng(0)).orders)
    n_ra = len(greedy_cover(10, "ratio", rng=np.random.default_rng(0)).orders)
    elapsed = time.time() - t0
    ok = complete and two_orders and n_cs < 512 and n_ra < 512 and elapsed < 60
    report(9, ok, f"complete={complete}, M=3 condsim 2 orders={two_orders}, "
                  f"M=10 sizes condsim {n_cs} / ratio {n_ra} (< 512), "
                  f"{elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    train = tmp_path / "train.csv"
    x = burr_sample(study_params(1.0, M=3), 150, np.random.default_rng(0))
    train.write_text("x1,x2,x3\n" + "\n".join(
        ",".join(repr(v) for v in row) for row in x.tolist()) + "\n")
    fits = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        assert cli_main(["fit", str(train), "--method", "vine-parametric",
                         "--seed", "7", "--out", str(out)]) == 0
        fits.append(out.read_bytes())
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("p=1.0\nm=3\nn_train=120\nn_test=2\nreps=2\nk=100\n"
                   "k_oracle=1000\nmethods=independence,vine-ratio-par\nseed=0\n")
    benches = []
    for name in ("o1", "o2"):
        outdir = tmp_path / name
        assert cli_main(["bench", str(cfg), "--out-dir", str(outdir)]) == 0
        benches.append((outdir / "results.csv").read_bytes()
                       + (outdir / "summary.csv").read_bytes())
    elapsed = time.time() - t0
    ok = fits[0] == fits[1] and benches[0] == benches[1]
    report(10, ok, f"fit byte-identical={fits[0] == fits[1]}, "
                   f"bench byte-identical={benches[0] == benches[1]}, "
                   f"{elapsed:.1f}s")
