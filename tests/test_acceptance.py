"""Acceptance suite: nine go/no-go checks, one test (and one -v line) each.

Criteria with runtime budgets assert their own elapsed time. Statistical
criteria run a fixed set of seeded replicates and require the stated
number of successes, so the suite is fully deterministic.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import wavelogit
from wavelogit.dataio import (
    CurveDataset,
    export_beta,
    load_model,
    save_model,
    to_coefficients,
)
from wavelogit.glm import (
    LabeledCoefficients,
    irls_fit,
    link_logistic,
    neg_log_likelihood,
    nll_gradient,
)
from wavelogit.metrics import auc
from wavelogit.model import model_from_fit
from wavelogit.penalized import FitConfig, build_reduction, fit_estimator, fit_wnet, lambda_max
from wavelogit.reduce import pca_fit, pls_fit, sparse_component_fit
from wavelogit.select import cross_validate, make_folds
from wavelogit.simulate import (
    DEFAULT_SUPPORT,
    default_spec,
    generate_dataset,
)
from wavelogit.wavelet import (
    FILTERS,
    dwt_forward,
    dwt_inverse,
    make_basis,
)

from oracles import score_variances, transform_matrix

N_TRAIN, N_TEST = 75, 25
WLS_Q = 16


def test_criterion_1_wavelet_round_trip():
    """All families x all j0 x d in {8..1024}: reconstruction and W W^T = I."""
    start = time.time()
    rng = np.random.default_rng(101)
    families = sorted(FILTERS)
    vectors = 0
    worst = 0.0
    for d in (8, 16, 32, 64, 128, 256, 512, 1024):
        for family in families:
            for j0 in range(int(np.log2(d))):
                basis = make_basis(family, j0, d)
                for _ in range(2):
                    x = rng.standard_normal(d)
                    err = np.linalg.norm(
                        dwt_inverse(dwt_forward(x, basis), basis) - x
                    ) / np.linalg.norm(x)
                    worst = max(worst, err)
                    assert err <= 1e-10
                    vectors += 1
    assert vectors >= 1000
    # orthogonality of the explicit matrix: every combination at d <= 64,
    # plus spot checks across families at larger d
    worst_ortho = 0.0
    for d in (8, 16, 32, 64):
        for family in families:
            for j0 in range(int(np.log2(d))):
                w = transform_matrix(make_basis(family, j0, d))
                gap = np.max(np.abs(w @ w.T - np.eye(d)))
                worst_ortho = max(worst_ortho, gap)
                assert gap <= 1e-10
    for family, j0, d in (
        ("db4", 3, 128),
        ("db4", 3, 256),
        ("haar", 4, 256),
        ("db7", 2, 512),
        ("db10", 3, 1024),
    ):
        w = transform_matrix(make_basis(family, j0, d))
        gap = np.max(np.abs(w @ w.T - np.eye(d)))
        worst_ortho = max(worst_ortho, gap)
        assert gap <= 1e-10
    elapsed = time.time() - start
    assert elapsed <= 30.0
    print(
        f"criterion 1 PASS: {vectors} reconstructions, worst error "
        f"{worst:.2e}, worst orthogonality gap {worst_ortho:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_gradient_matches_finite_differences():
    """100 seeded instances, central differences, per-coordinate 1e-5."""
    start = time.time()
    rng = np.random.default_rng(102)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n, d = 25, 8
        theta = rng.standard_normal((n, d))
        omega, intercept = rng.standard_normal(d), rng.standard_normal()
        y = (rng.random(n) < link_logistic(theta @ omega + intercept)).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        data = LabeledCoefficients(theta=theta, labels=y, basis=make_basis("db4", 1, d))
        g, gi = nll_gradient(omega, intercept, data)
        for j in range(d + 1):
            def at(delta):
                w = omega.copy()
                b = intercept
                if j < d:
                    w[j] += delta
                else:
                    b += delta
                return neg_log_likelihood(w, b, data)

            numeric = (at(h) - at(-h)) / (2 * h)
            exact = g[j] if j < d else gi
            rel = abs(numeric - exact) / max(1.0, abs(exact))
            worst = max(worst, rel)
            assert rel <= 1e-5
    elapsed = time.time() - start
    assert elapsed <= 10.0
    print(f"criterion 2 PASS: worst relative gradient error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_unpenalized_oracle():
    """fit_wnet at lambda=0 matches IRLS coordinate-wise to 1e-4 on 20
    non-separable instances (n=200, d=32)."""
    start = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, d = 200, 32
        theta = rng.standard_normal((n, d))
        w = rng.standard_normal(d) * 0.5 / np.sqrt(d)
        y = (rng.random(n) < link_logistic(theta @ w)).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        data = LabeledCoefficients(theta=theta, labels=y, basis=make_basis("db4", 2, d))
        oracle_omega, oracle_intercept = irls_fit(data)
        assert np.max(np.abs(oracle_omega)) < 50.0  # sanity: nowhere near separation
        sol = fit_wnet(data, FitConfig(estimator="wnet", lam=0.0, tol=1e-10, max_iter=50000))
        gap = max(
            float(np.max(np.abs(sol.omega - oracle_omega))),
            abs(sol.intercept - oracle_intercept),
        )
        worst = max(worst, gap)
        assert gap <= 1e-4
    elapsed = time.time() - start
    assert elapsed <= 60.0
    print(f"criterion 3 PASS: worst coordinate gap {worst:.2e} over 20 instances, {elapsed:.1f}s")


def _sign_consistent_kkt(data, solution, lam):
    """Independent recomputation of the l1 stationarity residual."""
    aug = np.column_stack([np.ones(data.n), data.theta])
    beta = np.concatenate([[solution.intercept], solution.omega])
    grad = aug.T @ (link_logistic(aug @ beta) - data.labels)
    pen = np.zeros(data.d + 1, dtype=bool)
    pen[1 + data.basis.n_scale :] = True
    res = float(np.max(np.abs(grad[~pen])))
    zero = pen & (beta == 0.0)
    if np.any(zero):
        res = max(res, float(np.max(np.abs(grad[zero]) - lam, initial=0.0)))
    active = pen & (beta != 0.0)
    if np.any(active):
        res = max(res, float(np.max(np.abs(grad[active] + lam * np.sign(beta[active])))))
    return res


def test_criterion_4_kkt_certificates_and_lambda_max():
    """Every converged l1 fit passes an independently recomputed KKT test at
    1e-5; at and above lambda_max the detail block is exactly zero."""
    worst = 0.0
    for seed in range(8):
        rng = np.random.default_rng(200 + seed)
        n, d = 120, 32
        theta = rng.standard_normal((n, d))
        w = rng.standard_normal(d) * 1.5 / np.sqrt(d)
        y = (rng.random(n) < link_logistic(theta @ w)).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        data = LabeledCoefficients(theta=theta, labels=y, basis=make_basis("db4", 2, d))
        top = lambda_max(data)
        for lam in np.geomspace(1e-3 * top, top, 6):
            sol = fit_wnet(data, FitConfig(estimator="wnet", lam=lam))
            recomputed = _sign_consistent_kkt(data, sol, lam)
            worst = max(worst, recomputed)
            assert sol.kkt_residual <= 1e-5
            assert recomputed <= 1e-5
        for factor in (1.0, 1.5):
            sol = fit_wnet(data, FitConfig(estimator="wnet", lam=factor * top))
            assert sol.nonzero_detail_count == 0
            assert np.all(sol.omega[data.basis.n_scale :] == 0.0)
    print(f"criterion 4 PASS: worst recomputed KKT residual {worst:.2e}")


def test_criterion_5_auc_oracle_equivalence():
    """Sort-based AUC equals brute-force pairwise counting to 1e-12 on 1000
    tied-score instances."""
    start = time.time()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 51))
        labels = (rng.random(m) < 0.5).astype(float)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        scores = rng.integers(0, 4, size=m) / 3.0  # heavy ties
        pos = scores[labels == 1.0]
        neg = scores[labels == 0.0]
        brute = (
            np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
        ) / (pos.size * neg.size)
        gap = abs(auc(scores, labels) - brute)
        worst = max(worst, gap)
        assert gap <= 1e-12
    elapsed = time.time() - start
    assert elapsed <= 5.0
    print(f"criterion 5 PASS: worst AUC gap {worst:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def planted_replicates(tmp_path_factory):
    """Ten seeded runs of the synthetic analogue (75/25 curves per class,
    d=256, five planted coordinates); shared by criteria 6 and 8."""
    out_dir = tmp_path_factory.mktemp("acceptance")
    basis = make_basis("db4", 3, 256)
    union = np.zeros(256, dtype=bool)
    for idx in DEFAULT_SUPPORT:
        e = np.zeros(256)
        e[idx] = 1.0
        atom = dwt_inverse(e, basis)
        union |= np.abs(atom) > 1e-10 * np.max(np.abs(atom))

    start = time.time()
    results = []
    for rep in range(10):
        spec = default_spec(seed=rep, n_per_class=N_TRAIN + N_TEST)
        ds = generate_dataset(spec)
        per = N_TRAIN + N_TEST
        tr = np.r_[0:N_TRAIN, per : per + N_TRAIN]
        te = np.r_[N_TRAIN:per, per + N_TRAIN : 2 * per]
        train = to_coefficients(CurveDataset(curves=ds.curves[tr], labels=ds.labels[tr]), basis)
        test = to_coefficients(CurveDataset(curves=ds.curves[te], labels=ds.labels[te]), basis)

        top = lambda_max(train)
        grid = [FitConfig(estimator="wnet", lam=l) for l in np.geomspace(1e-3 * top, top, 12)]
        folds = make_folds(train.labels, 5, seed=rep)
        best = cross_validate(train, grid, folds).best_config
        sol = fit_estimator(train, best)
        held_auc = auc(link_logistic(test.theta @ sol.omega + sol.intercept), test.labels)

        model = model_from_fit(sol, best, basis)
        beta_path = str(out_dir / f"beta{rep}.csv")
        export_beta(model, beta_path)
        beta = np.array(
            [float(row.split(",")[1]) for row in Path(beta_path).read_text().splitlines()[1:]]
        )
        mass = float(np.sum(beta[union] ** 2) / max(np.sum(beta**2), 1e-300))

        wls = fit_estimator(train, FitConfig(estimator="wls", lam=0.0, q=WLS_Q, tau=0.0))
        wls_train = auc(link_logistic(train.theta @ wls.omega + wls.intercept), train.labels)
        wls_test = auc(link_logistic(test.theta @ wls.omega + wls.intercept), test.labels)

        results.append(
            {"auc": held_auc, "mass": mass, "wls_gap": wls_train - wls_test}
        )
    return {"results": results, "elapsed": time.time() - start}


def test_criterion_6_synthetic_analogue(planted_replicates):
    """CV-selected WNET: held-out AUC > 0.7 in >= 9/10 replicates and >= 80%
    of the exported beta's squared mass on the planted atoms in >= 8/10."""
    results = planted_replicates["results"]
    elapsed = planted_replicates["elapsed"]
    auc_wins = sum(r["auc"] > 0.7 for r in results)
    mass_wins = sum(r["mass"] >= 0.8 for r in results)
    assert auc_wins >= 9, [round(r["auc"], 3) for r in results]
    assert mass_wins >= 8, [round(r["mass"], 3) for r in results]
    assert elapsed <= 600.0
    print(
        f"criterion 6 PASS: AUC>0.7 in {auc_wins}/10 "
        f"(min {min(r['auc'] for r in results):.3f}), mass>=0.8 in {mass_wins}/10 "
        f"(min {min(r['mass'] for r in results):.3f}), {elapsed:.0f}s"
    )


def test_criterion_7_reduction_sanity():
    """PCA invariants on 200 matrices; wcr and wpcr reduce by dense PCA and tau=0
    sparse PLS == PLS, bit for bit; WPCR at q=d, lambda=0 matches WNET lambda=0 NLL
    to 1e-6."""
    rng = np.random.default_rng(107)
    for _ in range(200):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(4, 33))
        theta = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0)
        q = min(n - 1, d)
        loadings = pca_fit(theta, q)
        gap = np.max(np.abs(loadings.T @ loadings - np.eye(q)))
        assert gap <= 1e-10
        eigenvalues = score_variances(theta, loadings)
        assert np.all(np.diff(eigenvalues) <= 1e-12)
        assert np.all(eigenvalues >= -1e-12)
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        theta = rng.standard_normal((30, 16))
        y = (np.arange(30) % 2).astype(float)
        data = LabeledCoefficients(theta=theta, labels=y, basis=make_basis("db4", 2, 16))
        dense_pca = pca_fit(theta, 3)
        for config in (FitConfig("wcr", q=3), FitConfig("wpcr", lam=0.1, q=3)):
            np.testing.assert_array_equal(build_reduction(data, config), dense_pca)
        dense_pls = pls_fit(theta, y, 3)
        sparse_pls = sparse_component_fit(theta, y, 3, 0.0)
        np.testing.assert_array_equal(sparse_pls, dense_pls)
    rng = np.random.default_rng(10)
    theta = rng.standard_normal((120, 16))
    w = rng.standard_normal(16) * 0.6 / 4.0
    y = (rng.random(120) < link_logistic(theta @ w)).astype(float)
    data = LabeledCoefficients(theta=theta, labels=y, basis=make_basis("db4", 2, 16))
    wnet = fit_estimator(data, FitConfig(estimator="wnet", lam=0.0, tol=1e-10, max_iter=20000))
    wpcr = fit_estimator(data, FitConfig(estimator="wpcr", lam=0.0, q=16))
    nll_gap = abs(
        neg_log_likelihood(wnet.omega, wnet.intercept, data)
        - neg_log_likelihood(wpcr.omega, wpcr.intercept, data)
    )
    assert nll_gap <= 1e-6
    print(f"criterion 7 PASS: PCA invariants on 200 matrices, q=d NLL gap {nll_gap:.2e}")


def test_criterion_8_reduction_overfit_pattern(planted_replicates):
    """WLS training AUC exceeds its held-out AUC by >= 0.1 in >= 7/10
    replicates of the criterion-6 instance."""
    results = planted_replicates["results"]
    wins = sum(r["wls_gap"] >= 0.1 for r in results)
    assert wins >= 7, [round(r["wls_gap"], 3) for r in results]
    print(
        f"criterion 8 PASS: WLS overfit gap >= 0.1 in {wins}/10 "
        f"(min {min(r['wls_gap'] for r in results):+.3f})"
    )


# The directory that holds the imported package. CLI children get it as an
# absolute path, first on PYTHONPATH, so they run the same source tree as
# this process whatever their working directory and with or without an
# install; a relative PYTHONPATH such as "src" does not resolve from tmp_path.
SOURCE_DIR = Path(wavelogit.__file__).resolve().parent.parent


def _cli_env():
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SOURCE_DIR), inherited) if p)
    return env


def _child_package_file(cwd):
    """The wavelogit/__init__.py a CLI child would import from cwd."""
    proc = subprocess.run(
        [sys.executable, "-c", "import wavelogit; print(wavelogit.__file__)"],
        cwd=cwd,
        env=_cli_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return Path(proc.stdout.strip()).resolve()


def _run_cli(arguments, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "wavelogit", *arguments],
        cwd=cwd,
        env=_cli_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"wavelogit {' '.join(arguments)} failed:\n{proc.stderr}"
    return proc.stdout


def _pipeline(workdir):
    transcript = []
    transcript.append(_run_cli(
        [
            "simulate", "--out", "train.csv", "--test-out", "test.csv",
            "--n-per-class", "20", "--n-test-per-class", "10",
            "--d", "64", "--j0", "2",
            "--support", "10,30,50", "--effects", "1.2,0.9,0.8",
            "--seed", "5",
        ],
        workdir,
    ))
    transcript.append(_run_cli(
        [
            "cv", "--data", "train.csv", "--method", "wnet", "--n-lambda", "4",
            "--j0", "2", "--seed", "5", "--out", "cv.json",
        ],
        workdir,
    ))
    transcript.append(_run_cli(
        [
            "fit", "--data", "train.csv", "--method", "wnet", "--lambda", "0.5",
            "--j0", "2", "--out", "fit.json",
        ],
        workdir,
    ))
    transcript.append(_run_cli(["evaluate", "--model", "cv.json", "--data", "test.csv"], workdir))
    transcript.append(_run_cli(
        ["export-beta", "--model", "cv.json", "--out", "beta.csv"], workdir
    ))
    transcript.append(_run_cli(
        ["predict", "--model", "cv.json", "--data", "test.csv", "--out", "probs.csv"], workdir
    ))
    return "".join(transcript)


def test_criterion_9_cli_determinism_and_round_trips(tmp_path):
    """Two end-to-end CLI runs produce byte-identical files and stdout;
    model save/load preserves predictions bit-exactly."""
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    assert _child_package_file(str(dir_a)) == Path(wavelogit.__file__).resolve()
    stdout_a = _pipeline(str(dir_a))
    stdout_b = _pipeline(str(dir_b))
    assert stdout_a == stdout_b
    files = ["train.csv", "test.csv", "cv.json", "fit.json", "beta.csv", "probs.csv"]
    for name in files:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    model = load_model(str(dir_a / "cv.json"))
    rng = np.random.default_rng(109)
    curves = rng.standard_normal((30, 64))
    before = model.predict_proba(curves)
    resaved = str(tmp_path / "resaved.json")
    save_model(model, resaved)
    after = load_model(resaved).predict_proba(curves)
    assert np.array_equal(before, after)
    print(f"criterion 9 PASS: {len(files)} files byte-identical, predictions bit-exact")
