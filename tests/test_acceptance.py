"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line.  Every analytic quantity is checked against an
independent oracle (finite differences, Monte Carlo, quadrature, or
brute force)."""

import os
import time

import numpy as np
import pytest
import scipy.stats

from etproc import autodiff as ad
from etproc import data as data_mod
from etproc import harness, metrics, models
from etproc.autodiff import Tape, as_tensor, backward
from etproc.data import CorruptionSpec, GAUSSIAN_NOISE_SD, corrupt, gen_two_gaussians
from etproc.distributions import (
    SeededRng,
    dirichlet_expected_log_prob_rows,
    dirichlet_kl_rows,
    dirichlet_moments_rows,
    edl_loss,
    edl_terms,
    evidential_nll,
    gaussian_kl_diag,
    gaussian_reparam,
)
from etproc.harness import resolve_config, run_experiment
from etproc.metrics import PredictionSet, auroc, ece, risk_product_check
from etproc.models import (
    TrainConfig,
    load_checkpoint,
    make_model,
    predict,
    save_checkpoint,
    train,
)

import unfused as uf

MODEL_KINDS = models.MODEL_KINDS


def report_line(number, title, ok):
    print(f"\nACCEPTANCE {number:02d} {title}: {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# shared trained models (two-gaussians, 400 epochs)


B1_CFG = dict(
    task="two-gaussians", model="etp", simplified=True, epochs=400,
    batch_size=40, n_per_class=20, test_size=10000, ood_size=100,
    n_predict_samples=8, n_predict_z_samples=2, seeds=tuple(range(10)),
    include_runtime=False,
)


@pytest.fixture(scope="module")
def etp_b1():
    cfg = resolve_config(None, dict(B1_CFG))
    t0 = time.perf_counter()
    report, kept = run_experiment(cfg, keep_models=True)
    return report, kept, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criterion 1: autodiff vs central finite differences, on every op that a
# training step records


def _dot(t, w):
    """sum(t * w): a scalar in which every entry of t has its own weight."""
    return uf.tsum(uf.mul(t, as_tensor(w)))


# recipe -> (the recorded op it checks, the leaves it differentiates, its
# scalar loss of those leaves ``p`` and of a net's fixed data ``d``); an op
# that training takes in more than one form has a recipe per form
CRITERION_01_RECIPES = {
    "mlp": (ad.mlp, ("theta",),
            lambda p, d: _dot(ad.mlp(d["x"], d["layout"], p["theta"]), d["w"])),
    "mlp, variational with stacked noise": (
        ad.mlp, ("theta", "logvars"),
        lambda p, d: _dot(ad.mlp(d["x"], d["layout"], p["theta"], p["logvars"], d["eps"]),
                          d["w_stack"])),
    "softmax_nll": (ad.softmax_nll, ("a",),
                    lambda p, d: ad.softmax_nll(p["a"], d["labels"])),
    "attention": (ad.attention, ("a", "keys", "z"),
                  lambda p, d: _dot(ad.attention(p["a"], p["keys"], p["z"], 0.7)[0], d["w"])),
    "edl_loss": (edl_loss, ("a",),
                 lambda p, d: edl_loss(p["a"], d["labels"], 0.7, models.LOG_ALPHA_CAP)),
    "evidential_nll": (evidential_nll, ("a",),
                       lambda p, d: evidential_nll(p["a"], d["labels"], models.LOG_ALPHA_CAP)),
    "evidential_nll, beta_reg 0.5": (
        evidential_nll, ("a",),
        lambda p, d: evidential_nll(p["a"], d["labels"], models.LOG_ALPHA_CAP, 0.5)),
    "gaussian_kl_diag": (
        gaussian_kl_diag, ("a", "c"),
        lambda p, d: gaussian_kl_diag(p["a"], p["c"], d["prior_mean"], d["prior_logvar"], 0.3)),
    "gaussian_reparam": (gaussian_reparam, ("a", "c"),
                         lambda p, d: _dot(gaussian_reparam(p["a"], p["c"], d["noise"]), d["w"])),
    "concat": (ad.concat, ("a", "c"),
               lambda p, d: _dot(ad.concat([p["a"], p["c"]], axis=1), d["w_wide"])),
    "columns": (ad.columns, ("a",),
                lambda p, d: _dot(ad.columns(p["a"], 1, d["k"]), d["w"][:, 1:])),
    "matmul": (ad.matmul, ("a", "square"),
               lambda p, d: _dot(ad.matmul(p["a"], p["square"]), d["w"])),
    "add": (ad.add, ("a", "b"), lambda p, d: _dot(ad.add(p["a"], p["b"]), d["w"])),
    "tanh": (ad.tanh, ("a",), lambda p, d: _dot(ad.tanh(p["a"]), d["w"])),
}


def _criterion_01_net(rng):
    """The arrays of the leaves and the fixed data of one random net: a
    d-h-k ReLU MLP's parameter block, and n-row operands of width k."""
    d, h, k, n, r = rng.integers(1, 4), rng.integers(2, 5), rng.integers(2, 4), 3, 4
    size = (d + 1) * h + (h + 1) * k
    arrays = {"theta": rng.normal(size=size) * 0.7, "logvars": rng.uniform(-3.0, -0.5, size=size),
              "a": rng.normal(size=(n, k)), "c": rng.normal(size=(n, k)) * 0.5,
              "b": rng.normal(size=k), "square": rng.normal(size=(k, k)),
              "keys": rng.normal(size=(r, k)), "z": rng.normal(size=(r, k))}
    data = {"x": rng.normal(size=(n, d)), "layout": [(0, d, h), ((d + 1) * h, h, k)], "k": k,
            "eps": rng.normal(size=(2, size)), "noise": rng.normal(size=(n, k)),
            "labels": rng.integers(0, k, size=n), "prior_mean": rng.normal(size=(n, k)),
            "prior_logvar": rng.normal(size=(n, k)) * 0.5, "w": rng.normal(size=(n, k)),
            "w_stack": rng.normal(size=(2, n, k)), "w_wide": rng.normal(size=(n, 2 * k))}
    return arrays, data


def _criterion_01_loss(recipe, arrays, data):
    _, names, build = CRITERION_01_RECIPES[recipe]
    tape = Tape()
    leaves = {name: tape.leaf(arrays[name]) for name in names}
    return build(leaves, data), leaves


def test_criterion_01_autodiff_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    step, worst = 1e-5, 0.0
    recipes = list(CRITERION_01_RECIPES)
    for net in range(3 * len(recipes)):
        recipe = recipes[net % len(recipes)]
        arrays, data = _criterion_01_net(rng)
        loss, leaves = _criterion_01_loss(recipe, arrays, data)
        grads = backward(loss)
        for name, leaf in leaves.items():
            arr, analytic = arrays[name], grads[leaf.node_id]
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + step
                up, _ = _criterion_01_loss(recipe, arrays, data)
                arr[idx] = orig - step
                dn, _ = _criterion_01_loss(recipe, arrays, data)
                arr[idx] = orig
                numeric = (float(up.data) - float(dn.data)) / (2 * step)
                denom = max(abs(numeric), abs(analytic[idx]), 1e-6)
                worst = max(worst, abs(analytic[idx] - numeric) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    assert report_line(1, f"autodiff gradients (max rel err {worst:.2e}, {elapsed:.1f}s)", ok)


# one training step of each model kind and config variant
TRAINING_VARIANTS = {
    "bnn": ("bnn", {}),
    "edl": ("edl", {}),
    "enp": ("enp", {}),
    "enp attention": ("enp", {"aggregation": "attention"}),
    "enp beta_reg": ("enp", {"beta_reg": 0.5}),
    "etp": ("etp", {}),
    "etp direct": ("etp", {"combiner": "direct"}),
    "etp simplified": ("etp", {"simplified": True}),
    "etp beta_reg": ("etp", {"beta_reg": 0.5}),
}


def _recording_op(vjp):
    """The name of the op whose record holds ``vjp``: the function it was
    made in, where ``add`` makes its second operand's in ``_broadcast_operand``."""
    maker = vjp.__qualname__.split(".")[0]
    return "add" if maker == "_broadcast_operand" else maker


@pytest.mark.parametrize("variant", TRAINING_VARIANTS)
def test_criterion_01_recipes_cover_recorded_ops(variant, monkeypatch):
    """Every op on the tape of a training step has a recipe in criterion 1."""
    recorded = set()

    def walking_backward(loss):
        recorded.update(_recording_op(vjp) for _, parents in loss.tape._records
                        for _, vjp in parents)
        return backward(loss)

    monkeypatch.setattr(models, "backward", walking_backward)
    kind, hyper = TRAINING_VARIANTS[variant]
    model = make_model(kind, 1, 2, (8,), SeededRng(seed=0, stream=2), **hyper)
    train(model, gen_two_gaussians(20, SeededRng(seed=0, stream=1)),
          TrainConfig(epochs=1, batch_size=40), SeededRng(seed=0, stream=4))
    checked = {op.__name__ for op, _, _ in CRITERION_01_RECIPES.values()}
    assert recorded and recorded <= checked, sorted(recorded - checked)


# ---------------------------------------------------------------------------
# criterion 2: Dirichlet analytics vs Monte Carlo


def test_criterion_02_dirichlet_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    n_mc, ok = 1_000_000, True
    for _ in range(20):
        k = int(rng.integers(2, 5))
        alpha = np.exp(rng.uniform(-0.7, 1.5, size=k))
        beta = np.exp(rng.uniform(-0.7, 1.5, size=k))
        samples = rng.dirichlet(alpha, size=n_mc)

        mean, var = (m[0] for m in dirichlet_moments_rows(np.atleast_2d(alpha)))
        mc_mean = samples.mean(axis=0)
        se_mean = samples.std(axis=0) / np.sqrt(n_mc)
        ok &= bool(np.all(np.abs(mean - mc_mean) <= 3 * se_mean + 1e-12))
        dev2 = (samples - samples.mean(axis=0)) ** 2
        ok &= bool(np.all(np.abs(var - dev2.mean(axis=0))
                          <= 3 * dev2.std(axis=0) / np.sqrt(n_mc) + 1e-12))

        cls = int(rng.integers(0, k))
        logs = np.log(np.clip(samples[:, cls], 1e-300, None))
        se_log = logs.std() / np.sqrt(n_mc)
        ok &= abs(dirichlet_expected_log_prob_rows(np.atleast_2d(alpha), [cls]).data.item()
                  - logs.mean()) <= 3 * se_log

        ratio = (scipy.stats.dirichlet.logpdf(samples.T, alpha)
                 - scipy.stats.dirichlet.logpdf(samples.T, beta))
        se_kl = ratio.std() / np.sqrt(n_mc)
        ok &= abs(dirichlet_kl_rows(np.atleast_2d(alpha), beta).data.item()
                  - ratio.mean()) <= 3 * se_kl
        ok &= abs(dirichlet_kl_rows(np.atleast_2d(alpha), alpha).data.item()) <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert report_line(2, f"dirichlet analytics vs MC ({elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# criterion 3: EDL's loss plus the constant K/2 ln pi is the negative ELBO of
# its latent-variable reading (likelihood N(y | pi, I/2), q = Dir(alpha)) with
# the KL to Dir(1) on the misleading evidence alpha~ = y + (1 - y) * alpha


def test_criterion_03_edl_elbo_constant():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    n_mc, worst = 40_000, 0.0
    for k in (2, 3, 4):
        alpha = np.exp(rng.uniform(-0.7, 1.5, size=(20, k)))
        labels = rng.integers(0, k, size=20)
        sq, kl, _ = edl_terms(alpha, labels)
        const = 0.5 * k * np.log(np.pi)
        analytic = sq[:, 0] + kl[:, 0] + const
        for a, y, want in zip(alpha, np.eye(k)[labels], analytic):
            pis = rng.dirichlet(a, size=n_mc)
            nll = ((y - pis) ** 2).sum(axis=1) + const  # -log N(y | pi, I/2)
            misleading = y + (1.0 - y) * a
            rhos = rng.dirichlet(misleading, size=n_mc)
            ratio = (scipy.stats.dirichlet.logpdf(rhos.T, misleading)
                     - scipy.stats.dirichlet.logpdf(rhos.T, np.ones(k)))
            se = np.sqrt((nll.var() + ratio.var()) / n_mc)
            worst = max(worst, abs(want - nll.mean() - ratio.mean()) / se)
    elapsed = time.perf_counter() - t0
    ok = worst <= 5.0
    assert report_line(
        3, f"EDL negative ELBO vs Monte Carlo (worst row {worst:.1f} SE, {elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# criterion 4: risk-ordering property on [0.5, 1]^2


def test_criterion_04_risk_ordering_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    pairs = rng.uniform(0.5, 1.0, size=(100_000, 2))
    violations = sum(not risk_product_check(a, b) for a, b in pairs)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 1.0
    assert report_line(4, f"risk ordering ({violations} violations, {elapsed:.2f}s)", ok)


# ---------------------------------------------------------------------------
# criterion 5: decomposition totals vs direct simulation


def test_criterion_05_decomposition_totals():
    rng = np.random.default_rng(55)
    s, ok = 10_000, True
    for cfg_idx in range(100):
        k = int(rng.integers(2, 4))
        base = rng.normal(size=k)
        noise = rng.uniform(0.1, 0.8)
        if cfg_idx % 2 == 0:
            logits = base + rng.normal(size=(s, k)) * noise
            draws = np.exp(logits - logits.max(axis=1, keepdims=True))
            draws /= draws.sum(axis=1, keepdims=True)
            triple = metrics.decompose_pbm(draws)
            # independent direct simulation of the one-hot outcome variance
            logits2 = base + rng.normal(size=(s, k)) * noise
            p2 = np.exp(logits2 - logits2.max(axis=1, keepdims=True))
            p2 /= p2.sum(axis=1, keepdims=True)
            labels = (p2.cumsum(axis=1) < rng.uniform(size=(s, 1))).sum(axis=1)
            means = draws
        else:
            alphas = np.exp(base + rng.normal(size=(s, k)) * noise)
            triple = metrics.decompose_cbm(alphas)
            alphas2 = np.exp(base + rng.normal(size=(s, k)) * noise)
            pis = np.vstack([rng.dirichlet(a) for a in alphas2])
            labels = (pis.cumsum(axis=1) < rng.uniform(size=(s, 1))).sum(axis=1)
            means = alphas / alphas.sum(axis=1, keepdims=True)
        onehot = np.eye(k)[np.clip(labels, 0, k - 1)]
        qhat = onehot.mean(axis=0)
        direct = ((onehot - qhat) ** 2).mean(axis=0)
        # delta-method SEs for q(1-q) estimators; the plug-in slope |1-2q|
        # is widened by its own 3-sigma uncertainty so the tolerance stays
        # a valid 3-SE bound near q = 1/2
        se_q = np.sqrt(qhat * (1.0 - qhat) / s)
        se_direct = (np.abs(1.0 - 2.0 * qhat) + 6.0 * se_q) * se_q
        pbar = means.mean(axis=0)
        se_p = means.std(axis=0) / np.sqrt(s)
        se_dec = (np.abs(1.0 - 2.0 * pbar) + 6.0 * se_p) * se_p
        term_sum = triple.reducible + triple.irreducible + triple.data
        tol = 3.0 * np.sqrt(se_direct**2 + se_dec**2)
        ok &= bool(np.all(np.abs(term_sum - direct) <= tol))
        ok &= bool(np.allclose(term_sum, triple.total, atol=1e-12))
    assert report_line(5, "variance decomposition totals vs simulation", ok)


# ---------------------------------------------------------------------------
# criterion 6: two-gaussians accuracy band


def test_criterion_06_two_gaussians_band(etp_b1):
    report, _, elapsed = etp_b1
    acc = 1.0 - report["aggregate"]["err_pct"]["mean"] / 100.0
    oracle = metrics.MixtureOracle([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
    bayes_acc = 1.0 - oracle.bayes_error()
    ok = (0.75 <= acc <= 0.90 and abs(bayes_acc - 0.8413) < 5e-4
          and elapsed < 120.0)
    assert report_line(
        6, f"two-gaussians accuracy {acc:.4f} (bayes {bayes_acc:.4f}, {elapsed:.0f}s)", ok)


# ---------------------------------------------------------------------------
# criterion 7: Iris training accuracy for all four models


def test_criterion_07_iris_training_accuracy():
    t0 = time.perf_counter()
    cfg = resolve_config(None, {"task": "iris2d", "epochs": 400})
    train_ds = harness.build_task_data(cfg, seed=0)[0]
    ok, details = True, []
    for kind in MODEL_KINDS:
        for seed in (0, 1, 2):
            model, _ = harness.train_seed(
                resolve_config(None, {"task": "iris2d", "model": kind, "epochs": 400}),
                seed, train_ds)
            probs = predict(model, train_ds.features, SeededRng(seed=seed, stream=3),
                            n_samples=8, n_samples_z=2)
            hits = probs.argmax(axis=1) == train_ds.labels
            acc = hits.mean()
            separable_ok = bool(np.all(hits[train_ds.labels == 0]))
            ok &= acc >= 0.90 and separable_ok
            details.append(f"{kind}/s{seed}={acc:.3f}{'' if separable_ok else '!'}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 180.0
    assert report_line(7, f"iris accuracy [{', '.join(details)}] ({elapsed:.0f}s)", ok)


# ---------------------------------------------------------------------------
# criterion 8: memory evidence points toward the correct class


def test_criterion_08_memory_evidence_direction(etp_b1):
    _, kept, _ = etp_b1
    good = 0
    for seed, model in kept.items():
        ev = model.memory_evidence(np.array([[3.0], [-3.0]]), SeededRng(seed=seed, stream=6))
        if ev[0, 1] > ev[1, 1] and ev[1, 0] > ev[0, 0]:
            good += 1
    ok = good >= 8
    assert report_line(8, f"memory evidence directionality ({good}/10 seeds)", ok)


# ---------------------------------------------------------------------------
# criterion 9: image OOD surrogate (needs user-supplied IDX files)


def test_criterion_09_image_ood_surrogate():
    data_dir = os.environ.get("ETPROC_DATA_DIR", "data")
    paths = harness.fmnist_mnist_paths(data_dir)
    if any(not os.path.exists(p) for p in paths.values()):
        print("\nACCEPTANCE 09 image OOD surrogate: SKIP (IDX files absent)")
        pytest.skip("IDX files not present")
    t0 = time.perf_counter()
    cfg = resolve_config(None, {
        "task": "fmnist-vs-mnist", "model": "etp", "data_dir": data_dir,
        "n_train_points": 5000, "epochs": 5, "batch_size": 128,
        "hidden": (64,), "seeds": (0, 1, 2, 3, 4), "ood_size": 5000,
        "n_predict_samples": 4, "n_predict_z_samples": 2,
        "include_runtime": False,
    })
    report = run_experiment(cfg)
    auroc_mean = report["aggregate"]["auroc_ood_pct"]["mean"] / 100.0
    elapsed = time.perf_counter() - t0
    ok = auroc_mean >= 0.70 and elapsed < 900.0
    assert report_line(9, f"image OOD entropy-AUROC {auroc_mean:.3f} ({elapsed:.0f}s)", ok)


# ---------------------------------------------------------------------------
# criterion 10: metric implementations vs brute force


def brute_force_ece(probs, labels, n_bins):
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    total = 0.0
    for m in range(1, n_bins + 1):
        lo, hi = (m - 1) / n_bins, m / n_bins
        mask = (conf > lo) & (conf <= hi) if m > 1 else conf <= hi
        if mask.sum() == 0:
            continue
        total += mask.sum() / len(conf) * abs(correct[mask].mean() - conf[mask].mean())
    return float(total)


def brute_force_auroc(scores_in, scores_out):
    num = 0.0
    for b in scores_out:
        for a in scores_in:
            num += 1.0 if b > a else (0.5 if b == a else 0.0)
    return num / (len(scores_in) * len(scores_out))


def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(1000):
        n, k = int(rng.integers(1, 40)), int(rng.integers(2, 5))
        raw = rng.dirichlet(np.ones(k), size=n)
        labels = rng.integers(0, k, size=n)
        bins = int(rng.integers(1, 16))
        ok &= ece(PredictionSet(raw, labels), bins) == brute_force_ece(raw, labels, bins)
    for _ in range(20):
        n_in, n_out = int(rng.integers(1, 201)), int(rng.integers(1, 201))
        a = np.round(rng.normal(size=n_in), 1)  # rounding forces ties
        b = np.round(rng.normal(size=n_out) + 0.3, 1)
        ok &= auroc(a, b) == brute_force_auroc(a, b)
    assert report_line(10, "ece/auroc vs brute-force oracles", ok)


# ---------------------------------------------------------------------------
# criterion 11: ECE non-decreasing under feature corruption


def corruption_ece_curve(kind, seed):
    train_ds = gen_two_gaussians(20, SeededRng(seed=seed, stream=1))
    hyper = {"simplified": True} if kind == "etp" else {}
    model = make_model(kind, 1, 2, (32,), SeededRng(seed=seed, stream=2), **hyper)
    train(model, train_ds, TrainConfig(epochs=400, batch_size=40),
          SeededRng(seed=seed, stream=4))
    test_rng = SeededRng(seed=seed, stream=9)
    labels = (test_rng.uniform(size=4000) < 0.5).astype(int)
    x = test_rng.normal(size=4000) + np.where(labels == 1, 1.0, -1.0)
    test_ds = data_mod.LabeledDataset(x[:, None], labels, 2)
    curve = []
    for s in range(len(GAUSSIAN_NOISE_SD)):
        corrupted = corrupt(test_ds, CorruptionSpec("gaussian-noise", s),
                            SeededRng(seed=seed, stream=20))
        probs = predict(model, corrupted.features, SeededRng(seed=seed, stream=3),
                        n_samples=8, n_samples_z=4)
        curve.append(ece(PredictionSet(probs, corrupted.labels), 10))
    return curve


def test_criterion_11_corruption_monotonicity():
    ok, details = True, []
    severities = np.arange(len(GAUSSIAN_NOISE_SD))
    for kind in MODEL_KINDS:
        curves = np.array([corruption_ece_curve(kind, seed) for seed in range(10)])
        rho = scipy.stats.spearmanr(severities, curves.mean(axis=0)).statistic
        ok &= rho >= 0.0
        details.append(f"{kind} rho={rho:+.2f}")
    assert report_line(11, f"corruption ECE monotonicity [{', '.join(details)}]", ok)


# ---------------------------------------------------------------------------
# criterion 12: determinism and serialization


def test_criterion_12_determinism_and_serialization(tmp_path):
    cfg = resolve_config(None, {
        "model": "etp", "simplified": True, "epochs": 3, "batch_size": 40,
        "test_size": 200, "ood_size": 50, "seeds": (7,),
        "n_predict_samples": 4, "n_predict_z_samples": 2,
        "include_runtime": False,
    })
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    harness.emit_report(run_experiment(cfg), "json", p1)
    report, kept = run_experiment(cfg, keep_models=True)
    harness.emit_report(report, "json", p2)
    bitwise = p1.read_bytes() == p2.read_bytes()

    model = kept[7]
    ckpt = tmp_path / "m.npz"
    save_checkpoint(model, ckpt, seed=7)
    loaded, _ = load_checkpoint(ckpt)
    round_trip = all(
        np.array_equal(arr, loaded.trainable()[name])
        for name, arr in model.trainable().items()
    ) and np.array_equal(model.memory, loaded.memory)
    x = np.array([[0.5], [-0.5]])
    round_trip &= np.array_equal(
        predict(model, x, SeededRng(seed=1), n_samples=2, n_samples_z=2),
        predict(loaded, x, SeededRng(seed=1), n_samples=2, n_samples_z=2))
    ok = bitwise and round_trip
    assert report_line(12, "bitwise report determinism + checkpoint round-trip", ok)
