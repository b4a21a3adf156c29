"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. Each
criterion runs at its stated tolerance; nothing is deferred to calibration.
"""

import numpy as np
import pytest
from scipy import stats

import reference
from labelaudit import bench
from labelaudit.confident import flag_multilabel
from labelaudit.metrics import ap_at_t, auprc, spearman
from labelaudit.scoring import POOLER_NAMES, PoolingMethod, pool
from labelaudit.synth import (
    GenConfig,
    draw_noise_spec,
    gen_multilabel,
    inject_noise,
    sample_noise_traces,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def paired_lead(baseline, other) -> tuple[float, float]:
    """Mean of the paired differences ``other - baseline`` and the half-width
    of its two-sided 95% Student-t confidence interval (t quantile 0.975).

    ``other`` is significantly better than ``baseline`` when the mean exceeds
    the half-width: a one-sided paired t-test at the 2.5% level. Differences
    with zero spread give a half-width of 0, so a constant lead counts as
    significant and a constant tie does not.
    """
    d = np.asarray(other, dtype=float) - np.asarray(baseline, dtype=float)
    if d.ndim != 1 or d.size < 2 or not np.isfinite(d).all():
        raise ValueError(f"need >= 2 finite paired differences, got {d!r}")
    t_quantile = stats.t.ppf(0.975, d.size - 1)
    return float(d.mean()), float(t_quantile * d.std(ddof=1) / np.sqrt(d.size))


def method_means(metric_rows, metric: str) -> dict[str, float]:
    """Mean value per method for one metric, NaN-skipping, from ``bench.aggregate_rows``."""
    return {method: mean for _classifier, method, m, _k, mean, _std, _n
            in bench.aggregate_rows(metric_rows) if m == metric}


def ema_ap_leads(metric_rows) -> dict[str, tuple[float, float]]:
    """``paired_lead`` of every other pooler over EMA on per-replicate AP@T."""
    ap_by_seed: dict[str, dict[int, float]] = {}
    for row in metric_rows:
        if row[4] == "ap_at_t":
            ap_by_seed.setdefault(row[3], {})[row[1]] = float(row[7])
    seeds = sorted(ap_by_seed["ema"])
    ema_ap = [ap_by_seed["ema"][s] for s in seeds]
    return {m: paired_lead(ema_ap, [ap_by_seed[m][s] for s in seeds])
            for m in ap_by_seed if m != "ema"}


def test_paired_lead_separates_ties_from_leads():
    """Tied values are not a significant lead, a consistent lead well over the
    noise is, and zero-spread differences give no NaN."""
    rng = np.random.default_rng(500)
    base = rng.normal(0.88, 0.044, size=10)

    mean, half = paired_lead(base, base + rng.normal(0.0, 0.01, size=10))
    assert mean <= half

    mean, half = paired_lead(base, base + 0.1 + rng.normal(0.0, 0.01, size=10))
    assert mean > half

    mean, half = paired_lead(base, base.copy())
    assert (mean, half) == (0.0, 0.0)

    mean, half = paired_lead(np.zeros(10), np.full(10, 0.05))
    assert np.isfinite(half) and mean > half

    with pytest.raises(ValueError):
        paired_lead([0.5], [0.6])
    with pytest.raises(ValueError):
        paired_lead([0.5, np.nan], [0.6, 0.7])


def test_ema_weight_identity():
    """alpha=0.8 puts weight exactly 0.032 on the 3rd-lowest score, 0.0064 on the 4th."""
    alpha, k_classes, tol = 0.8, 6, 1e-12

    def symbolic(k):
        return alpha * (1 - alpha) ** (k - 1)

    ok = abs(symbolic(3) - 0.032) < tol and abs(symbolic(4) - 0.0064) < tol

    # numeric probe 1: 0/1 step vectors; the weight of sorted position k is
    # the difference between pooling steps that turn on at k and at k+1.
    ema = PoolingMethod("ema", alpha=alpha)

    def step(k):  # ones at ascending positions >= k (1-based)
        v = np.zeros(k_classes)
        v[k - 1:] = 1.0
        return pool(v[None, :], ema)[0]

    for k, expected in ((3, 0.032), (4, 0.0064)):
        probe = step(k) - step(k + 1)
        ok = ok and abs(probe - expected) < tol

    # numeric probe 2: linear bump of one sorted position of an increasing row
    base = np.linspace(0.1, 0.6, k_classes)
    delta = 1.0 / 64.0
    for k, expected in ((3, 0.032), (4, 0.0064)):
        bumped = base.copy()
        bumped[k - 1] += delta
        probe = (pool(bumped[None, :], ema) - pool(base[None, :], ema))[0] / delta
        ok = ok and abs(probe - expected) < tol

    report("ema-weight-identity", ok,
           "3rd=0.032, 4th=0.0064 via symbolic + step-vector + linearity probes")


def test_auprc_equals_ap_at_n():
    """AUPRC and AP@N coincide exactly on 100 random instances (N <= 200)."""
    from labelaudit.metrics import ErrorTruth

    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        scores = rng.random(n)
        counts = rng.integers(0, 3, size=n)
        if not (counts > 0).any():
            counts[rng.integers(0, n)] = 1
        truth = ErrorTruth(counts > 0, counts)
        diff = abs(auprc(scores, truth).value - ap_at_t(scores, truth, t=n).value)
        worst = max(worst, diff)
    report("auprc-equals-ap-at-n", worst < 1e-12, f"max |diff| = {worst:.2e}")


def test_pooler_oracle_equivalence():
    """Every implemented pooler matches its brute-force oracle on 1000 random
    matrices (N <= 100, K <= 10) to 1e-12."""
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        k = int(rng.integers(1, 11))
        scores = rng.random((n, k))
        if k >= 2 and rng.random() < 0.25:
            scores[rng.random((n, k)) < 0.15] = 0.0
            scores[rng.random((n, k)) < 0.15] = 1.0
        rows = scores.tolist()
        for name in POOLER_NAMES:
            method = PoolingMethod(name, bottom_j=min(2, k), period=min(2, k))
            mine = pool(scores, method)
            ref = reference.pool_matrix(name, rows, **method.params())
            diff = float(np.max(np.abs(mine - np.asarray(ref))))
            scale = max(1.0, float(np.max(np.abs(ref))))
            worst = max(worst, diff / scale)
    report("pooler-oracle-equivalence", worst < 1e-12,
           f"{len(POOLER_NAMES)} poolers x 1000 matrices, max rel diff = {worst:.2e}")


def test_confident_flagging_exact_recovery():
    """Oracle probabilities on 20 noisy synthetic datasets (N=500, K=6):
    flagged set == true mislabeled set, precision = recall = 1."""
    exact = True
    detail = ""
    for seed in range(20):
        config = GenConfig(n_samples=500, n_test=100, n_features=5, n_classes=6,
                           expected_labels_per_example=2.5, seed=seed)
        clean = gen_multilabel(config)
        noise = draw_noise_spec(6, seed=seed + 1000)
        noisy = inject_noise(clean.true_labels, noise.matrices, 3, seed=seed + 2000)
        pos = noisy.sum(axis=0)
        assert (pos > 0).all() and (pos < 500).all(), "degenerate class in test data"
        probs = clean.true_labels.astype(float)
        flags = flag_multilabel(noisy, probs).example_flags
        expected = (noisy != clean.true_labels).any(axis=1)
        if not np.array_equal(flags, expected):
            exact = False
            detail = f"seed {seed}: {int(flags.sum())} flagged vs {int(expected.sum())} true"
            break
    report("confident-exact-recovery", exact,
           detail or "20 seeds, precision = recall = 1.0")


def test_metric_oracle_equivalence():
    """AP@T, 2/3-Precision@T and Spearman match naive references to 1e-12."""
    from labelaudit.metrics import ErrorTruth

    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        scores = rng.random(n)
        counts = rng.integers(0, 4, size=n)
        truth_obj = ErrorTruth(counts > 0, counts)
        t = int(rng.integers(1, n + 1))
        for k in (1, 2, 3):
            mine = ap_at_t(scores, truth_obj, t=t, min_errors=k).value
            ref = reference.ap_at_t(scores.tolist(), (counts >= k).tolist(), t)
            worst = max(worst, abs(mine - ref))
        y = rng.integers(0, 4, size=n)
        if not (np.all(scores == scores[0]) or np.all(y == y[0])):
            worst = max(worst, abs(spearman(scores, y).value
                                   - reference.spearman(scores, y)))
    report("metric-oracle-equivalence", worst < 1e-12, f"max |diff| = {worst:.2e}")


def test_noise_generator_properties():
    """Traces in (0,2] with >=99% above 1.8 over 10,000 draws; error cap <= 3."""
    traces = np.concatenate([sample_noise_traces(10, seed=s) for s in range(1000)])
    assert traces.size == 10_000
    in_range = bool(((traces > 0) & (traces <= 2)).all())
    light = float((traces > 1.8).mean())

    config = GenConfig(n_samples=2000, n_test=100, n_features=4, n_classes=8,
                       expected_labels_per_example=3.0, seed=60)
    clean = gen_multilabel(config)
    noise = draw_noise_spec(8, seed=61)
    noisy = inject_noise(clean.true_labels, noise.matrices,
                         noise.max_errors_per_example, seed=62)
    max_errors = int((noisy != clean.true_labels).sum(axis=1).max())

    ok = in_range and light >= 0.99 and max_errors <= 3
    report("noise-generator-properties", ok,
           f"range ok = {in_range}, frac > 1.8 = {light:.4f}, max per-example errors = {max_errors}")


def test_gradient_check():
    """Analytic gradients match central differences (h = 1e-6) to < 1e-5
    relative error on 50 random small instances."""
    rng = np.random.default_rng(400)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        n, d = int(rng.integers(3, 15)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = float(rng.choice([0.0, 1e-4, 1e-2, 0.5]))
        _, grad_w, grad_b = reference.binary_loss_and_grad(w, b, X, y, l2)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (reference.binary_loss_and_grad(w + e, b, X, y, l2)[0]
                  - reference.binary_loss_and_grad(w - e, b, X, y, l2)[0]) / (2 * h)
            worst = max(worst, abs(grad_w[j] - fd) / max(1e-8, abs(grad_w[j]) + abs(fd)))
        fd_b = (reference.binary_loss_and_grad(w, b + h, X, y, l2)[0]
                - reference.binary_loss_and_grad(w, b - h, X, y, l2)[0]) / (2 * h)
        worst = max(worst, abs(grad_b - fd_b) / max(1e-8, abs(grad_b) + abs(fd_b)))
    report("gradient-check", worst < 1e-5, f"50 instances, max rel err = {worst:.2e}")


@pytest.fixture(scope="module")
def small_benchmark_report():
    plan = bench.small_plan(n_replicates=10, base_seed=0)
    return bench.run_benchmark(plan, jobs=4)


def test_benchmark_qualitative_pattern(small_benchmark_report):
    """10 Small replicates with logistic-regression CV probabilities:
    (a) no pooler does better than EMA on AP@T: for every other pooler, the
    mean of its per-replicate AP@T differences against EMA lies within the
    two-sided 95% paired-t half-width; (b) min-pooling beats mean-pooling on
    AP@T; (c) a cumulative/mean-style pooler beats min-pooling on (negated)
    Spearman correlation with error counts.

    At K=4, alpha=0.8 puts weight 0.8 on the smallest score, so EMA is
    nearly min-pooling and is tied with min, softmin and weighted_cumavg;
    (a) therefore checks for a significant lead, not EMA's point rank.
    Comparing the lead with the two-sided 95% half-width is a one-sided
    t-test at 2.5% per pooler. (a) makes nine such comparisons, so a 5%
    level would raise false alarms on a tied pooler twice as often; the
    Bonferroni level for nine (0.56%) is stricter still. At this fixture
    min's lead over EMA is +0.0110, t = 1.88 on 9 df (one-sided p = 0.047),
    so (a) would just fail at an uncorrected 5% level. Over 40 other
    replicates (base_seed=100) that lead is +0.0037 +/- 0.0069.
    """
    rep = small_benchmark_report
    assert not rep.failures, rep.failures

    ap = method_means(rep.metric_rows, "ap_at_t")
    neg_rho = method_means(rep.metric_rows, "neg_spearman")

    leads = ema_ap_leads(rep.metric_rows)

    ranked = sorted(ap, key=ap.get, reverse=True)
    ema_rank = ranked.index("ema") + 1
    part_a = all(mean <= half for mean, half in leads.values())
    part_b = ap["min"] > ap["mean"]
    mean_style = {m: neg_rho[m] for m in
                  ("mean", "median", "cumavg_bottom", "weighted_cumavg", "sma")}
    best_style = max(mean_style, key=mean_style.get)
    part_c = mean_style[best_style] > neg_rho["min"]

    ahead = ", ".join(f"{m} {leads[m][0]:+.4f} +/- {leads[m][1]:.4f}"
                      for m in ranked[:ema_rank - 1])
    detail = (
        f"(a) ema rank {ema_rank} of {len(ranked)} "
        f"[top3: {', '.join(f'{m}={ap[m]:.4f}' for m in ranked[:3])}; "
        f"paired lead over ema: {ahead or 'none'}] -> "
        f"{'PASS' if part_a else 'FAIL'}; "
        f"(b) min {ap['min']:.4f} > mean {ap['mean']:.4f} -> "
        f"{'PASS' if part_b else 'FAIL'}; "
        f"(c) {best_style} {mean_style[best_style]:.4f} > min {neg_rho['min']:.4f} -> "
        f"{'PASS' if part_c else 'FAIL'}"
    )
    report("benchmark-qualitative-pattern", part_a and part_b and part_c, detail)


def test_benchmark_part_a_detects_weakened_ema():
    """Part (a) can fail: with EMA's alpha lowered from 0.8 to 0.5, min,
    softmin and weighted_cumavg each lead EMA on AP@T by more than the
    paired half-width over 6 Small replicates."""
    methods = tuple(PoolingMethod(name, alpha=0.5) if name == "ema"
                    else PoolingMethod(name) for name in POOLER_NAMES)
    plan = bench.small_plan(n_replicates=6, base_seed=0, methods=methods)
    rep = bench.run_benchmark(plan, jobs=2)
    assert not rep.failures, rep.failures

    leads = ema_ap_leads(rep.metric_rows)
    significant = {m: v for m, v in leads.items() if v[0] > v[1]}
    detail = ", ".join(f"{m} {mean:+.4f} +/- {half:.4f}"
                       for m, (mean, half) in significant.items())
    report("benchmark-part-a-detects-weakened-ema",
           {"min", "softmin", "weighted_cumavg"} <= significant.keys(),
           f"significant leads over ema(alpha=0.5): {detail or 'none'}")
