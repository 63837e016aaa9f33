import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky, toeplitz

from covshift import (
    Detector,
    DetectorConfig,
    FitConfig,
    GeneratorSpec,
    PostChange,
    StreamGenerator,
    TrainingRecipe,
    build_q,
    change_norm_frobenius,
    dep_order_study,
    fit_training,
    gen_stream,
    lag_trace_coefficients,
    ma_coefficients,
    ma_variance_factor,
    monte_carlo_arl,
    monte_carlo_edd,
    population_null_sd,
)
from covshift.errors import ConfigurationError
from covshift.simulate import _one_run


def test_ma_coefficient_values():
    assert np.allclose(ma_coefficients(0), [1.0])
    assert np.allclose(ma_coefficients(1), [0.5, 1.0])
    assert np.allclose(ma_coefficients(2), [1.0 / 3.0, 0.5, 1.0])


def test_lag_trace_coefficient_values():
    assert np.allclose(lag_trace_coefficients(0), [1.0])
    assert np.allclose(lag_trace_coefficients(1), [1.25, 0.5])
    assert np.allclose(lag_trace_coefficients(2), [49.0 / 36.0, 2.0 / 3.0, 1.0 / 3.0])
    assert ma_variance_factor(1) == pytest.approx(1.25)


def test_iid_stream_has_no_serial_dependence():
    x = gen_stream(GeneratorSpec(p=8, dep_order=0), 40000, 2)
    c1 = (x[:-1].T @ x[1:]) / (x.shape[0] - 1)
    assert np.abs(c1).max() < 0.05
    cov = (x.T @ x) / x.shape[0]
    assert np.allclose(cov, np.eye(8), atol=0.05)


def test_order_one_stream_matches_population_covariances():
    x = gen_stream(GeneratorSpec(p=10, dep_order=1), 60000, 11)
    cov = (x.T @ x) / x.shape[0]
    assert np.allclose(np.diag(cov), 1.25, atol=0.05)
    c1 = (x[:-1].T @ x[1:]) / (x.shape[0] - 1)
    assert np.allclose(np.diag(c1), 0.5, atol=0.05)
    c2 = (x[:-2].T @ x[2:]) / (x.shape[0] - 2)
    assert np.abs(np.diag(c2)).max() < 0.05


def test_toeplitz_base_covariance():
    x = gen_stream(GeneratorSpec(p=6, dep_order=0, pre_base="toeplitz06"), 60000, 5)
    cov = (x.T @ x) / x.shape[0]
    target = toeplitz(0.6 ** np.arange(6))
    assert np.allclose(cov, target, atol=0.05)


def test_seed_determinism_and_chunk_invariance():
    spec = GeneratorSpec(
        p=12, dep_order=2, innovation="student_t8",
        post_change=PostChange("b", 0.4, change_at=50),
    )
    a1 = gen_stream(spec, 137, 99)
    a2 = gen_stream(spec, 137, 99)
    assert np.array_equal(a1, a2)
    g = StreamGenerator(spec, 99)
    a3 = np.vstack([g.take(13), g.take(1), g.take(100), g.take(23)])
    assert np.array_equal(a1, a3)
    b = gen_stream(spec, 137, 100)
    assert not np.array_equal(a1, b)
    # the row-wise loadings give a 1-row take after the change the bits of
    # the same row in one long take
    for base, model, rho in [("identity", "a", 0.6), ("identity", "c", 0.3),
                             ("toeplitz06", "a", -0.7), ("toeplitz06", None, 0.0),
                             ("identity", "b", 0.4)]:
        change = None if model is None else PostChange(model, rho, change_at=5)
        spec = GeneratorSpec(p=50, dep_order=1, pre_base=base, post_change=change)
        g = StreamGenerator(spec, 7)
        rows = np.vstack([g.take(1) for _ in range(12)] + [g.take(3)])
        assert np.array_equal(rows, gen_stream(spec, 15, 7)), (base, model)


def test_change_takes_effect_at_the_right_row():
    for base in ("identity", "toeplitz06"):
        spec = GeneratorSpec(p=5, dep_order=0, pre_base=base,
                             post_change=PostChange("c", 0.9, change_at=10))
        base_spec = GeneratorSpec(p=5, dep_order=0, pre_base=base)
        changed = gen_stream(spec, 20, 3)
        stable = gen_stream(base_spec, 20, 3)
        assert np.array_equal(changed[:10], stable[:10]), base
        assert not np.array_equal(changed[10:], stable[10:]), base
        # takes of 7, 6 and 20 rows: the second straddles the change, the
        # third starts after it
        gen = StreamGenerator(spec, 3)
        chunks = np.vstack([gen.take(7), gen.take(6), gen.take(20)])
        assert np.array_equal(chunks, gen_stream(spec, 33, 3)), base
    # a change at 0 loads every row with Q; model "c" draws nothing, so the
    # innovations are those of the stable identity stream
    spec = GeneratorSpec(p=5, dep_order=0, post_change=PostChange("c", 0.9, change_at=0))
    changed = gen_stream(spec, 20, 3)
    stable = gen_stream(GeneratorSpec(p=5, dep_order=0), 20, 3)
    assert np.allclose(changed, stable @ build_q("c", 5, 0.9, None).T, rtol=0, atol=1e-14)
    gen = StreamGenerator(spec, 3)
    assert np.array_equal(np.vstack([gen.take(7), gen.take(6), gen.take(7)]), changed)


def test_build_q_model_a_reproduces_toeplitz_covariance():
    rng = np.random.default_rng(0)
    q = build_q("a", 15, 0.7, rng)
    assert np.allclose(q @ q.T, toeplitz(0.7 ** np.arange(15)), atol=1e-10)


def test_build_q_model_c_unit_diagonal_constant_offdiagonal():
    rng = np.random.default_rng(0)
    q = build_q("c", 12, 0.5, rng)
    sigma = q @ q.T
    assert np.allclose(np.diag(sigma), 1.0, atol=1e-10)
    off = sigma[~np.eye(12, dtype=bool)]
    assert np.allclose(off, 0.5, atol=1e-10)


def test_build_q_model_b_perturbs_three_entries_per_row():
    rng = np.random.default_rng(7)
    p, rho = 20, 0.3
    q = build_q("b", p, rho, rng)
    delta = q - np.eye(p)
    for i in range(p):
        nz = np.abs(delta[i]) > 1e-12
        assert nz.sum() == 3
        assert np.allclose(np.abs(delta[i, nz]), rho)


def test_build_q_validates_rho():
    # build_q and change_norm_frobenius reject the same (model, p, rho)
    rng = np.random.default_rng(0)
    for model, p, rho in [("a", 10, 1.0), ("a", 10, 1.5), ("a", 10, -1.0),
                          ("b", 10, -0.1), ("b", 10, math.nan),
                          ("c", 10, -0.5), ("c", 10, 1.0),
                          ("d", 10, 0.5)]:
        if model in ("a", "b", "c"):
            build_q(model, p, 0.3, rng)  # a valid call with the same p first
        for _ in range(2):  # a rejected key is never cached
            with pytest.raises(ConfigurationError):
                build_q(model, p, rho, rng)
        with pytest.raises(ConfigurationError):
            change_norm_frobenius(model, p, rho, 0, q=np.eye(p))


def test_factors_match_scipy_cholesky():
    # the generator's loadings against the dense product with scipy's factor
    # of the target covariance; rho near 0, near +-1 and negative, and model
    # "c" near its lower limit -1/(p-1)
    rng = np.random.default_rng(31)
    for p in (1, 2, 5, 50, 300, 1000):
        cases = [("a", rho) for rho in (1e-3, 0.3, 0.6, 0.99, -0.5, -0.99)]
        cases += [("c", rho) for rho in (1e-3, 0.35, 0.99)]
        if p > 1:
            cases += [("c", -0.5 / (p - 1)), ("c", -0.99 / (p - 1))]
        for model, rho in cases:
            if model == "a":
                sigma = toeplitz(rho ** np.arange(p))
            else:
                sigma = np.full((p, p), rho)
                np.fill_diagonal(sigma, 1.0)
            factor = cholesky(sigma, lower=True)
            spec = GeneratorSpec(p=p, dep_order=0,
                                 post_change=PostChange(model, rho, change_at=0))
            got = gen_stream(spec, 6, 5)
            want = gen_stream(GeneratorSpec(p=p, dep_order=0), 6, 5) @ factor.T
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (p, model, rho)
            assert np.allclose(build_q(model, p, rho, rng), factor,
                               rtol=0, atol=1e-12), (p, model, rho)
    # the "toeplitz06" base is the model "a" loading at rho = 0.6
    base = gen_stream(GeneratorSpec(p=300, dep_order=0, pre_base="toeplitz06"), 6, 5)
    want = gen_stream(GeneratorSpec(p=300, dep_order=0), 6, 5) @ cholesky(
        toeplitz(0.6 ** np.arange(300)), lower=True).T
    assert np.abs(base - want).max() <= 1e-13 * np.abs(want).max()
    # model "b" keeps a fresh dense Q per generator, drawn before the
    # innovations, and loads the rows as their product with it
    spec_b = GeneratorSpec(p=25, dep_order=0, post_change=PostChange("b", 0.3, change_at=10))
    assert not np.array_equal(StreamGenerator(spec_b, 1).q, StreamGenerator(spec_b, 2).q)
    for p in (1, 3, 25):
        spec_b = GeneratorSpec(p=p, dep_order=0, post_change=PostChange("b", 0.7, change_at=0))
        draws = np.random.default_rng(5)
        q = build_q("b", p, 0.7, draws)
        want = draws.standard_normal((6, p)) @ q.T
        got = StreamGenerator(spec_b, 5).take(6)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), p


def test_row_wise_loadings_build_no_p_by_p_array():
    # a p x p float64 array at p = 1000 is 8 MB; the first generator loads
    # numpy's random modules, so one is made before tracing starts
    gen_stream(GeneratorSpec(p=2, dep_order=0), 1, 0)
    for model in ("a", "c"):
        spec = GeneratorSpec(p=1000, dep_order=2, pre_base="toeplitz06",
                             post_change=PostChange(model, 0.6, change_at=16))
        tracemalloc.start()
        try:
            gen = StreamGenerator(spec, 3)
            gen.take(32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.q is None
        assert peak < 1.5e6, (model, peak)


def test_change_norm_closed_forms():
    p, rho = 100, 0.6
    d = np.arange(1, p)
    expected_a = math.sqrt(2.0 * float((p - d) @ rho ** (2.0 * d)))
    assert change_norm_frobenius("a", p, rho, 0) == pytest.approx(expected_a, rel=1e-12)
    assert change_norm_frobenius("c", p, rho, 0) == pytest.approx(
        rho * math.sqrt(p * (p - 1)), rel=1e-12
    )
    # dependence inflates the change by the marginal variance factor
    assert change_norm_frobenius("a", p, rho, 2) == pytest.approx(
        (49.0 / 36.0) * expected_a, rel=1e-12
    )


def test_change_norm_model_b_matches_realized_q():
    rng = np.random.default_rng(3)
    q = build_q("b", 30, 0.25, rng)
    got = change_norm_frobenius("b", 30, 0.25, 1, q=q)
    expected = 1.25 * np.linalg.norm(q @ q.T - np.eye(30), "fro")
    assert got == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ConfigurationError):
        change_norm_frobenius("b", 30, 0.25, 1)


def test_student_innovations_have_unit_variance():
    spec = GeneratorSpec(p=4, dep_order=0, innovation="student_t8")
    x = gen_stream(spec, 100000, 8)
    assert x.var() == pytest.approx(1.0, rel=0.03)
    # heavier tails than Gaussian: excess kurtosis of t(8) is 1.5
    kurt = np.mean(x**4) / np.mean(x**2) ** 2 - 3.0
    assert 0.8 < kurt < 2.5


def test_population_null_sd_iid_closed_form():
    # For M=0 the only lag pair is (0,0): sd = 2 p sqrt(sum W^2) / H^2.
    from covshift import build_weight_plan, lag_weight_sums

    h, p = 60, 35
    s00 = lag_weight_sums(build_weight_plan(h, 0))[(0, 0)]
    assert population_null_sd(p, 0, h) == pytest.approx(
        2.0 * p * math.sqrt(s00) / h**2, rel=1e-12
    )


def test_generator_spec_validation():
    with pytest.raises(ConfigurationError):
        GeneratorSpec(p=0, dep_order=0)
    with pytest.raises(ConfigurationError):
        GeneratorSpec(p=10, dep_order=-1)
    with pytest.raises(ConfigurationError):
        GeneratorSpec(p=10, dep_order=0, innovation="cauchy")
    with pytest.raises(ConfigurationError):
        GeneratorSpec(p=10, dep_order=0, pre_base="wishart")
    with pytest.raises(ConfigurationError):
        PostChange("d", 0.5, 10)


def test_monte_carlo_guards():
    stable = GeneratorSpec(p=10, dep_order=0)
    changed = GeneratorSpec(p=10, dep_order=0, post_change=PostChange("a", 0.5, change_at=50))
    recipe = TrainingRecipe(n0=50)
    with pytest.raises(ConfigurationError):
        monte_carlo_arl(changed, recipe, 3.0, 20, 2)
    with pytest.raises(ConfigurationError):
        monte_carlo_edd(stable, recipe, 3.0, 20, 2)
    with pytest.raises(ConfigurationError):
        bad = GeneratorSpec(p=10, dep_order=0, post_change=PostChange("a", 0.5, change_at=60))
        monte_carlo_edd(bad, recipe, 3.0, 20, 2)


def test_worker_count_does_not_change_results():
    spec = GeneratorSpec(p=30, dep_order=0, post_change=PostChange("a", 0.8, change_at=80))
    recipe = TrainingRecipe(n0=80)
    mc1 = monte_carlo_edd(spec, recipe, 3.0, 30, replicates=6, seed=5, workers=1)
    mc3 = monte_carlo_edd(spec, recipe, 3.0, 30, replicates=6, seed=5, workers=3)
    assert np.array_equal(mc1.values, mc3.values)
    assert mc1.mean == mc3.mean


def test_censoring_counts_and_unreliable_flag():
    # (p, n0, threshold, window, max_steps, seed, censored): no replicate alarms
    # in the first case; in the second every one alarms on the last allowed step
    for p, n0, threshold, window, max_steps, seed, censored in [
        (20, 60, 50.0, 20, 40, 1, 4),
        (5, 40, 1e-6, 10, 1, 0, 0),
    ]:
        mc = monte_carlo_arl(GeneratorSpec(p=p, dep_order=0), TrainingRecipe(n0=n0),
                             threshold=threshold, window=window, replicates=4,
                             max_steps=max_steps, seed=seed)
        assert mc.censored == censored
        assert mc.unreliable == (censored > 0)
        assert mc.mean == float(max_steps)


def test_adaptive_order_matches_known_order_when_estimate_agrees():
    # Fitting with the true order forced and with the order estimated must give
    # bit-identical summaries whenever the estimate lands on the true order.
    spec = GeneratorSpec(p=200, dep_order=1)
    agree = 0
    total = 12
    for rep in range(total):
        train = gen_stream(spec, 250, (123, rep))
        known = fit_training(train, FitConfig(window=60, dep_order_override=1))
        adaptive = fit_training(train, FitConfig(window=60))
        if adaptive.dep_order == 1:
            agree += 1
            assert adaptive.null_sd == known.null_sd
            assert adaptive.stationarity.statistic == known.stationarity.statistic
    assert agree >= int(0.9 * total)


def test_dep_order_study_counts():
    counts = dep_order_study(1, p=150, n0=200, replicates=12, seed=3)
    assert sum(counts.values()) == 12
    assert counts.get(1, 0) >= 10


def test_monte_carlo_stopping_times_are_pinned():
    # Exact stopping times for fixed seeds: the block sizes rows are taken in
    # must not move any of them.
    edd_spec = GeneratorSpec(p=60, dep_order=0, post_change=PostChange("a", 0.6, change_at=80))
    edd = monte_carlo_edd(edd_spec, TrainingRecipe(n0=80), 3.0, 30, replicates=6, seed=11)
    assert edd.values.tolist() == [12, 17, 31, 5, 17, 13]
    assert edd.censored == 0
    # runs longer than 16 + 32 + 64 rows span several take blocks
    arl_spec = GeneratorSpec(p=20, dep_order=1, pre_base="toeplitz06")
    arl = monte_carlo_arl(arl_spec, TrainingRecipe(n0=60), threshold=5.0, window=20,
                          replicates=6, max_steps=3000, seed=4)
    assert arl.values.tolist() == [399, 609, 1462, 321, 151, 304]
    assert arl.censored == 0
    assert dep_order_study(2, p=30, n0=80, replicates=10, seed=2) == {2: 3, 1: 7}


def test_one_run_matches_row_at_a_time_reference():
    # (spec, n0, threshold, window, max_steps); the first spec's runs stop
    # after several take blocks or hit the cap, the second's stop early
    cases = [
        (GeneratorSpec(p=20, dep_order=1, pre_base="toeplitz06"), 60, 5.0, 20, 700),
        (GeneratorSpec(p=40, dep_order=2, post_change=PostChange("a", 0.6, change_at=80)),
         80, 3.0, 30, 300),
    ]
    for spec, n0, threshold, window, max_steps in cases:
        recipe = TrainingRecipe(n0=n0)
        for rep in range(4):
            x = gen_stream(spec, n0 + max_steps, (4, rep))
            config = FitConfig(window=window, alpha=recipe.alpha, epsilon=recipe.epsilon,
                               dep_order_override=spec.dep_order,
                               max_order=recipe.max_order)
            det = Detector(fit_training(x[:n0], config),
                           DetectorConfig(window=window, threshold=threshold))
            want = (max_steps, False)
            for row in x[n0:]:
                result = det.step(row)
                if result.state == "alarm":
                    want = (result.stopping_time, True)
                    break
            got = _one_run(spec, recipe, threshold, window, max_steps, 4, rep)
            assert got == want, (spec, rep)


def test_training_recipe_validation_and_override():
    with pytest.raises(ConfigurationError):
        TrainingRecipe(n0=1)
    with pytest.raises(ConfigurationError):
        TrainingRecipe(dep_order_policy="oracle")
    with pytest.raises(ConfigurationError):
        TrainingRecipe(dep_order_policy=-2)
    assert TrainingRecipe(dep_order_policy="true").resolve_override(2) == 2
    assert TrainingRecipe(dep_order_policy="estimate").resolve_override(2) is None
    assert TrainingRecipe(dep_order_policy=3).resolve_override(2) == 3
