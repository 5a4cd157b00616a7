import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

import levybridge
from levybridge.laws import DefaultTimeLaw, LevyLaw, PayoffDistribution, QuadratureError
from levybridge.numerics import Quadrature
from levybridge.sampling import rng_for


def test_levy_law_validation():
    with pytest.raises(ValueError):
        LevyLaw("weird")
    with pytest.raises(ValueError):
        LevyLaw.poisson(0.0)
    assert LevyLaw.standard_gamma().mean(0.3) == 0.3
    assert LevyLaw.poisson(2.0).variance(0.5) == 1.0
    assert LevyLaw.degenerate().mean(1.0) == 0.0
    assert LevyLaw.standard_gamma().tail_quantile(0.5) > 10.0


@pytest.mark.parametrize("kind", ["gamma", "none"])
def test_levy_laws_without_a_rate_reject_one(kind):
    for rate in (3.0, 0.5, np.nan):
        with pytest.raises(ValueError, match="law's rate must be 1"):
            LevyLaw(kind, rate)
    # the CLI passes its one intensity option to every kind
    assert LevyLaw.named(kind, 3.0) == LevyLaw(kind)


# the tails the pricers (default), the CLI and the acceptance tests pass
QUANTILE_TAILS = [1e-12, 1e-13, 1e-14]
LAW_TIMES = np.logspace(-8.0, np.log10(50.0), 60)
POISSON_RATES = np.logspace(-2.0, np.log10(50.0), 9)


@pytest.mark.parametrize("tail", QUANTILE_TAILS)
def test_tail_quantile_equals_scipy_stats_bit_for_bit(tail):
    from scipy import stats  # the reference: the library itself does not import scipy.stats

    for t in LAW_TIMES:
        want = float(stats.gamma.ppf(1.0 - tail, a=t))
        assert LevyLaw.standard_gamma().tail_quantile(t, tail).hex() == want.hex(), t
        for rate in POISSON_RATES:
            want = float(stats.poisson.ppf(1.0 - tail, mu=rate * t))
            assert LevyLaw.poisson(rate).tail_quantile(t, tail).hex() == want.hex(), (rate, t)


def test_tail_quantile_edges_equal_scipy_stats():
    from scipy import stats

    # no gamma quantile at a shape t <= 0; a tail below half an ulp of 1 leaves
    # the upper end of the support
    for t in (0.0, -1.0, np.nan, np.inf, 1e-300, 0.5):
        for tail in (1e-14, 1e-17):
            want = float(stats.gamma.ppf(1.0 - tail, a=t))
            assert LevyLaw.standard_gamma().tail_quantile(t, tail).hex() == want.hex(), (t, tail)
            want = float(stats.poisson.ppf(1.0 - tail, mu=2.0 * t))
            assert LevyLaw.poisson(2.0).tail_quantile(t, tail).hex() == want.hex(), (t, tail)
    assert LevyLaw.degenerate().tail_quantile(0.5) == 0.0


def test_library_start_up_leaves_out_scipy_stats():
    # scipy.stats costs about a third of a second at import, and nothing in the
    # library needs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(levybridge.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, levybridge, levybridge.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_payoff_validation():
    with pytest.raises(ValueError):
        PayoffDistribution([0.0, 0.0], [0.5, 0.5])  # duplicate support
    with pytest.raises(ValueError):
        PayoffDistribution([0.0, 1.0], [0.6, 0.6])  # mass != 1
    with pytest.raises(ValueError):
        PayoffDistribution([0.0, 1.0], [1.1, -0.1])
    p = PayoffDistribution.binary(0.0, 1.0, 0.25)
    assert p.mean() == 0.25
    assert p.is_binary


def test_payoff_truncation_renormalizes():
    # geometric tail gets cut once cumulative mass reaches the coverage target
    probs = 0.5 ** np.arange(1, 81)
    support = np.arange(80, dtype=float)
    p = PayoffDistribution.from_weights(support, probs)
    assert p.n_atoms < 80
    assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert p.n_atoms >= 40  # keeps everything needed for 1 - 1e-12 coverage


def test_payoff_probabilities_must_sum_to_one():
    # checked before truncation: [0.5, 0.6] is not renormalized to 0.4545/0.5455
    for probs in ([0.5, 0.6], [0.5, 0.4], [0.5, np.nan], [np.inf, 0.5], [0.5, 0.5 + 2e-9]):
        with pytest.raises(ValueError, match="payoff probabilities must sum to 1, got"):
            PayoffDistribution.from_weights([0.0, 1.0], probs)
    with pytest.raises(ValueError, match="got 1.1$"):
        PayoffDistribution.from_weights([0.0, 1.0], [0.5, 0.6])
    for probs, bad in (([1.5, -0.5], "1.5"), ([0.0, 1.0, -0.25, 0.25], "-0.25")):
        # sums to 1, and truncation alone would drop the bad atom
        with pytest.raises(ValueError, match=f"payoff probabilities must lie in \\[0, 1\\], got {bad}$"):
            PayoffDistribution.from_weights(np.arange(len(probs), dtype=float), probs)
    p = PayoffDistribution.from_weights([0.0, 1.0], [0.5, 0.5 + 5e-10])  # within 1e-9
    assert p.probs.tolist() == [0.5 / (1.0 + 5e-10), (0.5 + 5e-10) / (1.0 + 5e-10)]


def test_payoff_sampling_deterministic():
    p = PayoffDistribution.binary(0.0, 1.0, 0.5)
    a = p.sample(rng_for(5), 100)
    b = p.sample(rng_for(5), 100)
    np.testing.assert_array_equal(a, b)


def test_default_law_atoms():
    law = DefaultTimeLaw.atoms([0.7, 0.8], [0.5, 0.5], horizon=1.0)
    assert law.cdf(0.5) == 0.0
    assert law.cdf(0.7) == 0.5
    assert law.cdf(1.0) == 1.0
    assert law.integrate(lambda r: r, 0.0, 1.0) == pytest.approx(0.75)
    assert law.integrate(lambda r: 1.0, 0.7, 0.8) == pytest.approx(0.5)  # (lo, hi] excludes 0.7
    taus = law.sample(rng_for(9), 1000)
    assert set(np.unique(taus)) == {0.7, 0.8}


def test_default_law_validation():
    with pytest.raises(ValueError):
        DefaultTimeLaw.atoms([0.0, 0.5], [0.5, 0.5], horizon=1.0)  # atom at 0
    with pytest.raises(ValueError):
        DefaultTimeLaw.atoms([0.5, 1.5], [0.5, 0.5], horizon=1.0)  # beyond horizon
    with pytest.raises(ValueError):
        DefaultTimeLaw.atoms([0.5, 0.8], [0.5, 0.6], horizon=1.0)  # mass != 1
    with pytest.raises(ValueError):
        DefaultTimeLaw.from_density(lambda r: 0.5, 1.0)  # mass 0.5


def test_default_law_exponential_conditioned():
    law = DefaultTimeLaw.exponential_conditioned(0.1, 1.0)
    assert law.cdf(1.0) == pytest.approx(1.0, abs=1e-12)
    assert law.cdf(0.0) == 0.0
    # conditioned cdf at t: (1 - e^{-0.1 t}) / (1 - e^{-0.1})
    assert law.cdf(0.5) == pytest.approx((1 - np.exp(-0.05)) / (1 - np.exp(-0.1)), abs=1e-12)
    assert law.integrate(lambda r: 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-9)
    taus = law.sample(rng_for(11), 50_000)
    assert np.all((taus > 0.0) & (taus <= 1.0))
    emp = np.mean(taus <= 0.5)
    assert abs(emp - law.cdf(0.5)) < 4 * np.sqrt(0.25 / 50_000)


def test_default_law_exponential_conditioned_at_a_small_rate():
    # 1 - exp(-1e-7) loses half its digits to cancellation; the density mass
    # check raised on it
    law = DefaultTimeLaw.exponential_conditioned(1e-7, 1.0)
    want = np.expm1(-5e-8) / np.expm1(-1e-7)
    assert abs(law.cdf(0.5) - want) <= 1e-15 * want


def test_default_law_uniform():
    law = DefaultTimeLaw.uniform(0.2, 0.6, horizon=1.0)
    assert law.cdf(0.4) == pytest.approx(0.5)
    assert law.integrate(lambda r: r, 0.0, 1.0) == pytest.approx(0.4, rel=1e-9)
    taus = law.sample(rng_for(3), 100)
    assert np.all((taus > 0.2) & (taus <= 0.6))


def test_default_law_generic_density_sampling():
    law = DefaultTimeLaw.from_density(lambda r: 2.0 * r, 1.0)  # triangular on (0, 1]
    taus = law.sample(rng_for(4), 50_000)
    assert abs(taus.mean() - 2.0 / 3.0) < 4 * taus.std() / np.sqrt(taus.size)


def test_default_law_integral_raises_when_tolerance_unreachable():
    law = DefaultTimeLaw.exponential_conditioned(0.5, 1.0)
    with pytest.raises(QuadratureError):
        law.integrate(lambda s: np.sin(1.0 / s), 0.5, 1.0)  # s = r - 0.5


def test_default_law_integral_over_uniform_jumps():
    law = DefaultTimeLaw.uniform(0.3, 0.7, horizon=1.0)
    assert law.jumps == (0.3, 0.7)
    assert law.integrate(lambda r: r, 0.0, 1.0, Quadrature(abs_tol=1e-15, rel_tol=1e-13)) == pytest.approx(0.5, rel=1e-13)
    atoms = DefaultTimeLaw.atoms([0.2, 0.6], [0.5, 0.5])
    # one element per argument value
    np.testing.assert_array_equal(atoms.integrate(lambda r, c: r * c, 0.0, 1.0, args=(np.arange(3.0),)), [0.0, 0.4, 0.8])


def test_default_law_density_integral_per_element_arguments():
    # the elements converge in different rounds of bisection; the density and
    # the integrand still see only default times in (lo, hi]
    seen = []

    def pdf(r):
        seen.append(np.array(r))
        return 2.0 * r

    law = DefaultTimeLaw.from_density(pdf, 1.0)
    seen.clear()
    c = np.array([0.0, 1.0, 30.0, 300.0])
    val = law.integrate(lambda s, c: np.cos(c * s), 0.2, 1.0, args=(c,))
    expected = [integrate.quad(lambda r: np.cos(ci * (r - 0.2)) * 2.0 * r, 0.2, 1.0, limit=400, epsabs=1e-14)[0]
                for ci in c]
    np.testing.assert_allclose(val, expected, rtol=1e-9, atol=1e-12)
    times = np.concatenate([r.ravel() for r in seen])
    assert np.all((times > 0.2) & (times <= 1.0))


def test_default_law_integral_off_the_mass_is_zero_of_the_arguments_shape():
    atoms = DefaultTimeLaw.atoms([0.2, 0.3], [0.5, 0.5], horizon=1.0)
    density = DefaultTimeLaw.exponential_conditioned(0.3, 1.0)
    args = (np.arange(3.0), np.ones((2, 1)))

    def f(s, a, b):
        return s * a * b

    # empty intervals under both kinds of law, and an interval that holds no atom
    for law, lo, hi in [(atoms, 0.5, 0.5), (atoms, 0.6, 0.4), (density, 0.7, 0.7), (atoms, 0.3, 1.0)]:
        val = law.integrate(f, lo, hi, args=args)
        assert val.shape == (2, 3) and not np.any(val)
        val = law.integrate(lambda s: s, lo, hi)
        assert isinstance(val, float) and val == 0.0
