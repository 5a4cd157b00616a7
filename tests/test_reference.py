"""The likelihood against an mpmath reference table, and array calls against scalar calls.

The table comes from tests/reference/make_likelihood_table.py (see there
for the model and the formulas).
"""

import csv
import os
from collections import defaultdict

import numpy as np
import pytest

from levybridge import mc
from levybridge.laws import DefaultTimeLaw, LevyLaw, PayoffDistribution
from levybridge.model import MarketModel, RateCurve
from levybridge.numerics import QuadratureError
from levybridge.pricing import likelihood_q, poisson_closed_form_price, x_bracket

TABLE = os.path.join(os.path.dirname(__file__), "reference", "likelihood_table.csv")
LAWS = {"gamma": LevyLaw.standard_gamma(), "poisson": LevyLaw.poisson(1.0)}
BINARY = PayoffDistribution.binary(0.0, 1.0, 0.5)


def _model(law):
    return MarketModel(1.0, 1.0, 1.0, RateCurve.flat(0.0), BINARY, law)


def _table():
    groups = defaultdict(lambda: ([], []))
    with open(TABLE) as fh:
        for row in csv.DictReader(fh):
            xs, logs = groups[(row["law"], float(row["t"]), float(row["h"]))]
            xs.append(float(row["x"]))
            logs.append(float(row["log_q"]))
    return {key: (np.array(xs), np.array(logs)) for key, (xs, logs) in groups.items()}


@pytest.mark.parametrize("law", sorted(LAWS))
def test_likelihood_matches_mpmath_table(law):
    table = {key: val for key, val in _table().items() if key[0] == law}
    assert len(table) == 10
    model = _model(LAWS[law])
    for (_, t, h), (xs, ref) in table.items():
        try:
            got = likelihood_q(model, t, h, xs)
        except QuadratureError:
            continue  # an explicit failure is allowed; a wrong number is not
        with np.errstate(divide="ignore"):
            rel = np.abs(np.expm1(np.log(got) - ref))
        assert np.all(rel <= 1e-9), (t, h, xs[np.argmax(rel)], rel.max())


@pytest.mark.parametrize("law", sorted(LAWS))
def test_array_call_equals_scalar_calls(law):
    model = _model(LAWS[law])
    for t in (0.05, 0.5, 0.95):
        lo, hi = x_bracket(model, t, t / model.maturity)
        xs = np.linspace(lo, hi, 23)
        for h in (0.0, 1.0):
            batch = likelihood_q(model, t, h, xs)
            single = np.array([likelihood_q(model, t, h, float(x)) for x in xs])
            np.testing.assert_array_equal(batch, single)
            assert batch.shape == xs.shape
            assert isinstance(likelihood_q(model, t, h, float(xs[0])), float)


def test_poisson_closed_form_far_past_the_pmf_bulk():
    # the series peaks near n = 20 while the pmf bulk sits at n <= 3; the
    # reference is a direct 40-digit mpmath sum over n < 400
    model = _model(LAWS["poisson"])
    assert poisson_closed_form_price(model, 0.01, 3.0) == pytest.approx(0.94545597193931, rel=1e-9)


@pytest.mark.parametrize("default_law", [None, DefaultTimeLaw.atoms([0.7, 0.8], [0.5, 0.5], horizon=1.0)])
def test_tower_check_identical_across_thread_counts(monkeypatch, default_law):
    model = MarketModel(1.0, 1.0, 0.5, RateCurve.flat(0.0), BINARY, LAWS["gamma"], default_law=default_law)
    n_paths = 2 * mc.BATCH_SIZE + 1000
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BRIDGE_THREADS", threads)
        reports.append(mc.tower_check(model, 0.5, n_paths, 23))
    assert reports[0] == reports[1]
    assert reports[0].n_paths == n_paths
