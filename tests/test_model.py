import json

import numpy as np
import pytest

from levybridge.laws import DefaultTimeLaw, LevyLaw, PayoffDistribution
from levybridge.model import (MarketModel, RateCurve, model_from_dict,
                              model_from_json, model_to_dict)


def test_flat_rate_curve():
    r = RateCurve.flat(0.05)
    assert r.integral(0.0, 1.0) == pytest.approx(0.05)
    assert r.integral(1.0, 0.25) == pytest.approx(-0.75 * 0.05)


def test_table_rate_curve():
    r = RateCurve([0.0, 0.5], [0.02, 0.04])
    assert r.rate(0.25) == 0.02
    assert r.rate(0.5) == 0.04
    assert r.integral(0.0, 1.0) == pytest.approx(0.02 * 0.5 + 0.04 * 0.5)
    assert r.integral(0.25, 0.75) == pytest.approx(0.02 * 0.25 + 0.04 * 0.25)
    with pytest.raises(ValueError):
        RateCurve([0.5, 1.0], [0.02, 0.04])  # must start at 0


def _base_doc():
    return {
        "T": 1.0,
        "sigma": 1.0,
        "mu": 0.5,
        "rate": {"kind": "flat", "r": 0.05},
        "payoff": {"support": [0.0, 1.0], "probs": [0.5, 0.5]},
        "levy": {"kind": "gamma"},
    }


def test_model_discount():
    m = model_from_dict(_base_doc())
    assert m.discount(0.0) == pytest.approx(np.exp(-0.05))
    assert m.discount(1.0) == 1.0
    flat0 = model_from_dict({**_base_doc(), "rate": {"kind": "flat", "r": 0.0}})
    assert flat0.discount(0.3) == 1.0


def test_model_validation():
    with pytest.raises(ValueError):
        MarketModel(0.0, 1.0, 1.0, RateCurve.flat(0.0),
                    PayoffDistribution.binary(0, 1, 0.5), LevyLaw.standard_gamma())
    with pytest.raises(ValueError):
        MarketModel(1.0, 0.0, 1.0, RateCurve.flat(0.0),
                    PayoffDistribution.binary(0, 1, 0.5), LevyLaw.standard_gamma())
    with pytest.raises(ValueError):
        MarketModel(1.0, 1.0, 1.0, RateCurve.flat(0.0),
                    PayoffDistribution.binary(0, 1, 0.5), LevyLaw.standard_gamma(),
                    default_law=DefaultTimeLaw.atoms([1.5], [1.0], horizon=1.5))


def test_model_json_round_trip(tmp_path):
    doc = _base_doc()
    doc["levy"] = {"kind": "poisson", "lambda": 2.0}
    doc["default_law"] = {"kind": "atoms", "times": [0.7, 0.8], "weights": [0.5, 0.5]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    m = model_from_json(str(path))
    assert m.levy.kind == "poisson" and m.levy.rate == 2.0
    assert m.levy_drift_scale == 0.5
    assert m.default_law.is_discrete
    back = model_to_dict(m)
    assert back["levy"] == {"kind": "poisson", "lambda": 2.0}
    assert back["default_law"]["times"] == [0.7, 0.8]


def test_model_json_named_default_laws():
    doc = _base_doc()
    doc["default_law"] = {"kind": "exponential", "rate": 0.1}
    m = model_from_dict(doc)
    assert not m.default_law.is_discrete
    doc["default_law"] = {"kind": "uniform", "lo": 0.2, "hi": 0.9}
    m = model_from_dict(doc)
    assert m.default_law.cdf(0.55) == pytest.approx(0.5)


@pytest.mark.parametrize("field", [("T",), ("sigma",), ("mu",), ("rate", "r"), ("levy", "lambda"),
                                   ("payoff", "support", 0), ("payoff", "probs", 1),
                                   ("default_law", "times", 0), ("default_law", "weights", 1)],
                         ids=lambda f: ".".join(map(str, f)))
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_model_from_dict_rejects_non_finite_fields(field, bad):
    doc = _base_doc()
    doc["levy"] = {"kind": "poisson", "lambda": 2.0}
    doc["default_law"] = {"kind": "atoms", "times": [0.3, 0.75], "weights": [0.3, 0.7]}
    model_from_dict(doc)
    parent = doc
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = bad
    with pytest.raises(ValueError):
        model_from_dict(doc)


def test_model_json_missing_field():
    doc = _base_doc()
    del doc["levy"]
    with pytest.raises(ValueError):
        model_from_dict(doc)
