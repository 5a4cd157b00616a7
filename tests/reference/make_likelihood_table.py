"""Write the mpmath reference table of the observation likelihood log q(t, h, x).

    PYTHONPATH=src python tests/reference/make_likelihood_table.py

Model: T = 1, sigma = 1, payoff atoms h in {0, 1}; gamma noise and Poisson
noise with rate 1.  For t in {0.05, 0.25, 0.5, 0.75, 0.95}, x runs over 13
points spanning the law's ``x_bracket(model, t)``.  Arithmetic is at 40
digits.

Gamma: the likelihood is a Gaussian-power integral, so

    q = exp(-s^2 / 2v) / sqrt(2 pi v) (2 beta)^(-a/2) exp(alpha^2 / 8 beta) D_{-a}(alpha / sqrt(2 beta))

with a = T - t, v = t (T - t) / T, k = t / T, s = x - sigma t h,
beta = k^2 / 2v and alpha = 1 - s k / v; D is ``mpmath.pcfd``.

Poisson: the lattice sum over n of pmf(n) times the Gaussian density at
s - k n, summed term by term past the peak of the log-concave summand
until a term falls 120 e-folds below the largest.  ``mpmath.nsum`` is not
used: its extrapolation stops before the peak when the peak lies far past
the pmf bulk (t = 0.01, x = 3 gives a wrong value).
"""

import csv
import os

import mpmath as mp

from levybridge.laws import LevyLaw, PayoffDistribution
from levybridge.model import MarketModel, RateCurve
from levybridge.pricing import x_bracket

T, SIGMA, RATE = 1, 1, 1
TIMES = ("0.05", "0.25", "0.5", "0.75", "0.95")
POINTS = 13
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "likelihood_table.csv")


def log_q_gamma(t, h, x):
    a, v, k = T - t, t * (T - t) / T, t / T
    s = x - SIGMA * t * h
    beta = k * k / (2 * v)
    alpha = 1 - s * k / v
    return (-s * s / (2 * v) - mp.log(mp.sqrt(2 * mp.pi * v)) - a / 2 * mp.log(2 * beta)
            + alpha ** 2 / (8 * beta) + mp.log(mp.pcfd(-a, alpha / mp.sqrt(2 * beta))))


def log_q_poisson(t, h, x):
    v, k, m = t * (T - t) / T, t / T, RATE * (T - t)
    s = x - SIGMA * t * h
    logs = []
    n = 0
    while True:
        logs.append(n * mp.log(m) - m - mp.loggamma(n + 1) - (s - k * n) ** 2 / (2 * v)
                    - mp.log(mp.sqrt(2 * mp.pi * v)))
        peak = max(logs)
        if n > m and logs[-1] < logs[-2] and logs[-1] < peak - 120:
            return peak + mp.log(mp.fsum(mp.exp(lg - peak) for lg in logs))
        n += 1


def main():
    mp.mp.dps = 40
    payoff = PayoffDistribution.binary(0.0, 1.0, 0.5)
    laws = {"gamma": (LevyLaw.standard_gamma(), log_q_gamma),
            "poisson": (LevyLaw.poisson(float(RATE)), log_q_poisson)}
    with open(OUT, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["law", "t", "h", "x", "log_q"])
        for name, (law, log_q) in laws.items():
            model = MarketModel(float(T), float(SIGMA), 1.0, RateCurve.flat(0.0), payoff, law)
            for t in TIMES:
                lo, hi = x_bracket(model, float(t))
                for i in range(POINTS):
                    x = lo + (hi - lo) * i / (POINTS - 1)
                    for h in (0, 1):
                        # at the binary values of t and x that the test passes in
                        value = log_q(mp.mpf(float(t)), h, mp.mpf(x))
                        out.writerow([name, t, h, repr(x), mp.nstr(value, 20)])


if __name__ == "__main__":
    main()
