"""Brownian bridges with stochastic pinning and information-based credit pricing."""

from .grids import TimeGrid
from .laws import DefaultTimeLaw, LevyLaw, PayoffDistribution
from .model import MarketModel, RateCurve, model_from_dict, model_from_json
from .numerics import (Quadrature, QuadratureError, gamma_density,
                       gauss_density, integrate_levy, parabolic_cylinder_D,
                       poisson_pmf, power_gauss_integral)
from .pricing import (PriceQuote, binary_bond_price, bond_price,
                      gamma_closed_form_price, likelihood_q, option_value,
                      poisson_closed_form_price, posterior_payoff,
                      transition_density_psi)
from .default_pricing import (DefaultQuote, binary_bond_price_default,
                              bond_price_default, default_indicator,
                              likelihood_q_kappa, option_value_default,
                              posterior_tau_payoff)
from .gaussian import (CovKernel, TimeChange, cov_bar, cov_hat, cov_tilde,
                       drift_tilde, kernel_a, markov_triple_residual,
                       not_a_bridge_residual, predict_bar_batch,
                       quasimartingale_variation)
from .mc import McReport, empirical_cov, conditional_histogram, posterior_binning, tower_check

__version__ = "0.1.0"
