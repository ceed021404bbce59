"""Multi-field Bayesian inverse analysis toolkit.

Couples multi-field forward models, evaluated in vectorized passes over
posterior grids (the coupled systems and monolithic Newton solver of
``mfbia.coupled`` are the reference that the tests check them against),
deterministic quasi-random observation synthesis, grid-based posterior
evaluation, and information-gain post-processing, including the relative
increase in information gain from adding a second observed field.
"""

__version__ = "0.1.0"
