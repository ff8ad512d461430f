"""Hidden-variable models of product states, one one-mode model per mode.

A model's grid is one mode, so every multi-mode model is a ProductModel
of one-mode factors.  Every multi-mode state make_state builds is a
product of one-mode Gaussian states, so its Wigner function and its
model's measure are products of one-mode ones.  state_model builds one
model per mode and never the joint 2m-axis grid; the queries in hvm are
written over a model's factors, of which a one-mode model has one,
itself.  Only hvm-compare imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from .hvm import build_hvm
from .states import GaussianState
from .wigner import GridSpec, require_normalization, state_wigner


def mode_factors(state) -> list:
    """The one-mode states whose product is state, in mode order.

    A one-mode state is its own only factor.  A Gaussian state of several
    modes is their product exactly when its covariance couples no two
    modes; mode k's factor keeps axes q_k and p_k of the mean and the
    covariance.  Any other state of several modes is refused (ValueError).
    """
    m = state.mode_count
    if m == 1:
        return [state]
    mode = np.arange(2 * m) % m  # the mode of each axis
    if not isinstance(state, GaussianState) or np.any(
            state.covariance[mode[:, None] != mode]):
        raise ValueError(f"this {m}-mode state is not a product of one-mode "
                         "states: a Gaussian whose covariance couples no "
                         "two modes")
    return [GaussianState(state.mean[[k, m + k]],
                          state.covariance[np.ix_([k, m + k], [k, m + k])])
            for k in range(m)]


class ProductModel:
    """The product of one-mode models, factor k on mode k, all on one
    grid window and step.

    A factor's hidden state is its mode's part (q_k, p_k) of phi, drawn
    independently of the other factors', so no grid spans two modes.
    """

    def __init__(self, factors):
        specs = {(f.measure.spec.halfwidth, f.measure.spec.points)
                 for f in factors}
        if len(specs) != 1:  # the events' band limit needs one step
            raise ValueError("the factors need one grid window and step")
        self.factors = tuple(factors)
        self.mode_count = len(self.factors)
        self.renormalization = math.prod(f.renormalization for f in factors)


def state_model(state, spec: GridSpec):
    """The hidden-variable model of a state on grids of spec.

    A product state (mode_factors) gets the product of its modes' models,
    each built by build_hvm from its own grid, so no grid spans two modes;
    a one-mode state gets one model, its own.  The factor grids are held to
    GRID_BYTES_LIMIT together, and the normalization gate reads the
    product of their normalizations, which is the joint grid's to rounding
    (a gate on each mode alone would pass more).
    """
    modes = mode_factors(state)
    spec.require_factors(len(modes))
    grids = [state_wigner(mode, spec, gate=False) for mode in modes]
    require_normalization(math.prod(g.normalization for g in grids))
    models = [build_hvm(g) for g in grids]
    return models[0] if len(models) == 1 else ProductModel(models)
