"""Phase-space toolkit for continuous-variable quantum optics.

Computes Wigner functions and their negativity monotones, constructs the
phase-space hidden-variable model whenever the Wigner function is
nonnegative, and cross-validates its predictions against a truncated-Fock
quantum oracle.
"""

from .hvm import (HiddenVariableModel, NegativityError, build_hvm,
                  empirical_characteristic_check, hvm_event_probabilities,
                  hvm_event_probability, hvm_homodyne_distribution, sample)
from .oracle import (BinSpec, OutcomeDistribution, event_probability,
                     quantum_homodyne_distribution, tv_distance)
from .phase_space import (Context, is_context, is_symplectic, omega,
                          planewise_decomposition_commutes, random_symplectic,
                          symplectic_form)
from .states import (FockDensityOperator, GaussianChannel, GaussianState,
                     StateSpec, apply_gaussian_channel, compose_channels,
                     gaussian_to_fock, loss_channel, make_state)
from .weyl import PolynomialObservable, check_wigner_multiplicativity
from .wigner import (GridSpec, InadequateWindowError, MixedStateError,
                     WignerGrid, hudson_classify, log_negativity, min_value,
                     negativity_volume, state_wigner, wigner_fock_direct,
                     wigner_gaussian)

__version__ = "0.1.0"
