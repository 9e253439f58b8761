"""Risk-sensitive safe sets for finite-horizon stochastic control.

Computes the minimum CVaR of a trajectory's maximum cost by augmented-state
value iteration over a family of dual parameters, extracts sub-level safe
sets, and synthesizes the corresponding pre-commitment policies. Ships the
two-tank stormwater benchmark and exact small-instance oracles.
"""

from .cvar import Pmf, cvar_dual, cvar_tail, expected_excess, var
from .dp import (TransitionTables, backend, precompute_transitions,
                 value_iteration)
from .grids import AugmentedGrid
from .models import (PumpParams, StormwaterParams, SystemModel,
                     default_disturbance, design_params, g_k,
                     make_stormwater_model, q_cso, q_pump, q_storm, q_valve,
                     smoke_disturbance, transition)
from .oracle import (OracleError, OracleSizeError, TinyInstance,
                     exact_optimal_cvar, exchange_identity_value,
                     generate_corpus, load_corpus, random_instance,
                     save_corpus)
from .rollout import (PrecommitmentPolicy, RolloutBatch, estimate_risk,
                      rollout, synthesize_policy)
from .solver import DualSweep, RiskSurface, extract_safe_set, risk_value, sweep

__version__ = "0.1.0"
