"""fblab: exact analysis of three-message feedback coding over a BSC.

The package computes, exactly where possible, everything about
transmitting one of three equiprobable messages over a binary symmetric
channel with noiseless feedback: posteriors and vote metrics, the
max-posterior query strategy, forward and backward exact dynamic
programs, the strategy's Markov chain with its return-path series,
closed-form bounds and exponents, and reproducible Monte Carlo.
"""

from .belief import (
    MetricState,
    QueryOutcome,
    apply_outcome,
    decode_error,
    leaders,
    normalize,
    one_step_gap,
    one_step_values,
    outcome_distribution,
    posteriors,
    query_outcome,
)
from .bounds import (
    BoundReport,
    ErrorExponents,
    bound_report,
    error_exponents,
    error_lower_bound,
    error_lower_bound_exact,
    error_upper_bound,
    error_upper_bound_exact,
    loop_density_objective,
    optimal_loop_density,
    simplex_asymptote,
    simplex_codewords,
    simplex_event_prob,
    simplex_event_report,
)
from .chain import (
    TransitionTable,
    derive_transitions,
    enumerate_two_loops,
    export_dot,
    reach_prob,
    series_basic,
    series_with_loops,
    verify_reference_transitions,
)
from .channel import ChannelParams, make_channel
from .exact_dp import (
    ValueTable,
    bellman_optimum,
    error_curve,
    forward_distribution,
    forward_error_prob,
    optimal_query_report,
)
from .montecarlo import (
    SimulationStats,
    TrajectoryRecord,
    run_trajectory_audit,
    run_trials,
    simulate_trajectory,
    step,
)
from .strategy import MAX_POSTERIOR, StrategyRule, select_query

__version__ = "0.1.0"
