"""routelab: a congestion-game laboratory for route-choice learning.

A deterministic (or seeded-stochastic) merge simulator, a sequential
one-decision-per-day multi-agent environment, human day-to-day learning,
counterfactual marginal-cost reward shaping for AV learners, and exhaustive
equilibrium analysis, tied together by an experiment CLI.
"""

from .episode import EpisodeLog, run_episode
from .equilibrium import EquilibriumAnalyzer, EquilibriumReport, beta_max
from .humans import HumanState, freeze_all, run_warmup
from .learners import (
    FixedLearner,
    PolicyGradientLearner,
    QLearner,
    UcbLearner,
    make_learner,
    train,
)
from .network import (
    AgentSpec,
    ConfigurationError,
    NetworkConfig,
    RouteSpec,
    Scenario,
    TravelTimeVector,
    simulate,
    simulate_without,
)
from .rewards import (
    MarginalCostMatrix,
    RewardConfig,
    RewardEngine,
    SimulationCache,
    intrinsic_reward,
    shaped_reward,
)
from .scenarios import (
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    two_route_yield_network,
    two_route_yield_scenario,
)

__version__ = "0.1.0"
