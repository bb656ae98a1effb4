"""Two-stage optimizer for wireless seismic acquisition networks:
geophone-to-gateway sum-rate maximization under successive interference
cancellation, and gateway-to-data-center power/rate allocation.
"""

from .delivery import (
    PowerAllocation,
    TimeShareSchedule,
    WeightedRateSolution,
    corner_rates,
    max_weighted_sum,
    min_max_power,
    min_total_power_closed_form,
    time_share_decompose,
    weights_from_queues,
)
from .errors import (
    CapacityLimitError,
    DecompositionError,
    InfeasibleProblemError,
    InstanceFormatError,
    SeisrateError,
)
from .model import (
    ChannelMatrix,
    GatewayState,
    fixture_path,
    generate_gateways,
    generate_rayleigh,
    load_instance,
    save_instance,
)
from .rates import (
    DecodingAssignment,
    EvaluationMode,
    RateVector,
    evaluate_fixed_order,
    evaluate_lp,
    search_space_size,
)
from .search import (
    AcoParams,
    SearchBudget,
    SearchTrace,
    ant_system,
    ampso,
    build_heuristic,
    dpso,
    exhaustive_search,
    max_min_ant_system,
    no_optimization_baseline,
    run_algorithm,
    simulated_annealing,
)

__version__ = "0.1.0"
