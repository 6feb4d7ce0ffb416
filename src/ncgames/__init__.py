"""Node coverage games.

Model two-player coverage games on finite graphs, compute the coverage
gain the tester can guarantee against an adversarial SUT, check and
extract certificates bounding the SUT's power, reduce SAT to coverage
games, and simulate budgeted repetitive test-plan execution against a
randomly responding nondeterministic SUT.
"""
from .errors import (
    CapacityError,
    ExtractionError,
    NcgameError,
    ParseError,
    StrategyError,
    ValidationError,
)
from .experiments import (
    ALL_STRATEGIES,
    CellStats,
    ExperimentConfig,
    ExperimentResult,
    emit_csv,
    run_experiment,
)
from .graph import (
    SUT,
    TESTER,
    GameGraph,
    NodeInfo,
    coverage_gain,
    generate_random,
    is_trap,
    parse_game_graph,
    reachable,
    serialize_game_graph,
    validate,
)
from .play import (
    PositionalStrategy,
    StateMachineStrategy,
    best_response_gain,
    check_log_consistency,
    enumerate_positional,
    positional_bound,
    simulate_play,
)
from .reductions import Cnf, brute_force_sat, parse_dimacs, restart_double, sat_to_ncgame
from .solver import SolveResult, extract_optimal_sut, oracle_mcg, solve_mcg, solve_mcg_restart
from .testplan import (
    RunResult,
    SutResponder,
    TestCase,
    TestSuite,
    alpha,
    execute_case,
    generate_static_suite,
    nt_plan,
    parse_suite,
    pgain,
    random_walk,
    serialize_suite,
    static_once,
)
from .witness import (
    Witness,
    WitnessEntry,
    check_witness,
    extract_witness,
    normalize_gains,
    parse_witness,
    serialize_witness,
    witness_guided_sut,
)

__version__ = "0.1.0"
