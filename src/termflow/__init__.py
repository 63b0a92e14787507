"""Term systems over finite alphabets: normalization, dependency graphs,
flow-network dispersion exponents, and exhaustive search oracles."""

from .depgraph import (DependencyGraph, GuessingStrategy, add_source_loops,
                       dependency_graph, graph_system, to_dot)
from .dsl import parse, render
from .errors import (BudgetError, EvalError, ParseError, PreconditionError,
                     TermflowError, ValidationError)
from .flownet import (ExponentResult, FlowNetwork, ThresholdDecision,
                      build_dag, build_network, cut_certificate,
                      decide_perfect_r1, decide_threshold,
                      dispersion_exponent, max_flow, network_dot)
from .normalize import (Classification, NormalEquation, NormalSystem,
                        PipelineReport, classify, collision_quotient,
                        diversify, embed_dispersion, flatten, pad_dispersion,
                        pipeline, quotient_vars)
from .oracle import (DEFAULT_BUDGET, BlockEncoding, CountPreservation,
                     EmbeddingCheck, GuessingEquality, OracleResult,
                     PerfectDecision, SandwichReport, SearchBudget,
                     brute_dispersion, brute_guessing, brute_max_solutions,
                     check_counts_preserved, check_embedding,
                     check_perfect_fixed, check_solutions_equal_winning,
                     count_solutions, count_winning, enumerate_interpretations,
                     image_of, interpretation_at, interpretation_count,
                     lift_interpretation, sandwich_check)
from .terms import (App, DispersionSpec, Equation, Interpretation, Signature,
                    Term, TermDag, TermSystem, Var, assignments, eval_term,
                    instance_size, render_term, satisfies, table_index,
                    term_size, term_vars)

__version__ = "0.1.0"
