"""Classically verifiable computation of solvable black-box group order.

A library and experiment harness for two interactive verifier-prover
protocols that compute the order of a finite solvable group exposed only
through product/inverse oracles over opaque element codes.  A stronger
party's subroutines (order finding, decomposition, membership) are
simulated by exact brute-force stand-ins at desk scale, so completeness
and soundness can be measured empirically.
"""

from .groups import (
    ClosureOverflowError,
    ConcreteGroupSpec,
    CyclicSpec,
    DEFAULT_CLOSURE_CAP,
    DirectProductSpec,
    ElementCode,
    GroupOracle,
    GroupSpecError,
    InvalidCodeError,
    PermutationSpec,
    QueryCounts,
    QueryMeter,
    enumerate_closure,
    eval_word,
    extend_closure,
    format_group_spec,
    make_group,
    parse_group_spec,
)
from .harness import ExperimentConfig, Report, UsageError, run_experiment, wilson_interval
from .polycyclic import (
    ChainError,
    NotSolvableError,
    PolycyclicSequence,
    RefinementError,
    SubgroupChain,
    compact_tower,
    compute_pcgs,
    get_chain,
    group_order,
    prime_factors,
    refine_with_primes,
    refinement_exponents,
)
from .protocol import (
    Challenge,
    Outcome,
    Transcript,
    WireError,
    challenge_code_distribution,
    run_protocol_2msg,
    run_protocol_3msg,
    run_repeated,
    unanimous_outcome,
    verifier_check_commitment,
    verifier_finalize,
    verifier_setup_2msg,
)
from .prover import (
    Commitment,
    HonestProver,
    PROVERS,
    ProverError,
    Response,
    build_commitment,
    honest_commitment,
    inflatable_rounds,
    list_adversaries,
    make_prover,
)
from .sampling import (
    ExactSampler,
    SamplerEscapeError,
    SubproductSampler,
    derive_seed,
    tv_distance_empirical,
)

__version__ = "0.1.0"
