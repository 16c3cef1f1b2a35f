"""Factor sieve, root construction, and coprime census for 4*n*n + 1."""

from ._kernels import MAX_INDEX, warmup
from .census import (
    CensusReport,
    SecondProofWitness,
    census,
    exact_coprime_count,
    inclusion_exclusion_count,
    product_formula,
    second_proof_witness,
    verify_main_identity,
)
from .errors import BadFactorizationError, NoRootsError, QuadsieveError, RangeError
from .modarith import (
    U64_MAX,
    crt_combine,
    hensel_lift,
    is_prime,
    sqrt_minus_one,
)
from .oracle import (
    generator_root,
    naive_coprime_count,
    naive_factor,
    naive_root_scan,
    primitive_root,
)
from .roots import RootSet, RootSummary, all_roots, root_summary
from .sieve import (
    BasisPrime,
    DEFAULT_SEGMENT_SIZE,
    PrimeBasis,
    SieveSegment,
    Term,
    basis_from_primes,
    enumerate_primes,
    first_k_basis,
    primes_1mod4,
    sieve_range,
    term_value,
    terms_digest,
)
from .suites import SUITES, SuiteResult, lemma2_witness, run_suite

__version__ = "0.1.0"
