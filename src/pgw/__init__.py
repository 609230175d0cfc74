"""Non-inner automorphisms of finite p-groups.

Works with groups given by consistent power-commutator presentations:
checks the hypotheses (odd p, monolithic, every maximal subgroup
non-abelian, [Z(M), g] <= Z(G)), constructs the promised non-inner
automorphism of order p fixing the Frattini subgroup elementwise, and can
cross-check everything against a brute-force enumeration of Aut(G).  It
needs nothing outside the Python standard library.
"""

from .corpus import CORPUS_NAMES, DEMO_NAME, demo, load
from .errors import (
    BadDefinition,
    BadWeight,
    CentralizerNotMaximal,
    CertificationFailed,
    ConsistencyViolation,
    InnerWitnessFound,
    InputError,
    Mismatch,
    NoEligibleU,
    NotAbelian,
    NotNormal,
    NotSurjective,
    OracleTimeout,
    PgwError,
    PreconditionFailed,
    PresentationSyntaxError,
    RelationViolated,
    SizeCap,
    WorkerDied,
)
from .presentation import PcPresentation, collect, comm, conj, element_order
from .presentation import identity, inv, mul, pow_, validate, word_of
from .groupfile import GroupFile, parse_path, parse_text, serialize
from .structure import (
    Subgroup,
    agemo,
    center,
    center_of,
    centralizer,
    closure,
    commutator_subgroup,
    derived,
    exponent,
    frattini,
    is_abelian,
    lower_central_series,
    maximal_subgroups,
    nilpotency_class,
    omega1,
    quotient_facts,
    rank,
    second_center,
    upper_central_series,
    word_str,
)
from .hypotheses import (
    HypothesisReport,
    check_theorem_hypotheses,
    check_zm_condition,
    is_monolithic,
)
from .automorphisms import (
    Automorphism,
    GenMap,
    WitnessResult,
    apply,
    aut_order,
    compose,
    construct_theorem_witness,
    extend_to_automorphism,
    fixes_elementwise,
    identity_automorphism,
    inner_from,
    is_inner,
    verify,
)

__version__ = "0.1.0"

# the oracle's names load it, and with it the tables, on first use
_ORACLE_NAMES = ("AutCount", "cross_validate", "enumerate_automorphisms")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
