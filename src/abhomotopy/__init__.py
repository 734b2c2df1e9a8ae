"""Exact symbolic envelopes of graded algebras with a product and a bracket.

The package builds, for a graded algebra carrying a degree-a commutative
product and a degree-b Lie bracket tied by a Leibniz identity, the
associated homotopy structure: the shuffle-quotient tensor coalgebra
with its codifferential, the bracket extension, and the symmetric
coalgebra with the codifferential Q and the degree-(b-a) cobracket.
Every identity that structure promises is checkable exactly (rational
arithmetic) on finitely truncated instances via :mod:`abhomotopy.suites`
or the ``abhomotopy`` command line.
"""

from .ab_core import (
    AbAlgebra,
    Coderivation,
    TruncationOverflow,
    algebra_from_dict,
    check_ab_axioms,
    coderivation_D,
    ell2,
    ell2_oracle,
    load_algebra,
)
from .freemodule import Element, ReducedBasis
from .instances import (
    BUILTINS,
    GRADINGS,
    SUPER,
    Instance,
    PoissonTensor,
    builtin_instance,
    canonical_tensor,
    check_poisson_tensor,
    parse_poly,
    poisson_bracket,
    variables,
)
from .signs import enumerate_shuffles, koszul_sign, koszul_sign_by_swaps
from .suites import (
    Report,
    SuiteConfig,
    run_check_algebra,
    run_mutation,
    run_verify_envelope,
)
from .sym_coalgebra import (
    cobracket_doubleprime,
    coproduct_delta,
    extend,
    kappa,
    poisson_cobracket,
    q_codifferential,
)
from .tensor_coalgebra import (
    QUOTIENT,
    Generator,
    ShuffleQuotient,
    cobracket,
    shuffle,
)

__version__ = "0.1.0"
