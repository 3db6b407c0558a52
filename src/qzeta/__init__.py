"""Exact q-analog identities for nested harmonic sums.

The package builds, evaluates and verifies expansion identities for
weak-descent (star) multiple harmonic sums and their infinite-sum and
q -> 1 limits: signed index algebra, exact rational q-arithmetic, finite
and certified-infinite evaluators, an identity compiler with closed-form
families, and a verification harness behind the ``qzeta`` command line.
"""

from types import ModuleType as _ModuleType

from .evaluators import (
    ClassicalValue,
    SeriesValue,
    classical_zeta,
    mhs,
    mhs_many,
    mollified_mhs,
    mollified_mhs_many,
    pattern_mhs_many,
)
from .expansion import Triple, expand, is_admissible, iter_expansion
from .indices import (
    THETA,
    SignedIndex,
    Theta,
    bar,
    boxplus,
    boxplus_fold,
    delta,
    idx,
    oplus,
    oplus_fold,
    parse_shift,
    proj,
    quad_exponent,
    shift_latex,
    shift_str,
    signed_string,
)
from .qarith import QContext, as_q
from .rules import (
    CLOSED_FAMILIES,
    Block,
    ClassicalTerm,
    Compiled,
    Composition,
    Twos,
    TwosC,
    TwosOnes,
    attach,
    base_state,
    classical_expand,
    closed_2c2,
    closed_2c21,
    closed_2c212,
    closed_212c21,
    closed_212c212,
    closed_c_ones,
    closed_pattern,
    closed_twos,
    closed_twos_ones,
    compose,
    family_instances,
    parse_composition,
    tokenize,
    zeta_admissible,
)
from .verify import (
    DEFAULT_SEED,
    LEMMA_PARTS,
    VerificationReport,
    all_passed,
    classical_battery,
    family_equivalence,
    head_reduction_pattern,
    inverse_power_pattern,
    lemma_suite,
    qmzsv_battery,
    rational_repr,
    run_family,
    sample_compositions,
    symmetric_pair_check,
    verify_classical,
    verify_mhs,
    verify_qmzsv,
)

__version__ = "0.1.0"

# every public name that the imports above bind, not the submodules they load
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
