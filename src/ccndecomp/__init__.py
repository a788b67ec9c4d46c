"""Decomposition toolkit for admissible functions on weighted cell networks."""

from .basis import (
    BasisFamily,
    BoundDisagreement,
    MissingSupportBound,
    MultiplicityPoint,
    basis_family_check,
    basis_from_coupling,
    basis_from_coupling_multi,
    basis_from_oracle_direct,
    coupling_from_basis,
    coupling_from_basis_multi,
    oracle_from_basis,
    truncation_sequence,
)
from .coupling import (
    CouplingFamily,
    SizeCapExceeded,
    coupling_eval_explicit,
    coupling_family_check,
    locally_maximal_orders,
    recompose,
)
from .monoid import (
    MonoidRegistry,
    WeightMonoid,
    make_additive_positive,
    make_additive_real,
    make_bool_or,
    monoid_by_name,
)
from .multiindex import (
    DimensionMismatch,
    MultiIndex,
    apply_multiplicity,
    iter_multiindices,
    norm,
)
from .network import (
    DivergenceError,
    Network,
    evaluate_vector_field,
    integrate_rk4,
    parse_network,
)
from .oracle import (
    BlackBoxOracle,
    NeighborInput,
    OracleComponent,
    OracleSpec,
    PolynomialOracle,
    admissibility_check,
    build_exponential,
    build_nested,
    build_polynomial_multi,
    build_polynomial_single,
    build_symmetric_power,
    oracle_spec_from_json,
    oracle_specs_from_json,
    type_multiindex,
    within_tolerance,
)
from .spec import SpecFormatError
from .stirling import (
    binomial,
    coefficient_c,
    coefficient_c_sum,
    multinomial,
    r_stirling1,
    stirling1,
    stirling1_sum,
    stirling2,
    stirling2_sum,
)

__version__ = "0.1.0"
