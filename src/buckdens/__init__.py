"""Exact modular-density calculus and sumset structure analysis over N."""

from .density import (
    DensityEstimate,
    ModulusChain,
    buck_lower,
    buck_upper,
    density_chain_report,
    modulus_chain,
    window_densities,
)
from .generators import (
    SetDescription,
    basis_chain,
    from_periodic,
    gen_b_alpha,
    gen_d_k,
    gen_hook,
    gen_p_t,
    gen_three_density,
    gen_weyl,
    gen_x0,
    parse_description,
    phi_t,
    sumset_description,
    thin_basis,
    union_description,
)
from .kneser import (
    KneserReport,
    analyze_sumset,
    buck_inequality_report,
    ruzsa_inequality_check,
    verify_sparse_periodicity,
)
from .periodic import (
    EventuallyPeriodicSet,
    ModularProfile,
    from_finite,
    from_progressions,
    from_residues,
)
from .zmod import (
    ResidueSet,
    StructureClass,
    Subgroup,
    detect_arithmetic_progression,
    detect_quasi_periodic,
    is_periodic,
    stabilizer,
    sumset,
)

__version__ = "0.1.0"
