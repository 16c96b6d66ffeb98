"""Exact sumset covering certificates and structure checks on finite abelian groups.

The package models a finite abelian group as an explicit product of cyclic
groups and provides, in exact rational arithmetic wherever a comparison
decides an algorithm branch: sumset algebra, greedy covering certificates,
chain certificates over tuple sets, an energy-decrement iteration, Fourier
spectra with exact annihilators, and an audited end-to-end pipeline bounding
the subgroup generated by a set of small doubling.
"""

from .chains import (
    Chain,
    ChainCheck,
    EnergyBoundCheck,
    chain_top_in_target,
    covering_chain,
    energy_bound_check,
    intersect_chains,
    product_chain,
    verify_chain,
)
from .chang import (
    ChangOutcome,
    chang_iterate,
    decrement_check,
    energy_floor_steps,
    invariant_set,
)
from .covering import (
    CoverCertificate,
    IteratedCoverCheck,
    ruzsa_cover,
    statistical_cover,
    verify_covered,
    verify_iterated_cover,
)
from .fourier import CharSet, DualFunc, PowerSpectrum, annihilator, dft, power_spectrum, spectrum
from .functions import (
    RationalFunc,
    TupleMeasure,
    convolve,
    indicator,
    mu_tuple,
    point_mass,
    uniform_measure,
)
from .groups import Character, GroupElement, GroupMismatchError, GroupSpec
from .pipeline import (
    AlmostInvariantResult,
    CheckRecord,
    LemmaHypothesisError,
    PetridisResult,
    PipelineCheckError,
    PipelineReport,
    SpectrumBoundResult,
    almost_invariant_pair,
    annihilator_containment_check,
    petridis_subset,
    petridis_verify,
    reverify_report,
    spec_annihilator_bound,
    theorem_driver,
)
from .sets import (
    GroupSet,
    doubling_constant,
    generate_instance,
    is_subgroup,
    k_fold_sum,
    subgroup_closure,
    sumset,
)

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "ChainCheck",
    "ChangOutcome",
    "CharSet",
    "Character",
    "CheckRecord",
    "CoverCertificate",
    "DualFunc",
    "EnergyBoundCheck",
    "GroupElement",
    "GroupMismatchError",
    "GroupSet",
    "GroupSpec",
    "IteratedCoverCheck",
    "LemmaHypothesisError",
    "AlmostInvariantResult",
    "PetridisResult",
    "PipelineCheckError",
    "PipelineReport",
    "PowerSpectrum",
    "RationalFunc",
    "SpectrumBoundResult",
    "TupleMeasure",
    "almost_invariant_pair",
    "annihilator",
    "annihilator_containment_check",
    "chain_top_in_target",
    "chang_iterate",
    "convolve",
    "covering_chain",
    "decrement_check",
    "dft",
    "doubling_constant",
    "energy_bound_check",
    "energy_floor_steps",
    "generate_instance",
    "indicator",
    "intersect_chains",
    "invariant_set",
    "is_subgroup",
    "k_fold_sum",
    "mu_tuple",
    "petridis_subset",
    "petridis_verify",
    "point_mass",
    "power_spectrum",
    "product_chain",
    "reverify_report",
    "ruzsa_cover",
    "spec_annihilator_bound",
    "spectrum",
    "statistical_cover",
    "subgroup_closure",
    "sumset",
    "theorem_driver",
    "uniform_measure",
    "verify_chain",
    "verify_covered",
    "verify_iterated_cover",
]
