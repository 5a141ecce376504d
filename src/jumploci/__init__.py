"""Exact computation of cohomology jump loci of finitely presented
groups on their character torus, with torsion-translate certification,
abelian cover certificates, weight machinery for the maximal abelian
cover, and a Higgs-pair model on complex tori.
"""

__version__ = "0.1.0"

from .presentation import FinitePresentation, abelianize, fox_matrix, reidemeister_schreier
from .characters import Character, enumerate_torsion_characters, rplus_act
from .subtorus import TranslatedSubtorus, orbit_closure
from .cyclotomic import Cyc, is_root_of_unity, rank_exact
from .laurent import LaurentPoly, rank_generic
from .twisted import twisted_cohomology_dims, sigma_membership, scan_sigma
from .discovery import (discover_components, certify_component,
                        count_genus_components, abelian_cover_certificate)
from .alexander import (ModuleAction, is_weight, koszul_cohomology,
                        vanishing_check, fitting_generators,
                        weights_and_inverses, finite_locus_cover_check)
from .higgs import (ComplexTorusModel, LatticeCharacter, HiggsLineBundle,
                    character_to_higgs, higgs_to_character,
                    higgs_cohomology_dim, splitting_check, partition_check)

__all__ = [
    "FinitePresentation", "abelianize", "fox_matrix", "reidemeister_schreier",
    "Character", "enumerate_torsion_characters", "rplus_act",
    "TranslatedSubtorus", "orbit_closure",
    "Cyc", "is_root_of_unity", "rank_exact",
    "LaurentPoly", "rank_generic",
    "twisted_cohomology_dims", "sigma_membership", "scan_sigma",
    "discover_components", "certify_component", "count_genus_components",
    "abelian_cover_certificate",
    "ModuleAction", "is_weight", "koszul_cohomology", "vanishing_check",
    "fitting_generators", "weights_and_inverses", "finite_locus_cover_check",
    "ComplexTorusModel", "LatticeCharacter", "HiggsLineBundle",
    "character_to_higgs", "higgs_to_character", "higgs_cohomology_dim",
    "splitting_check", "partition_check",
]
