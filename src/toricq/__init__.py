"""Toric spaces from arbitrary convex polytopes over quasilattices.

The package computes, at desk scale and with exact number-field arithmetic,
the stratification data of the quotient space attached to an H-polytope
with chosen facet normals and a quasilattice, together with the numerical
orbit machinery (closed-orbit classification, moment-map retraction, orbit
equivalence) needed to check the structure results on concrete instances.
"""

from .errors import (DomainError, FieldDefinitionError, InternalConsistencyError,
                     PreconditionError, SolverError, ToricQError, ValidationError)
from .field import FieldScalar, NumberField
from .groups import (DiscreteGroupPresentation, Quasilattice, SequenceData,
                     chart_index_sets, gamma_check, gamma_group, kernel_data,
                     n_membership)
from .moment import (MomentData, RetractionResult, SolverConfig,
                     derived_moment_data, moment_data, polytope_point_of, psi,
                     retract, upsilon)
from .orbits import (MAXIMAL_PIECE, EquivalenceResult, ExactVector, OrbitClass,
                     OrbitEqualVerdict, PFunction, classify_orbit, equivalent,
                     n_orbit_equal, p_function, stratum_of)
from .polytope import Face, FaceLattice, Polytope
from .sampling import Sampler, nonclosed_flow_direction
from .serialize import ProblemInstance, instance_from_json, instance_to_json, load_instance
from .strata import (LinkData, LocalModel, StratificationReport, build_link,
                     build_stratification, local_model)
from .verify import PropertyResult, VerificationRun, run_verification

__version__ = "0.1.0"
