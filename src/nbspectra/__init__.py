"""Non-backtracking spectra of random regular graphs, regular hypergraphs,
and the regular stochastic block model.

The package samples regular structures, assembles their non-backtracking
operators, computes full spectra and eigenvectors by algebraic lifting from
the symmetric adjacency matrix, and verifies determinant identities,
delocalization bounds, limiting spectral laws, and community recovery.
"""

from .errors import (
    AmbiguityError,
    ConvergenceError,
    DegenerateError,
    DetectabilityError,
    DivisibilityError,
    DomainError,
    InfeasibleError,
    IntegrationError,
    InvariantError,
    MultiplicityError,
    NearSingularError,
    ParityError,
    ParseError,
    RetryExhausted,
    SingularError,
    StructureError,
    TrivialEigenvalueError,
    UsageError,
    ZeroVectorError,
)
from .graphs import (
    RegularGraph,
    RegularHypergraph,
    RsbmGraph,
    sample_regular_graph,
    sample_regular_hypergraph,
    sample_rsbm,
)
from .io import read_graph, read_spectrum, write_graph, write_histogram, write_report, write_spectrum
from .measures import (
    EmpiricalMeasure,
    HyperAlpha,
    HyperFixed,
    KestenMcKay,
    Semicircle,
    consistency_check_k2,
    ks_distance,
    project_real_parts,
)
from .operators import (
    adjacency_csr,
    adjacency_matrix,
    nonbacktracking_matrix,
    oriented_index,
    reduced_nb_matrix,
)
from .rsbm import (
    InsiderPair,
    RecoveryResult,
    deterministic_sigma_eigenpair,
    insider_gap_report,
    recover_communities,
    rsbm_mu2,
)
from .seeds import Seed, stable_hash
from .spectral import (
    LiftedSpectrum,
    LiftModel,
    deterministic_deloc_bound,
    full_lifted_spectrum,
    lift_eigenvector_nb,
    spectrum_audit,
    symmetric_eigs,
)
from .verify import (
    IharaBassSystem,
    LogDet,
    ihara_bass_check,
    ihara_bass_check_hyper,
    ihara_bass_checks,
    ihara_bass_report,
    ihara_bass_system,
    logdet,
)

__version__ = "0.1.0"
