"""gkzmono: exact reducibility classification for GKZ hypergeometric systems.

Everything is computed in exact arithmetic from the combinatorics of the
pair (A, beta): the face lattice of the nonnegative column span, the
resonance centers of the parameter, pyramid tests on those centers, and the
normalized volume that equals the generic holonomic rank.  The package also
materializes the hypergeometric system itself (Euler operators plus the
saturated toric ideal) and exports it for Macaulay2 or Singular.
"""

from .classify import IRREDUCIBLE, REDUCIBLE, Classification, classify
from .cones import (
    Configuration,
    Face,
    Parameter,
    as_parameter,
    enumerate_faces,
    is_face,
    reduce_configuration,
)
from .errors import (
    BetaOutsideSpan,
    DimensionMismatch,
    EmptyFace,
    GkzError,
    InputError,
    InternalInconsistency,
    LatticeNotSaturated,
    RankDeficient,
    ScaleLimit,
    UnsupportedFormat,
)
from .exporters import export, parse_toric_system
from .intlinalg import (
    GaussRat,
    IntMatrix,
    SmithDecomposition,
    hermite_normal_form,
    kernel_lattice_basis,
    parse_rational,
    smith_normal_form,
)
from .pyramids import is_pyramid
from .resonance import (
    ArrangementComponent,
    ResonanceReport,
    describe_resonant_arrangement,
    face_functionals,
    resonance_centers,
)
from .toric import (
    Binomial,
    EulerOperator,
    ToricSystem,
    euler_operators,
    hypergeometric_system,
    in_ideal,
    lattice_binomials,
    toric_ideal_generators,
)
from .volume import VolumeResult, face_volume, generic_rank, normalized_volume

__version__ = "0.1.0"
