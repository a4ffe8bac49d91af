"""orbicert: exact-arithmetic certificates for affine tensor-space groups.

The toolkit constructs the permutation group generated by translations of
a (2 x m)-dimensional tensor space over GF(p) together with a dihedral
group acting on the 2-dimensional factor and the full general linear
group on the other, classifies its suborbits, builds the orbital Cayley
digraphs, and machine-checks witness automorphisms, Hamming
identifications, clique geometry, stabilizer computations and cross-ratio
obstructions, emitting reproducible JSON certificates.
"""

from .certify import (
    Certificate,
    DirectionSet,
    certify_not_digraph_group,
    certify_q17,
    certify_two_closed,
    lambda_obstructions,
    obstruction_polynomials,
    scan_primes,
    setwise_stabilizer_gl2,
)
from .cliques import (
    DEFAULT_SEED,
    CliqueId,
    MuConfig,
    ell_clique,
    pi_projection,
    projection_coeffs,
    tensor_from_projections,
    verify_clique_axioms,
)
from .crossratio import (
    cross_ratio,
    klein_four_classifier,
    lambda_quad,
    lambda_quad_cross_ratio,
    permuted_cross_ratio,
    verify_table1,
)
from .digraphs import (
    ConnectionSet,
    VertexPermutation,
    hamming_check,
    hamming_witness,
    is_arc,
    is_connected,
    orbital_union_set,
)
from .fields import (
    INFINITY,
    FpElement,
    PrimeModulus,
    fp_inv,
    fp_normalize,
    fp_pow,
    fp_sqrt_minus_one,
)
from .groups import (
    AffineElem,
    D8Group,
    LinPart,
    SuborbitLabel,
    canonical_lambda,
    classify_tensor,
    connecting_element,
    d8_elements,
    g0_contains,
    lambda_classes,
    orbit_under_d8,
    rank_of,
    suborbit_elements,
)
from .matrices import (
    Matrix,
    Tensor,
    gl2_enumerate,
    mat_inv,
    mat_mul,
    mat_rank,
    simple_factorize,
    tensor_apply,
)
from .report import TOOL_VERSION, emit_report

__version__ = TOOL_VERSION
