"""orbicert: exact-arithmetic certificates for affine tensor-space groups.

The toolkit constructs the permutation group generated by translations of
a (2 x m)-dimensional tensor space over GF(p) together with a dihedral
group acting on the 2-dimensional factor and the full general linear
group on the other, classifies its suborbits, builds the orbital Cayley
digraphs, and machine-checks witness automorphisms, Hamming
identifications, clique geometry, stabilizer computations and cross-ratio
obstructions, emitting reproducible JSON certificates.

``import orbicert`` loads no submodule, and so no numpy: import the layer
you use (``orbicert.digraphs``, ``orbicert.certify``, ...).  That lets
``orbicert.cli`` pin numpy's BLAS pool to one thread before numpy starts
it; every command then runs in one thread.
"""

__version__ = "0.1.0"
