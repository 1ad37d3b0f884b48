"""The threshold policy: every cutoff, floor and pass factor qact decides
with, one name per decision.

The paper states its conditions exactly (dim Mor(a x b, c), adjointability,
the isometry of the multiplication maps); the library decides each of them
against one of the names below.  A residual check passes when its residual
is below tol, COMPOSITE_FACTOR * tol or AUDIT_FACTOR * tol, where tol is
`--tolerance` (DEFAULT_TOL when not given).  Every other name is fixed:
`--tolerance` does not move it.  Each docstring gives the value, the scale
(absolute, or relative to what) and what the name decides.

The module holds constants only.
"""

# -- the residual tolerance and its pass factors (moved by --tolerance) --------

DEFAULT_TOL = 1e-9
"""1e-9: the residual tolerance tol when `--tolerance` is not given, and
the default of every library check that takes one.  `--tolerance` replaces
it.  Each check states its scale: absolute for the axioms (i)-(iv) and
the positivity of a correspondence, relative to max(1, |T|) for the
adjoint of a map T in axiom (v)."""

COMPOSITE_FACTOR = 100
"""100: the pass factor of residuals composed of a few products of the
data: a check passes when its residual is below 100 * tol.  Moves with
`--tolerance`.  It gates `Action.validate`, the correspondence axioms of
`modules_wellformed` and axiom (v)."""

AUDIT_FACTOR = 1e4
"""1e4: the pass factor of the audits of a rebuilt, deformed or
round-tripped algebra, whose residuals pass through solves, norms and many
products: a check passes when its residual is below 1e4 * tol.  Moves with
`--tolerance`.  It gates `roundtrip_check`, the lower bound of
`fullness_check`, `verify_natural_iso`, `check_cocycle`, `twist_element`,
`staralg.audit` (of `build` and `deform`), the word projection of
`build_report`, the deform cross test and `verify_algebra_iso`."""

# -- rank and invertibility decisions (fixed) -----------------------------------

RANK_TOL = 1e-8
"""1e-8, absolute: a singular value (or an eigenvalue of a positive
matrix) above it counts toward the rank, and a matrix whose smallest one
is above it is invertible.  Fixed.  It decides the ranks of `row_spaces`
and `Backend.mor_basis`, the spanning of a grading, the invertible
self-pairing and `max_rank` of `fullness_check`, the invertibility of the
maps of `verify_natural_iso` and `verify_algebra_iso`, the surjectivity
of the multiplication maps in `validate_graded` and
`StarAlgebraModel.center_dimension`.  As a relative floor, times
max(1, largest eigenvalue), it decides `expectation_faithful` of
`staralg.audit`."""

RELATIVE_RANK_TOL = 1e-10
"""1e-10, relative: a singular value or Gram eigenvalue above 1e-10 times
the largest counts toward the rank.  Fixed.  The scale is max(largest, 1)
in `column_span` and the `nondegenerate` flag of
`validate_correspondences`."""

GNS_CUTOFF = 1e-12
"""1e-12, relative to the largest eigenvalue (floored at GNS_SCALE_GUARD):
the eigenvectors of the Gram matrix kept by the GNS step of
`StarAlgebraModel.gns_space`, and the band around zero in which
`staralg.audit` reads an eigenvalue of the expectation's Gram matrix as
zero when it certifies positivity.  Fixed."""

NULL_VECTOR_FLOOR = 1e-14
"""1e-14, absolute: `_outside_span` drops vectors whose Euclidean norm is
below it before measuring their distance from a span.  Fixed."""

PRUNE_TOL = 1e-13
"""1e-13, absolute: the pruning rule of `staralg`.  A span of a product or
a star, or a value E(b_i* b_j) of the Gram matrix, whose entries all lie
within it is set to zero.  Fixed."""

SCHUR_FLOOR = 1e-16
"""1e-16: a block of F(T) or of F_2 is formed only where the modulus of its
Schur scalar (the trace of the compressed intertwiner) is above it.  For
F(T) it is relative to the Frobenius norm of T, so that F is linear at
every scale; for F_2 it is absolute, since those traces are taken against
isometries and orthonormal intertwiners.  Fixed."""

# -- block decomposition (fixed) ------------------------------------------------

CLUSTER_TOL = 1e-7
"""1e-7, relative to max(1, largest |eigenvalue|): neighbouring
eigenvalues closer than this count as one in `eigenprojections`.  Fixed."""

UNIT_MEET_FLOOR = 1e-8
"""1e-8, absolute: `eigenprojections` keeps an eigenprojection p when the
Frobenius norm of p @ unit is above it, and the block decomposition cuts
an eigenprojection q to the projection p it splits (q @ p) when the norm
of q - q @ p is above it.  Fixed."""

IDEMPOTENT_TOL = 1e-8
"""1e-8, absolute: `_unit_of` rejects a least-squares unit u whose
Frobenius residual |u u - u| is above it.  Fixed."""

UNIT_RELATIONS_TOL = 1e-7
"""1e-7, absolute: `_matrix_units` accepts a set of matrix units when the
largest Frobenius residual of the relations e_ij e_kl = delta_jk e_il,
e_ij* = e_ji and sum_i e_ii = p is below it.  Fixed."""

TRACE_SLACK = 0.1
"""0.1, absolute: `_matrix_units` stops splitting a summand's projection q
once trace q lies within 0.1 of the multiplicity (an integer): q is then
a minimal projection.  Fixed."""

# -- spans and isometries (fixed) -----------------------------------------------

SPAN_TOL = 1e-6
"""1e-6, relative to max(1, |vector|): `_span_coords` raises when a vector
lies farther than this from its span.  Fixed."""

ISOMETRY_TOL = 1e-6
"""1e-6, absolute: `fullness_check` passes only if the largest entry of
the isometry residual of x -> Y <Y,Y>^{-1/2} x is below it.  Fixed."""

CSTAR_TOL = 1e-8
"""1e-8, relative to |L(b)|: `staralg.audit` passes the C*-identity,
L(b*) = L(b)^+ on the GNS space for every basis element b, when the
largest relative residual is below it.  Fixed."""

# -- cocycles and backend tables (fixed) ----------------------------------------

COCYCLE_SCALAR_FLOOR = 1e-12
"""1e-12, absolute: the normalizing value of `make_cocycle`, the
coefficient of (eps (x) i)(Omega) at e, is taken as zero when its modulus
is below it.  Fixed."""

COCYCLE_SV_FLOOR = 1e-10
"""1e-10, absolute: a companion element (`twist_element`), of either
kind, is not invertible when the smallest singular value of its
left-regular matrix is below it.  Fixed."""

TABLE_MATCH_TOL = 1e-12
"""1e-12, absolute (`np.allclose` with `rtol=0`): the entries of a backend
table that identify the trivial irreducible and the conjugate of a
character, and the rho of a backend file against the identity.  Fixed."""

# -- division guards ------------------------------------------------------------

RELATIVE_RESIDUAL_GUARD = 1e-30
"""1e-30, absolute: the relative C*-identity residual of `staralg.audit`
divides by the norm of each basis element's GNS operator, raised to at
least this.  Fixed."""

GNS_SCALE_GUARD = 1e-300
"""1e-300, absolute: the largest Gram eigenvalue that scales GNS_CUTOFF is
raised to at least this, so a zero Gram matrix keeps no vector.  Fixed."""
