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
the deform audit and cross test, `build_report` and `verify_algebra_iso`."""

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
`build_report` and of the deform audit."""

RELATIVE_RANK_TOL = 1e-10
"""1e-10, relative: a singular value or Gram eigenvalue above 1e-10 times
the largest counts toward the rank.  Fixed.  The scale is max(largest, 1)
in `column_span`, `_matrix_units` and the `nondegenerate` flag of a
correspondence, and max(largest, 0) in the quotient of
`internal_tensor`."""

GNS_CUTOFF = 1e-12
"""1e-12, relative to the largest eigenvalue (floored at GNS_SCALE_GUARD):
the eigenvectors of the Gram matrix kept by the GNS step of
`StarAlgebraModel.gns_space`.  Fixed."""

NULL_VECTOR_FLOOR = 1e-14
"""1e-14, absolute: `_outside_span` drops vectors whose Euclidean norm is
below it before measuring their distance from a span.  Fixed."""

PRUNE_TOL = 1e-13
"""1e-13, absolute: the pruning rule of `staralg`.  A span of a product or
a star, or a value E(b_i* b_j) of the Gram matrix, whose entries all lie
within it is set to zero.  Fixed."""

SCHUR_FLOOR = 1e-16
"""1e-16, absolute: a block of F(T) or of F_2 is formed only where the
modulus of its Schur scalar (the trace of the compressed intertwiner) is
above it.  Fixed."""

# -- block decomposition (fixed) ------------------------------------------------

CLUSTER_TOL = 1e-7
"""1e-7, relative to max(1, largest |eigenvalue|): neighbouring
eigenvalues closer than this count as one in `eigenprojections`.  Fixed."""

UNIT_MEET_FLOOR = 1e-8
"""1e-8, absolute: `eigenprojections` keeps an eigenprojection p when the
Frobenius norm of p @ unit is above it.  Fixed."""

IDEMPOTENT_TOL = 1e-8
"""1e-8, absolute: `_unit_of` rejects a least-squares unit u whose
Frobenius residual |u u - u| is above it.  Fixed."""

UNIT_RELATIONS_TOL = 1e-7
"""1e-7, absolute: `_matrix_units` accepts a set of matrix units when the
largest Frobenius residual of the relations e_ij e_kl = delta_jk e_il,
e_ij* = e_ji and sum_i e_ii = p is below it.  Fixed."""

TRACE_SLACK = 0.1
"""0.1, absolute: in `_matrix_units`, the trace of each eigenprojection of
a probe must lie within 0.1 of the multiplicity (an integer), or the
probe is drawn again.  Fixed."""

PROBE_ATTEMPTS = 8
"""8: the random probes drawn before `decompose_star_algebra` gives up
separating the central summands, and before `_matrix_units` gives up on
one summand.  Fixed."""

# -- spans and isometries (fixed) -----------------------------------------------

SPAN_TOL = 1e-6
"""1e-6, relative to max(1, |vector|): `_span_coords` raises when a vector
lies farther than this from its span.  Fixed."""

ISOMETRY_TOL = 1e-6
"""1e-6, absolute: `fullness_check` passes only if the largest entry of
the isometry residual of x -> Y <Y,Y>^{-1/2} x is below it.  Fixed."""

CSTAR_TOL = 1e-8
"""1e-8, on a residual relative to |x|^2: `build_report` passes the
C*-identity |x* x| = |x|^2 when the largest relative residual is below
it.  Fixed."""

# -- cocycles and backend tables (fixed) ----------------------------------------

COCYCLE_SCALAR_FLOOR = 1e-12
"""1e-12, absolute: a scalar that must be invertible is taken as zero when
its modulus is below it: the normalizing value of `make_cocycle` and each
coefficient of a dual-kind companion element in `twist_element`.  Fixed."""

COCYCLE_SV_FLOOR = 1e-10
"""1e-10, absolute: a group-kind cocycle (`check_cocycle`) or companion
element (`twist_element`) is not invertible when the smallest singular
value of its left-regular matrix is below it.  Fixed."""

TABLE_MATCH_TOL = 1e-12
"""1e-12, absolute (`np.allclose` with `rtol=0`): the entries of a backend
table that identify the trivial irreducible and the conjugate of a
character, and the rho of a backend file against the identity.  Fixed."""

# -- division guards ------------------------------------------------------------

RELATIVE_RESIDUAL_GUARD = 1e-30
"""1e-30, absolute: the relative residuals of `build_report` divide by the
norms of the sampled elements, each raised to at least this.  Fixed."""

GNS_SCALE_GUARD = 1e-300
"""1e-300, absolute: the largest Gram eigenvalue that scales GNS_CUTOFF is
raised to at least this, so a zero Gram matrix keeps no vector.  Fixed."""
