"""Numerical laboratory for positive 2-form triples on flat periodic 4-tori.

The package has two layers.  The pointwise layer (`triple_algebra`,
`fiber_g2`) implements the exterior algebra of a triple of 2-forms at a
single fiber: Gram matrices, metric reconstruction, dual triples, Hodge
stars, the lift to a 7-dimensional product fiber, and the torsion trace.
The lattice layer (`grid_calculus`, `flow_engine`, `initial_data`) applies
the same algebra per point on a periodic grid, adds finite-difference
exterior calculus, and integrates the flow

    dw_i/dt = d( Q_ik d*( Q^kl w_l ) )

with diagnostics that certify closedness and cohomology-period conservation
to roundoff.
"""

from .errors import (DetNotOne, HsflowError, NotPositive, SingularMatrix,
                     StepRejected, ValidationError)
from .triple_algebra import (adj3, det3, dual_triple, gram, hodge2, inv3,
                             is_positive, levi_civita_det_check,
                             metric_density, metric_from_triple, normalize,
                             rescale_triple, standard_triple, two_form,
                             wedge22)
from .fiber_g2 import (assemble_dphi, build_phi, build_psi, check_star7,
                       hodge7, metric7_block, metric_from_phi, star3_t3,
                       torsion_trace)
from .grid_calculus import (Lattice, TripleField, constant_triple_field, d,
                            partial, periods, pointwise_normalize)
from .flow_engine import (DIAG_COLUMNS, FlowConfig, FlowResult, FlowState,
                          diagnostics, evaluate_rhs, init_state, rhs, run,
                          stable_dt, step)
from .initial_data import GENERATORS, generate_initial
from .snapshot import read_snapshot, write_snapshot
from .config import ExperimentConfig, load, loads
from .verify import run_suite

__version__ = "0.1.0"
