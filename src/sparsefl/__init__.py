"""Sparse identification and feedback linearization of control-affine systems.

Pipeline: simulate a plant under a persistently exciting input, identify a
sparse symbolic model by joint thresholded regression subject to a
relative-degree constraint, certify the Lie-derivative chain, synthesize a
feedback-linearizing tracking controller, and close the loop.
"""

from .control import (
    ControllerSpec,
    ReferenceSignal,
    constant_reference,
    gains_from_poles,
    sinusoid_reference,
    synthesize,
    zero_reference,
)
from .data import Dataset, DatasetError, estimate_derivatives, load_csv, save_csv
from .dictionary import DictionarySet, LibrarySpec, build_dictionaries
from .dynamics import (
    ControlAffineSystem,
    DivergenceError,
    chain_integrator_system,
    constant_input,
    integrate,
    simulate_closed_loop,
    sine_sum_input,
    vdp_system,
    zero_input,
)
from .lie import LieChain, RelativeDegreeError, lie_derivative, relative_degree
from .regression import (
    RegressionConfig,
    RegressionError,
    InfeasibleSparsityError,
    SparseModel,
    solve,
    threshold_pass,
)
from .symexpr import Expression, Term, format_expression, parse_expression

__version__ = "0.1.0"
