"""Higher-order automatic differentiation via truncated coefficient algebras.

Forward mode pushes tangents, reverse mode pulls covectors back along a
recorded tape, and one-pass lifted evaluation over truncated polynomial
coefficient arrays extracts all mixed directional derivatives up to the
configured caps.
"""
from .errors import (DimensionMismatchError, DomainError,
                     IncompatibleShapesError, JetweilError,
                     NumericOverflowError, ParseError, ShapeTooLargeError,
                     UnsupportedOrderError, UnsupportedPrimitiveError)
from .jets import (DerivativeTable, EnvelopeReport, SeedSpec, WeilSemantics,
                   basis_seed, coefficient_envelope, directional_taylor,
                   seed, tail_bound, taylor_eval)
from .modes import (Tape, compose_programs, compose_vjp_check, jvp,
                    pairing_residual, vjp)
from .oracle import (ScheduleCount, SparsePoly, finite_difference,
                     nested_jvp_schedule, symbolic_eval, symbolic_partial)
from .slp import (Node, PrimitiveKind, Program, eval_generic, eval_primal,
                  parse_program, pretty_print, random_program)
from .stability import (StabilityReport, condition_estimate,
                        stability_bound)
from .weil import (WeilShape, WeilValue, make_shape, weil_add, weil_mul,
                   weil_recip, weil_unary)

__version__ = "0.1.0"
