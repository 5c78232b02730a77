"""Commuting Hamiltonian flows of space curves with monodromy."""

__version__ = "0.1.0"

from .curves import (Curve, Monodromy, NormalFrame, make_circle, make_helix,
                     make_line, make_perturbed_circle, resample_arclength,
                     ddx, deriv, tangent, parallel_normal_frame)
from .hierarchy import (gradient_G, gradient_from_Y, symplectic_Y_list,
                        recursion_residual, fit_multipliers)
from .functionals import (energy, energy_report, energy_reports,
                          total_torsion, directional_derivative_check)
from .flows import (FlowSpec, Trajectory, evolve, commutator_defect)
from .loops import (LoopElement, loop_cross, V_k, lax_evolve,
                    spectral_polynomial, from_curve, finite_gap_residual)
from .frames import (integrate_frame, integrate_frames, sym_curve,
                     monodromy_angle, monodromy_angle_scan,
                     hamiltonians_from_angle, torsion_shift_check,
                     spherical_sector_area)
from .darboux import (hyperbolic_family, fixed_points, darboux_transform,
                      spectral_image_scan)
