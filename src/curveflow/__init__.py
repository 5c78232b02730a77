"""Commuting Hamiltonian flows of space curves with monodromy."""

__version__ = "0.1.0"

from .curves import (Curve, Monodromy, make_circle, make_helix, make_line,
                     make_perturbed_circle, resample_arclength, ddx, deriv,
                     tangent, parallel_normal_frame)
from .hierarchy import symplectic_Y_list, fit_multipliers
from .functionals import energy, energy_reports
from .flows import FlowSpec, evolve, commutator_defect
from .loops import loop_cross, V_k, lax_evolve, spectral_polynomial
from .frames import (integrate_frames, monodromy_angle_scan,
                     hamiltonians_from_angle)
from .darboux import fixed_points, darboux_transform, spectral_image_scan
