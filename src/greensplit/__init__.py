"""Green-split analysis toolkit for signalized road networks.

The package models urban traffic as a positive switched linear system:
cells of vehicle density per road, one dynamics matrix per signal mode,
and a time-averaged surrogate whose quality improves as cycles shrink.
On top of that sit a congestion cost, a smoothed spectral abscissa with
an analytic duration gradient, a projected Newton optimizer for green
splits, exact trajectory simulation, and a distributed Lyapunov solver.
"""

from .distributed import (Agent, CommGraph, DistributedResult,
                          default_assignment, partition_rows,
                          run_distributed, synchronous_round)
from .dynamics import ModeSet, assemble_modes, average_matrix, output_map
from .errors import (DegenerateSystem, DimensionError, EigenFailure,
                     GreensplitError, InconsistentLocal, NoConvergence,
                     NoStableStart, NotConverged, SolveFailure,
                     UnstableMatrix, ValidationError, ZeroTrace)
from .lyapunov import (ShiftedLyapunov, congestion_cost, solve_lyapunov,
                       spectral_abscissa)
from .net_model import (InflowProfile, Intersection, Movement, NetworkSpec,
                        Road, Schedule, build_network, generate_grid,
                        movement_label, parse_movement_key, uniform_schedule)
from .optimizer import (OptimizationReport, optimize, project_tangent)
from .scenario import (config_hash, dump, dumps, load, load_document,
                       to_document)
from .sim import (Trajectory, averaging_error, averaging_sweep, simulate_average,
                  simulate_switching)
from .ssa import SmoothedAbscissa, duration_gradient, smoothed_abscissa

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # network model
    "Road", "Movement", "Intersection", "NetworkSpec", "Schedule",
    "InflowProfile", "build_network", "generate_grid", "uniform_schedule",
    "parse_movement_key", "movement_label",
    # scenarios
    "load", "load_document", "to_document", "dumps", "dump", "config_hash",
    # dynamics
    "ModeSet", "assemble_modes", "average_matrix", "output_map",
    # Lyapunov machinery
    "ShiftedLyapunov", "solve_lyapunov", "congestion_cost", "spectral_abscissa",
    # smoothed abscissa
    "SmoothedAbscissa", "smoothed_abscissa", "duration_gradient",
    # optimization
    "OptimizationReport", "optimize", "project_tangent",
    # simulation
    "Trajectory", "simulate_switching",
    "simulate_average", "averaging_error", "averaging_sweep",
    # distributed solver
    "CommGraph", "Agent", "DistributedResult", "run_distributed",
    "synchronous_round", "partition_rows", "default_assignment",
    # errors
    "GreensplitError", "ValidationError", "DimensionError", "EigenFailure",
    "UnstableMatrix", "SolveFailure", "DegenerateSystem", "NoConvergence",
    "ZeroTrace", "NoStableStart", "InconsistentLocal", "NotConverged",
]
