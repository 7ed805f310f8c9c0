"""Flattening Lipschitz functions on flowers of expanding circle maps.

The package provides exact circle arithmetic, piecewise-affine expanding
maps, flowers and pre-image selectors, escape-time functionals with
rigorous truncation certificates, coboundary construction, a solver for
the pre-Sturmian equation over 1-flowers, and an exact rank test for the
codimension of the flattenable subspace.
"""
from .circle import Arc, EPS, distance, lift, reduce
from .dynamics import (ExpandingMap, make_linear_map, map_from_slopes,
                       periodic_orbits)
from .flatten import (Coboundary, EscapeFunction, build_coboundary,
                      default_depth, escape_function, escape_time_direct,
                      flattened_values, functional, is_flat,
                      normal_form_check, tail_bound)
from .flower import (BoundaryAtBranchBreak, CoverageGap, DegeneratePetal,
                     Discontinuity, Flower, FlowerError, ImagesOverlap,
                     OverlappingPetals, PreImageSelector, SamplingFailed,
                     one_flower, random_flower, selector, validate_flower)
from .functions import (PiecewiseLinear, TrigPolynomial, compose_with_map,
                        demo_function, demo_potential)
from .solve import (NoSignChange, OneFlowerFamily, SturmianEstimate,
                    ZeroInterval, branch_one_frequency_scan, orbit_oracle,
                    phi_of_gamma, rank_test, scan, sign_conditions,
                    solve_pre_sturmian, sturmian_estimate, support_extremes)

__version__ = "0.1.0"
