"""Accelerated proximal coordinate gradient solvers for composite convex
minimization, their specialization to dual regularized ERM, baseline solvers,
and a benchmark CLI."""

from .core import (BlockPartition, CompositeProblem, L1Regularizer,
                   SeparableRegularizer, SmoothOracle, block_prox,
                   weighted_norm)
from .schedule import ApcgSchedule, theta_rows
from .solvers import (ApcgEfficientState, ApcgExplicitState, BlockSampler,
                      SolveResult, apcg_step_efficient, apcg_step_general,
                      solve)
from .erm import (ErmDualState, ErmProblem, ErmRunResult, PrimalDualReport,
                  SmoothedHingeLoss, SquareLoss, complexity_estimate,
                  erm_constants, run_epochs, solve_erm)
from .baselines import AfgState, afg_step, sdca_epoch
from .data import SparseColMatrix, parse_libsvm, synth_binary, write_libsvm

__version__ = "0.1.0"
