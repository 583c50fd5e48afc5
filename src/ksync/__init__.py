"""Heterogeneous angular synchronization over SO(2).

Recovers k latent groups of angles from a single pool of pairwise circular
offset measurements: spectral (raw and degree-normalized) and low-rank SDP
solvers, generative mixture models with closed-form theory oracles, an
iterative graph-disentangling procedure, and a two-configuration graph
realization pipeline built on patch alignment.

The package exports the names of README's library API; everything else is
imported from its module (``ksync.core``, ``ksync.grp``, ...).
"""

from .disentangle import DisentangleConfig, iterate_disentangle
from .genmodel import MixtureParams, child_seed, sample_angles, sample_er_mixture
from .harness import run_sweep
from .sync import evaluate, sdp_bm_ksync, solve, spectral_ksync

__version__ = "0.1.0"
