"""Graph Laplacians weighted by a learnable node potential.

Core pieces: discrete calculus on undirected graphs, the potential-
weighted Laplacian with its advection/diffusion split and heat flow, a
dense symmetric eigensolver, Chebyshev polynomial filters,
a small reverse-mode autodiff engine, spectral GNNs that learn the
potential end to end, synthetic long-range tasks with exact oracles, and
the ``be-spectral`` experiment CLI.
"""

from .graphs import (Graph, build_graph, grad, laplacian, ring_graph, star_graph,
                     barbell_graph)
from .operators import SymOperator, DENSE_LIMIT
from .be import (BEOperator, build_be, validate_potential,
                 advection_decomposition, normalized_be, heat_flow,
                 DEFAULT_MU_FLOOR)
from .spectral import (SpectralDecomposition, eig_sym, lambda_max_power,
                       rayleigh, VariationProfile, variation_profile)
from .chebyshev import (ChebFilter, scale_operator, cheb_apply, cheb_apply_be,
                        cheb_spectral_oracle)
from .autodiff import Tape, Tensor, backward, constant, AdamState, adam_step
from .models import (ModelConfig, MuConfig, MuChebNet, MuParameterizer,
                     mse_loss, cross_entropy_loss,
                     log10_mse, accuracy, context_for)
from .tasks import (TaskInstance, gen_barbell, gen_graph_property,
                    gen_ring_routing, bfs_distances, all_pairs_bfs,
                    erdos_renyi, barabasi_albert)
from .runner import RunConfig, build_dataset, train_run, train_multi
from . import errors

__version__ = "0.1.0"
