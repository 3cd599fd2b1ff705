"""Piecewise-linear analysis of DAG-structured networks.

Networks are immutable directed acyclic graphs whose arcs carry elements:
an optional affine map, then at most one activation or transform.
Replacing each activation by its active linear pieces turns the network into
one affine map per input-space region; this package builds such graphs,
tracks how the region partition refines from node to node, and certifies
Lipschitz stability from per-level weight-norm sums.
"""

from .basis import (
    CpwlSpec,
    PoolSpec,
    TransformSpec,
    UnRectifyingPattern,
    abs_spec,
    activation_bound,
    cpwl_eval,
    hard_tanh_spec,
    leaky_relu_spec,
    maxlu2,
    relu_spec,
    transform_eval,
    unrectify,
)
from .builders import (
    build_demo_network,
    build_fusion_module,
    build_fusion_stack,
    build_lenet5,
    build_resnet_module,
    build_series_stack,
    conv2d_affine,
    identity_dag,
    lenet5_probe_nodes,
    maxpool_as_relu_network,
)
from .elements import (
    Activation,
    ArcElement,
    ActivationAffine,
    Affine,
    Identity,
    Linear,
    Transform,
    TransformAffine,
    uniform_bound,
)
from .graph import (
    Arc,
    Dag,
    GraphBuilder,
    GraphConstructionError,
    InvalidGraphError,
    Node,
    ValidationReport,
    computable_subgraph,
    concatenate,
    duplicate,
    forward,
    forward_batch,
    levels,
    series,
    validate,
)
from .idx import IdxDataset, IdxFormatError, load_idx
from . import parallel  # unused by the library; bench/ reads it as unrectify.parallel
from .netio import NetworkFormatError, load_network, save_network
from .partition import (
    AffinePiece,
    NotPiecewiseAffineError,
    PartitionStats,
    RefinementReport,
    RegionCode,
    affine_piece,
    check_refinement,
    count_regions_2d,
    fusion_partition_bound,
    partition_stats,
    region_code,
)
from .stability import (
    GainCurve,
    LevelSum,
    StabilityReport,
    certify,
    empirical_gain,
    level_sums,
    rescale_to_stability,
    resnet_link_condition,
    soundness_check,
    spectral_norm,
    svd_spectral_norm,
)

__version__ = "0.1.0"
