"""Zero-leakage private variable-length compression for finite joints.

Given a joint distribution of private data X and useful data Y, this
package synthesizes a disclosure variable U that reveals everything about
Y that is statistically independent of X, brackets the minimum achievable
H(U) with linear programs, builds executable keyed codes (one-time-padded
private part plus a prefix-free part, or a padded-Y fixed-width code), and
verifies losslessness, zero leakage, and expected-length bounds by exact
enumeration.
"""

from .codec import (
    LeakageAudit,
    PrefixCode,
    PrivateCode,
    audit,
    build_direct_pad,
    build_huffman,
    build_two_part,
    decode,
    encode,
    encode_pair,
)
from .dist import (
    JointDistribution,
    Kernel,
    conditional_entropies,
    conditional_entropy_y_given_x,
    entropy,
    entropy_rows,
    from_conditional,
    kernel_x_given_y,
    kernel_y_given_x,
    marginal_x,
    marginal_y,
    mutual_information,
    validate_and_normalize,
)
from .linalg import (
    LinearProgram,
    LpOutcome,
    enumerate_vertices,
    rank_and_nullity,
    solve_lp,
)
from .mechanism import (
    Mechanism,
    MechanismBounds,
    build_bound_matrices,
    build_decode_table,
    solve_g0,
    theorem1_bounds,
)
from .report import BoundsReport, build_report, lower_bounds, upper_bounds

__all__ = [
    "JointDistribution",
    "Kernel",
    "validate_and_normalize",
    "from_conditional",
    "marginal_x",
    "marginal_y",
    "kernel_x_given_y",
    "kernel_y_given_x",
    "entropy",
    "entropy_rows",
    "conditional_entropy_y_given_x",
    "conditional_entropies",
    "mutual_information",
    "LinearProgram",
    "LpOutcome",
    "solve_lp",
    "rank_and_nullity",
    "enumerate_vertices",
    "Mechanism",
    "MechanismBounds",
    "build_bound_matrices",
    "solve_g0",
    "theorem1_bounds",
    "build_decode_table",
    "PrefixCode",
    "PrivateCode",
    "LeakageAudit",
    "build_huffman",
    "build_two_part",
    "build_direct_pad",
    "encode",
    "encode_pair",
    "decode",
    "audit",
    "BoundsReport",
    "build_report",
    "upper_bounds",
    "lower_bounds",
]

__version__ = "0.1.0"
