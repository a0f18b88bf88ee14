"""hardylab: a numerical laboratory for multilinear frequency multipliers,
atoms with vanishing moments, and maximal functions on periodic grids."""

__version__ = "0.1.0"

from .grid import (
    Grid,
    SampledFunction,
    Spectrum,
    dft,
    idft,
    lp_quasinorm,
    make_grid,
    pointwise_product,
    sample,
)
from .symbols import (
    Partition,
    Symbol,
    builtin_symbol,
    cm_condition_ratio,
    forms_agree,
    make_mixed_symbol,
    make_product_symbol,
    plane_vanishing_order,
    power_symbol,
)
from .operators import (
    MultilinearOperator,
    apply_general,
    apply_oracle,
    apply_operator,
    default_cutoff,
    spectral_moment,
)
from .atoms import (
    Atom,
    Cube,
    FiniteAtomicSum,
    cube_indicator,
    dilate_cube,
    make_atom,
    make_atomic_sum,
    make_infinity_atom,
    moments,
)
from .maximal import (
    BumpProfile,
    ScaleLadder,
    hl_maximal,
    hp_quasinorm,
    make_bump,
    make_ladder,
    power_maximal,
    smooth_maximal,
)
from .verify import (
    ExperimentConfig,
    ExperimentReport,
    IndexData,
    apply_to_atoms,
    check_cancellation,
    check_decay_lemma,
    check_fs_inequality,
    check_local_estimate,
    check_pointwise_majorant,
    index_arithmetic,
    run_boundedness_ensemble,
    run_context,
    scale_invariance_test,
)
