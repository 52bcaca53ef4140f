"""Demand-private multi-access coded caching on the (K, L, N) cyclic network."""

from .baseline import (
    BaselineParams,
    baseline_decode,
    baseline_deliver,
    baseline_place,
    memory_grid_file_size,
)
from .gf2 import (
    Gf2Matrix,
    build_air,
    check_air,
    coeff_xor,
    gf2_rank,
    gf2_solve_window,
    invert_square,
)
from .lifting import (
    KeyMaterial,
    lift_decode,
    lift_decoder,
    lift_deliver,
    lift_place,
    lifted_memory,
    share_cache,
)
from .model import (
    Bits,
    Cache,
    NetworkConfig,
    SubfileLibrary,
    accessible_caches,
    all_demand_vectors,
    library_from_int,
    mod_index,
    pack,
    random_library,
    split,
    split_library,
)
from .private_sets import (
    PrivateSet,
    algorithm1_private_set,
    is_private_set,
    smallest_private_set_oracle,
)
from .schemes import check_condition_c1, make_scheme
from .verify import (
    BaselineInstance,
    BudgetExceededError,
    LiftedInstance,
    NonPrivateInstance,
    attack_success_rate,
    make_baseline_runner,
    make_lifted_runner,
    make_nonprivate_runner,
    mutual_information_exact,
    verify_decodability,
    verify_privacy_exact,
)
