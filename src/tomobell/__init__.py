"""Photon-number tomograms, qubit portraits, and Bell-CHSH witnesses.

The package computes photon-number tomograms of two-mode light states
(Schrodinger cat, Gaussian, coherent products), reduces them to
two-qubit portrait vectors under product partitions of the photon
lattice, and searches displacement settings for violations of the
Bell-CHSH inequality that witness entanglement.
"""

from .bell import (
    BellMatrix,
    BellSettings,
    ChshVerdict,
    I_MATRIX,
    MaximizeConfig,
    MaximizeResult,
    TSIRELSON_BOUND,
    bell_matrix,
    bell_number,
    chsh_check,
    get_bell_high_water,
    maximize_bell,
)
from .errors import (
    InvalidBellNumber,
    InvalidParameter,
    InvalidStochasticMatrix,
    NonPhysicalSpec,
    NumericalNegativity,
    TailTooLarge,
    TomobellError,
    UnsupportedState,
)
from .portrait import (
    PartitionScheme,
    PortraitVector,
    make_portrait_fn,
    portrait_truncated,
)
from .states import (
    CatState,
    CoherentProduct,
    GaussianSpec,
    cat_tomogram,
    coherent_tomogram,
    gaussian_purity_family,
    gaussian_tomogram_table,
    load_state,
    make_source,
    parse_state,
)

__version__ = "0.1.0"

__all__ = [
    "BellMatrix",
    "BellSettings",
    "CatState",
    "ChshVerdict",
    "CoherentProduct",
    "GaussianSpec",
    "I_MATRIX",
    "InvalidBellNumber",
    "InvalidParameter",
    "InvalidStochasticMatrix",
    "MaximizeConfig",
    "MaximizeResult",
    "NonPhysicalSpec",
    "NumericalNegativity",
    "PartitionScheme",
    "PortraitVector",
    "TSIRELSON_BOUND",
    "TailTooLarge",
    "TomobellError",
    "UnsupportedState",
    "bell_matrix",
    "bell_number",
    "cat_tomogram",
    "chsh_check",
    "coherent_tomogram",
    "gaussian_purity_family",
    "gaussian_tomogram_table",
    "get_bell_high_water",
    "load_state",
    "make_portrait_fn",
    "make_source",
    "maximize_bell",
    "parse_state",
    "portrait_truncated",
]
