"""Quantum noise budgets for interferometric displacement measurement.

Dimensionless conventions throughout: zero-point motion contributes 1 to the
displacement PSD on mechanical resonance, probe power is normalized to the
on-resonance SQL power, and the frequency coordinate is
rho = 2 (omega - omega_m) / gamma.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    Detection,
    MechanicalMode,
    OpticalCavity,
    chi_c,
    chi_m_dimensionless,
    omega_from_rho,
)
from .errors import (  # noqa: F401
    DivergenceError,
    DomainError,
    NoiseBudgetError,
    ParameterError,
)
from .spectra import (  # noqa: F401
    ClassicalNoise,
    SpectrumComponents,
    classical_noise_psd,
    displacement_psd,
)
from .limits import (  # noqa: F401
    phi_opt,
    psd_at_phi_opt,
    sql_psd,
    uncertainty_product,
)
from .synodyne import (  # noqa: F401
    SynodyneLO,
    beta_opt,
    lo_coefficients,
    synodyne_psd,
    synodyne_variational,
)
from .calibration import (  # noqa: F401
    EfficiencyBudget,
    LorentzianFit,
    SidebandFit,
    compose_efficiency,
    fit_lorentzian,
    g_from_blue_sideband,
    n_th_from_sidebands,
    synth_sideband_spectrum,
)
from .sweep import (  # noqa: F401
    SpectrumTable,
    SweepSpec,
    emit_table,
    load_table_csv,
    parse_config,
    run_sweep,
)
from .figures import reproduce_figure  # noqa: F401
