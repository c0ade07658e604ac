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
    chi_m,
    chi_m_dimensionless,
    normalized_power,
    omega_from_rho,
    pi_minus,
    pi_plus,
    rho_from_omega,
    sql_photon_number,
)
from .errors import (  # noqa: F401
    DivergenceError,
    DomainError,
    NoiseBudgetError,
    ParameterError,
    UnsupportedConfigError,
)
from .spectra import (  # noqa: F401
    ClassicalNoise,
    ExternalForce,
    SpectrumComponents,
    classical_noise_psd,
    displacement_psd,
    displacement_psd_cavity,
    light_psd,
    mechanical_psd_full,
    squashing_ratio,
)
from .limits import (  # noqa: F401
    LimitCurve,
    StitchedSpectrum,
    force_psd,
    force_psd_opt,
    force_sql,
    p_opt,
    phi_opt,
    psd_at_phi_opt,
    ql_psd,
    sql_psd,
    stitch_quadratures,
    uncertainty_product,
)
from .synodyne import (  # noqa: F401
    SynodyneLO,
    beta_opt,
    lo_coefficients,
    synodyne_psd,
    synodyne_ql,
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
    rescale_occupation,
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
