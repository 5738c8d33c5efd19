"""Exact p-adic Fourier analysis and fractional evolution on coset grids.

The package works over Q_p^n with rational arithmetic wherever the math
permits: characters take values in roots of unity tracked symbolically,
so transforms, operator applications, and solver slices of rational data
round-trip bit for bit.  Floating point enters only when the data or the
operator order forces it.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule defining it; a submodule is imported on the
# first access to one of its names (PEP 562), so ``padicwave solve`` loads
# neither the Fourier layer nor the acceptance suite.
_MODULE_OF = {
    "ConfigError": "errors",
    "CosetFunction": "functions",
    "CosetGrid": "lattice",
    "GridCapError": "errors",
    "LizorkinError": "errors",
    "NonRadialError": "errors",
    "PadicWaveError": "errors",
    "PhaseSum": "phases",
    "PrimeContext": "padic",
    "PropagationMultiplier": "solver",
    "RadialShellFunction": "functions",
    "SolutionSlice": "solver",
    "SpectralCompatibilityError": "errors",
    "T_ZERO": "solver",
    "WaveProblem": "solver",
    "add": "functions",
    "apply_hypersingular": "vladimirov",
    "apply_hypersingular_field": "vladimirov",
    "apply_spectral": "vladimirov",
    "auto_time_sweep": "solver",
    "ball_character_integral": "lattice",
    "ball_indicator": "functions",
    "ball_volume": "lattice",
    "canonical_digits": "padic",
    "character": "padic",
    "eigenfunction": "solver",
    "embed_radial": "functions",
    "enumerate_cosets": "lattice",
    "equal_exact": "functions",
    "evaluate": "functions",
    "forward": "fourier",
    "fractional_part": "padic",
    "integrate": "functions",
    "inverse": "fourier",
    "is_in_Phi": "functions",
    "is_in_Psi": "functions",
    "kernel_ball_integral": "solver",
    "kernel_closed_form": "solver",
    "kernel_oracle": "solver",
    "l1_bound_check": "solver",
    "l1_norm": "functions",
    "load_coset_function": "functions",
    "max_abs_diff": "functions",
    "norm_exact": "padic",
    "radial_inverse": "functions",
    "radial_profile": "functions",
    "regrid": "functions",
    "save_coset_function": "functions",
    "scale": "functions",
    "solve_averaging": "solver",
    "solve_convolution": "solver",
    "solve_spectral": "solver",
    "sphere_character_integral": "lattice",
    "sphere_representatives": "lattice",
    "sphere_volume": "lattice",
    "time_profile": "solver",
    "translate": "functions",
    "valuation": "padic",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
