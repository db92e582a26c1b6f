"""Exact models of the minimal representation of osp(m,2|2n).

Subpackage map:

- ``scalars``      exact Gaussian rationals and their multiples of powers of pi
- ``algebra``      superpolynomials, derivations, Bessel operators
- ``quotient``     normal forms modulo the ideal generated by R^2
- ``harmonics``    spherical harmonics and Fischer decomposition
- ``liealg``       spin-factor Jordan superalgebra, TKK algebra, Cayley map
- ``schrodinger``  the module W of polynomial-times-exponential functions
- ``integral``     exact Berezin/sphere/radial integration on W
- ``fock``         Bessel-Fischer product, kernels, the Fock action
- ``sbtransform``  Segal-Bargmann transform, inverse, Hermite functions
- ``specfun``      floating-point Bessel/Laguerre sanity evaluations
- ``cli``          verification driver
"""

__version__ = "0.1.0"


def _module_caches() -> dict:
    """Every module-level ``lru_cache`` of the package, by qualified name."""
    import importlib
    import pkgutil

    out = {}
    for info in pkgutil.iter_modules(__path__):
        mod = importlib.import_module(f"{__name__}.{info.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{mod.__name__}.{obj.__qualname__}"] = obj
    return out


def cache_stats() -> dict:
    """``{qualified name: CacheInfo}`` for every module-level ``lru_cache``."""
    return {name: fn.cache_info() for name, fn in _module_caches().items()}


def clear_caches() -> None:
    """Empty every module-level ``lru_cache`` of the package.

    Those caches are keyed by signature and grow for the life of the process;
    a long-lived caller that moves through many shapes can drop them here.
    """
    for fn in _module_caches().values():
        fn.cache_clear()
