"""Exact models of the minimal representation of osp(m,2|2n).

Subpackage map:

- ``scalars``      exact Gaussian rationals and the pi-graded ring
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


def clear_caches() -> None:
    """Empty every module-level ``lru_cache`` of the package.

    Those caches are keyed by signature and grow for the life of the process;
    a long-lived caller that moves through many shapes can drop them here.
    """
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(__path__):
        mod = importlib.import_module(f"{__name__}.{info.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                obj.cache_clear()
