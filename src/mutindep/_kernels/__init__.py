"""Hot numeric kernels with a compiled core and a pure-numpy fallback.

The compiled extension (`_fast`, Cython) is preferred when importable; the
numpy implementation (`_pure`) is used when the extension is missing.  Both
apply the same pivot rule and report the same failing submatrix; their
statistics agree to about 1e-13 relative, not bit for bit.  Set
MUTINDEP_KERNELS=c or MUTINDEP_KERNELS=python to force a backend (forcing
"c" raises ImportError if the extension is absent).
"""

import os


def load_backend(name):
    """Import a kernel backend by name ("c" or "python")."""
    if name == "python":
        from . import _pure

        return _pure
    if name == "c":
        try:
            from . import _fast
        except ImportError as exc:
            raise ImportError(
                "compiled kernels mutindep._kernels._fast are not built "
                "(building them needs Cython at install time); set "
                "MUTINDEP_KERNELS=python, or leave it unset, to use the "
                "numpy fallback",
                name="mutindep._kernels._fast",
            ) from exc
        return _fast
    raise ValueError(f"unknown kernel backend {name!r} (use 'c' or 'python')")


def _select():
    forced = os.environ.get("MUTINDEP_KERNELS", "").strip().lower()
    if forced:
        return load_backend(forced)
    try:
        return load_backend("c")
    except ImportError:
        return load_backend("python")


_impl = _select()

BACKEND = _impl.BACKEND
logdet_spd = _impl.logdet_spd
mdi_statistic_batch = _impl.mdi_statistic_batch
