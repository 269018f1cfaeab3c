"""Print, as one JSON object, the library environment an op runs in.

Usage: python3 bench/envinfo.py

Run with the op's environment, so the BLAS thread counts are the ones the
op gets.  Importing the CLI also byte-compiles the package before any op is
timed.
"""

import ctypes
import json
import platform
import sys


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[path.rsplit("/", 1)[-1]] = fn()
                break
    return out


def main() -> int:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    import entfarm
    import entfarm.cli  # noqa: F401

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "numpy_blas": blas(numpy.show_config(mode="dicts")),
                "scipy_blas": blas(scipy.show_config(mode="dicts")),
                "blas_threads_runtime": _blas_threads(),
                "entfarm_file": entfarm.__file__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
