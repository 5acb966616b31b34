"""Build script: compiles the optional Cython speedup module.

With Cython installed the extension is cythonized from `_speedups.pyx`;
without it setuptools compiles the shipped generated `_speedups.c` in its
place, so a C compiler and the NumPy headers suffice.  The package is fully
functional without the extension (a pure-numpy implementation of the same
kernels is selected at import time), so a failed extension build downgrades
to a warning instead of aborting the install.
"""

import numpy as np
from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the speedups if possible; fall back to pure numpy otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - exercised only on broken toolchains
            print(f"WARNING: speedup extension not built ({exc}); "
                  "falling back to the pure-numpy backend")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover
            print(f"WARNING: building {ext.name} failed ({exc}); "
                  "falling back to the pure-numpy backend")


extensions = [
    Extension(
        "lamedn._speedups",
        ["src/lamedn/_speedups.pyx"],
        include_dirs=[np.get_include()],
        extra_compile_args=["-O3"],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
    )
]

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(extensions, compiler_directives={"language_level": "3"})
except ImportError:  # pragma: no cover
    # setuptools replaces the .pyx source by the .c beside it
    ext_modules = extensions

setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
