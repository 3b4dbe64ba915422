"""The compiled kernels (``_native.c``), built on first use.

``kernel()`` returns a ``Kernel`` of the library's two functions, or None
where no library can be built; ``status()`` says which, and why.  Nothing is
compiled at import.  ``Kernel.shapley_block`` does what ``explain._events``
and ``explain._event_credits`` do for one Shapley block, and
``Kernel.chebyshev_stripe`` what ``medoids._stripe``'s numpy blocks do for
one row stripe of the medoid distance matrix.  Both paths of each give the
same bytes.

The first call in a process compiles ``_native.c`` with the interpreter's
own C compiler (``sysconfig``'s ``CC``, with ``-O3 -shared -fPIC``, no
fast-math and no ``-march``) in a child process, or loads the library an
earlier process left in the cache, ``$XDG_CACHE_HOME/lmmx`` or
``~/.cache/lmmx`` (mode 0o700).  The file is ``_native-<tag>-<hash>.so``:
the tag is a short hash of the platform and the extension suffix, and the
hash one of the source, the compiler command and the tag.  It is written
under a temporary name and moved into place with ``os.replace``, so
concurrent processes never see half a file.  It ends with the sha256 of the
library before it; a file whose digest does not match, a truncated one
say, is rebuilt before it is loaded.  Each load refreshes its library's
mtime, so two sources used in turn, say two checkouts on one interpreter,
each keep theirs.  A new build keeps its tag's ``_KEEP`` most recently
used libraries and removes the rest of the tag and every untagged
``_native-<hash>.so`` an older lmmx left; another interpreter's tag keeps
its own.  A cache directory that cannot be written, or is not the user's
own, gives way to a private temporary directory for the compile.  Every
failure falls back to the numpy passes silently, with no output and no
warning; only ``lmmx selftest`` prints ``status()``.  A caller that runs a
kernel on threads calls ``kernel()`` first in its own thread, so no thread
waits on the first compile.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("_native.c")
_FLAGS = ("-O3", "-shared", "-fPIC")
_DIGEST = 32      # bytes of the sha256 trailer
_KEEP = 4         # libraries of one tag the cache keeps


class Kernel(NamedTuple):
    """The compiled library's functions, each wrapped to take numpy arrays."""

    shapley_block: Callable
    chebyshev_stripe: Callable


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):      # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "lmmx")


def _private(directory: Path) -> bool:
    """Whether ``directory`` is the user's own and no one else can write to it."""
    st = directory.stat()
    uid = os.getuid() if hasattr(os, "getuid") else st.st_uid    # Windows has no uids
    return st.st_uid == uid and not st.st_mode & 0o022


def _compile(command: list[str], directory: Path) -> Path:
    """Compile ``SOURCE`` into ``directory`` under a temporary name and append its digest."""
    fd, name = tempfile.mkstemp(prefix=".lmmx-native-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(command + [*_FLAGS, "-o", name, str(SOURCE)], stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
                       timeout=300)
        with open(name, "r+b") as fh:
            fh.write(hashlib.sha256(fh.read()).digest())
    except BaseException:
        Path(name).unlink(missing_ok=True)
        raise
    return Path(name)


def _intact(path: Path) -> bool:
    """Whether ``path`` holds a library followed by its own sha256."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    return len(data) > _DIGEST and hashlib.sha256(data[:-_DIGEST]).digest() == data[-_DIGEST:]


def _bind(path: Path) -> Kernel:
    """The functions of the library at ``path``, wrapped to take numpy arrays."""
    library = ctypes.CDLL(str(path))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    block_fn = library.lmmx_shapley_block
    block_fn.argtypes = [i64, i64, i64, ptr, i64, ptr, i64, ptr, ptr, ctypes.c_double, ptr]
    block_fn.restype = ctypes.c_int
    stripe_fn = library.lmmx_chebyshev_stripe
    stripe_fn.argtypes = [i64, i64, ptr, ptr, i64, i64]
    stripe_fn.restype = None

    def block_credits(block, keys, terms, gray_logit, credits):
        """Add the block's event credits to ``credits``, as ``_event_credits`` of ``_events``.

        ``block`` holds unsigned draws, ``keys`` the event keys of
        ``explain._blocks`` and ``terms`` the (2, P, kept) stack of biased
        gray and image terms.  Shapes and dtypes are checked here; the
        kernel checks every index it reads.
        """
        block = np.ascontiguousarray(block)
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        terms = np.ascontiguousarray(terms, dtype=np.float64)
        n, n_pix = block.shape
        kept = terms.shape[-1]
        if (block.dtype.kind != "u" or keys.ndim != 1 or terms.shape != (2, n_pix, kept)
                or credits.shape != (n_pix + 1,)
                or credits.dtype != np.float64 or not credits.flags.c_contiguous):
            raise ValueError("Shapley block arrays do not match the kernel's layout")
        status = block_fn(n, n_pix, kept, block.ctypes.data, block.itemsize, keys.ctypes.data,
                          keys.size, terms.ctypes.data, terms[1].ctypes.data, gray_logit,
                          credits.ctypes.data)
        if status == -1:
            raise MemoryError("cannot allocate the Shapley kernel's scratch")
        if status:
            raise ValueError("a Shapley block index is out of range")

    def chebyshev_stripe(units, dist, i0, i1):
        """Fill rows i0:i1 of ``dist`` from the diagonal on, and their transposes.

        ``units`` is the C-contiguous (n, P) uint8 pixel levels and ``dist``
        the C-contiguous (n, n) uint8 matrix; both and ``0 <= i0 < i1 <= n``
        are checked here, before the kernel runs, since it checks nothing.
        """
        if (units.dtype != np.uint8 or dist.dtype != np.uint8 or units.ndim != 2
                or dist.shape != (units.shape[0],) * 2 or not units.flags.c_contiguous
                or not dist.flags.c_contiguous or not 0 <= i0 < i1 <= units.shape[0]):
            raise ValueError("Chebyshev stripe arrays do not match the kernel's layout")
        stripe_fn(*units.shape, units.ctypes.data, dist.ctypes.data, i0, i1)

    return Kernel(block_credits, chebyshev_stripe)


def _evict(cache: Path, tag: str, fresh: Path) -> None:
    """Remove the tag's libraries but ``fresh`` and the ``_KEEP - 1`` others used last, and
    every untagged one; a process that has one mapped keeps it."""
    def used(path):
        with contextlib.suppress(OSError):
            return path.stat().st_mtime_ns
        return 0

    tagged = sorted(set(cache.glob(f"_native-{tag}-*.so")) - {fresh}, key=used, reverse=True)
    for stale in tagged[_KEEP - 1:] + list(cache.glob("_native-" + "[0-9a-f]" * 16 + ".so")):
        with contextlib.suppress(OSError):
            stale.unlink()


def _build(command: list[str]):
    """(kernel, status) from the cache, rebuilt there if missing or damaged; raises OSError
    when the cache directory cannot be made, written or trusted."""
    cache = _cache_dir()
    if not cache.is_absolute():      # no home directory to expand ~ into
        raise PermissionError("no cache directory")
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    if not _private(cache):
        raise PermissionError(f"{cache} is not private to this user")
    platform = [sysconfig.get_platform(), str(sysconfig.get_config_var("EXT_SUFFIX"))]
    tag = hashlib.sha256("\0".join(platform).encode()).hexdigest()[:8]
    key = hashlib.sha256(b"\0".join([SOURCE.read_bytes(), shlex.join(command + [*_FLAGS]).encode(),
                                     tag.encode()]))
    path = cache / f"_native-{tag}-{key.hexdigest()[:16]}.so"
    if _intact(path):
        with contextlib.suppress(OSError):
            os.utime(path)
    else:
        os.replace(_compile(command, cache), path)
        _evict(cache, tag, path)
    return _bind(path), f"native ({path})"


@functools.cache
def _load():
    """(``Kernel`` or None, status line); the first call compiles or loads the library."""
    cc = sysconfig.get_config_var("CC")
    command = shlex.split(cc) if cc else []
    if not command or shutil.which(command[0]) is None:
        return None, "numpy (no compiler)"
    try:
        return _build(command)
    except subprocess.SubprocessError:
        return None, "numpy (compile failed)"
    except OSError:
        pass
    try:
        with tempfile.TemporaryDirectory(prefix="lmmx-native-", ignore_cleanup_errors=True) as tmp:
            # the library stays mapped after its directory is removed
            found = _bind(_compile(command, Path(tmp)))
    except subprocess.SubprocessError:
        return None, "numpy (compile failed)"
    except OSError:
        return None, "numpy (cache unwritable)"
    return found, "native (compiled into a temporary directory: cache unwritable)"


def kernel() -> Kernel | None:
    """The compiled library's functions, or None where no library can be built here."""
    return _load()[0]


def status() -> str:
    """Which path both kernels run: ``native (<library>)``, or ``numpy (<why>)``."""
    return _load()[1]
