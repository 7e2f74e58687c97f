"""The ``"compiled"`` kernel tier: the C LK core behind ctypes.

:mod:`repro.localsearch._lkcore` (``_lkcore.c``) runs one whole
:meth:`LinKernighan.optimize` call — don't-look queue, DFS with
backtracking, candidate scans, flips and undo — in a single C call that
works in place on ``tour.order`` / ``tour.position``.  It is a port of
the row tier with the same bit-identical contract as every other tier
(same tours, OpStats and meter charges; see docs/ALGORITHMS.md §6a).

The shared library is compiled lazily, once per machine, with the
system C compiler (``cc -O2 -shared -fPIC``) and cached under
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), keyed by a hash
of the C source, the flags and the platform.  The build writes a
temporary file and renames it into place, so concurrent cold builds in
several processes all end up loading a complete library.  When no
compiler works, :func:`available` is False: the default kernel then
falls back to ``"row"``, while an explicit ``"compiled"`` request raises
:class:`CompiledKernelUnavailable` with the reason.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "CompiledKernelUnavailable",
    "LKCore",
    "available",
    "load",
    "unavailable_reason",
]

SOURCE = Path(__file__).with_name("_lkcore.c")
#: Compiler command and flags (module constants so tests can break them).
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")
#: Chains deeper than this run on the row tier: the C DFS recurses once
#: per level, and the row tier's own recursion limit is far below it.
MAX_DEPTH = 10_000

_state: dict = {"lib": None, "error": None, "tried": False}


class CompiledKernelUnavailable(RuntimeError):
    """``kernel="compiled"`` was requested but the C core cannot load."""


def cache_dir() -> Path:
    """Per-user build cache: ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def library_path() -> Path:
    """Cache path of the library built from the current source and flags."""
    h = hashlib.sha256()
    h.update(SOURCE.read_bytes())
    h.update(repr((COMPILER, FLAGS)).encode())
    h.update(repr((sys.platform, platform.machine(),
                   ctypes.sizeof(ctypes.c_void_p))).encode())
    return cache_dir() / f"_lkcore-{h.hexdigest()[:16]}.so"


def _private_dir(path: Path) -> None:
    """Create ``path`` with mode 0700; refuse a directory other users
    could write (a library loaded from it would run their code)."""
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    uid = os.getuid() if hasattr(os, "getuid") else st.st_uid
    if st.st_uid != uid or st.st_mode & 0o022:
        raise OSError(f"cache directory {path} is not private to this user")


def _build(target: Path) -> None:
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        proc = subprocess.run(
            [COMPILER, *FLAGS, "-o", str(tmp), str(SOURCE)],
            capture_output=True, text=True, timeout=300, check=False,
        )
        if proc.returncode != 0:
            raise OSError(
                f"{COMPILER} exited with {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def _bind(lib) -> None:
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.lk_optimize.argtypes = [
        i64, p, p, p,           # n, order, position, matrix
        p, p, i64,              # candidates, widths, K
        p, i64,                 # breadth per level, max_depth
        p, i64,                 # dirty seed, its length (-1: all)
        p, i64,                 # fixed keys, count
        ctypes.c_double, p,     # budget, io
    ]
    lib.lk_optimize.restype = ctypes.c_int
    lib.lk_set_order.argtypes = [p, i64, i64, p]
    lib.lk_set_order.restype = i64


def _set_order(lib, keys, n: int) -> list:
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    out = np.empty(len(keys), dtype=np.int64)
    m = lib.lk_set_order(keys.ctypes.data, len(keys), n, out.ctypes.data)
    return out[:m].tolist()


def _self_check(lib) -> None:
    """The C set emulation must match this interpreter's ``set`` order
    (the wake order of the don't-look queue depends on it)."""
    rng = np.random.default_rng(20050404)
    for size in (2, 9, 40, 300):
        keys = rng.integers(0, 5000, size=size).tolist()
        expected = set()
        for k in keys:
            expected.add(k)
        if _set_order(lib, keys, 5000) != list(expected):
            raise OSError("set iteration order emulation does not match "
                          "this Python implementation")


def load():
    """The loaded library (building it on first use), or ``None``."""
    if not _state["tried"]:
        _state["tried"] = True
        if np.dtype(np.intp).itemsize != 8:
            _state["error"] = "the compiled core needs a 64-bit platform"
            return None
        try:
            path = library_path()
            _private_dir(path.parent)
            if not path.exists():
                _build(path)
            lib = ctypes.CDLL(str(path))
            _bind(lib)
            _self_check(lib)
            _state["lib"] = lib
        except (OSError, subprocess.SubprocessError) as exc:
            _state["error"] = f"{type(exc).__name__}: {exc}"
    return _state["lib"]


def available() -> bool:
    """True when the C core is (or can be) built and loaded."""
    return load() is not None


def unavailable_reason() -> Optional[str]:
    load()
    return _state["error"]


def require():
    lib = load()
    if lib is None:
        raise CompiledKernelUnavailable(
            f"kernel 'compiled' is unavailable ({_state['error']}); use "
            "kernel='row' or install a C compiler")
    return lib


def _widths(instance, provider) -> np.ndarray:
    """Valid entries per candidate row (cached on the instance)."""
    key = ("cand-widths",) + provider.cache_key()
    cached = instance._neighbor_cache.get(key)
    if cached is None:
        _cmat, mask = provider.matrix(instance)
        cached = np.ascontiguousarray(mask.sum(axis=1), dtype=np.int32)
        cached.setflags(write=False)
        instance._neighbor_cache[key] = cached
    return cached


def _inplace_ok(arr: np.ndarray) -> bool:
    return (arr.dtype == np.intp and arr.flags.c_contiguous
            and arr.flags.writeable)


class LKCore:
    """The C core bound to one (instance, candidate provider, config).

    Holds the arrays every call reads (dense matrix, padded candidate
    matrix, row widths, per-level breadth) so a call only passes the
    tour and its inputs.  Construct through :meth:`create`, which
    returns ``None`` where the row tier has to run instead.
    """

    # The array attributes also keep the buffers behind ``_ptrs`` alive.
    __slots__ = ("lib", "n", "matrix", "cmat", "widths", "breadth",
                 "max_depth", "io", "_ptrs")

    def __init__(self, lib, instance, provider, matrix, cmat, config):
        self.lib = lib
        self.n = instance.n
        self.matrix = matrix
        self.cmat = cmat
        self.widths = _widths(instance, provider)
        self.max_depth = int(config.max_depth)
        # LKConfig.breadth_at for every level: listed levels, then 1.
        self.breadth = np.ones(self.max_depth, dtype=np.int64)
        listed = [max(1, int(b)) for b in config.breadth[:self.max_depth]]
        self.breadth[:len(listed)] = listed
        self.io = np.zeros(9, dtype=np.int64)
        self._ptrs = (matrix.ctypes.data, self.cmat.ctypes.data,
                      self.widths.ctypes.data, int(self.cmat.shape[1]),
                      self.breadth.ctypes.data, self.io.ctypes.data)

    @classmethod
    def create(cls, instance, provider, view, config) -> "Optional[LKCore]":
        """The core for this setup, or ``None`` when it cannot serve it:
        no dense matrix (the instance is above the dense limit), arrays
        of an unexpected layout, or a chain depth beyond
        :data:`MAX_DEPTH`."""
        lib = require()
        matrix = view.matrix
        n = instance.n
        if (matrix is None or matrix.dtype != np.int64
                or matrix.shape != (n, n) or not matrix.flags.c_contiguous
                or config.max_depth > MAX_DEPTH):
            return None
        cmat, _mask = provider.matrix(instance)
        if (cmat.dtype != np.int32 or cmat.shape[0] != n
                or not cmat.flags.c_contiguous):
            return None
        return cls(lib, instance, provider, matrix, cmat, config)

    def optimize(self, tour, meter, dirty, fixed, stats) -> int:
        """Run one ``optimize`` call; returns the total gain."""
        n = self.n
        order, position = tour.order, tour.position
        if not _inplace_ok(order):
            tour.order = order = np.array(order, dtype=np.intp)
        if not _inplace_ok(position):
            tour.position = position = np.array(position, dtype=np.intp)
        nseed, seed_ptr = -1, None
        if dirty is not None:
            seed = np.ascontiguousarray(
                dirty if isinstance(dirty, np.ndarray) else list(dirty),
                dtype=np.int64).reshape(-1)
            nseed = len(seed)
            if nseed and (seed.min() < 0 or seed.max() >= n):
                raise IndexError("dirty city out of range")
            seed_ptr = seed.ctypes.data
        nfixed, fixed_ptr = 0, None
        if fixed:
            keys = np.array(sorted(int(a) * n + int(b) for a, b in fixed),
                            dtype=np.int64)
            nfixed, fixed_ptr = len(keys), keys.ctypes.data
        budget = meter.budget_ops
        io = self.io
        ops0 = meter.ops
        io[0] = ops0
        mat, cand, widths, k, breadth, io_ptr = self._ptrs
        rc = self.lib.lk_optimize(
            n, order.ctypes.data, position.ctypes.data, mat, cand, widths,
            k, breadth, self.max_depth, seed_ptr, nseed, fixed_ptr, nfixed,
            float("inf") if budget is None else float(budget), io_ptr)
        if rc != 0:
            raise MemoryError("compiled LK core could not allocate scratch")
        (ops, delta_len, total, moves, scans, applied, undone, swaps,
         wakeups) = io.tolist()
        meter.tick(ops - ops0)
        tour.length += delta_len
        stats.moves += moves
        stats.candidate_scans += scans
        stats.flips_applied += applied
        stats.flips_undone += undone
        stats.segment_swaps += swaps
        stats.queue_wakeups += wakeups
        return total
