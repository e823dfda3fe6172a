"""Fresh child processes on this checkout, each bounded so that a lost size
limit or a hang fails in the child rather than in the test process."""

import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _limit():
    """Cap the address space at 1 GiB and the CPU time at 20 s (never above
    an existing hard limit)."""
    for res, cap in ((resource.RLIMIT_AS, 1 << 30), (resource.RLIMIT_CPU, 20)):
        hard = resource.getrlimit(res)[1]
        cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
        resource.setrlimit(res, (cap, cap))


def run_child(argv, *, env=None, text=True, **kwargs) -> subprocess.CompletedProcess:
    """``argv`` run to completion with its output captured and this
    checkout's ``src`` as its only ``PYTHONPATH``.  ``env`` adds to this
    process's environment.  One BLAS thread: OpenBLAS maps a buffer per
    thread when numpy loads, which on a many-core machine alone could pass
    the 1 GiB cap."""
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1", **(env or {})}
    return subprocess.run(argv, capture_output=True, text=text, env=env, preexec_fn=_limit,
                          timeout=120, **kwargs)


def run_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """This interpreter run with ``args`` in a child, as :func:`run_child`."""
    return run_child([sys.executable, *args], **kwargs)


def run_cli(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m debias.cli`` with ``argv`` in a child, as :func:`run_child`."""
    return run_python("-m", "debias.cli", *argv, **kwargs)
