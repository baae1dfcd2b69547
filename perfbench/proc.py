"""Run one CLI invocation as a child process and account for it alone.

``os.wait4`` returns the child's own resource usage, so every invocation
gets its own CPU time and peak RSS.  ``RUSAGE_CHILDREN`` would not do: it
accumulates over every child this process ever reaped, and its max RSS is a
running maximum across all of them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass


@dataclass
class Invocation:
    stage: str
    argv: list
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def cli_env(src_dir):
    """The caller's environment with the checkout's sources first on the path."""
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + prior if prior else "")
    return env


def run_cli(stage, args, env, cwd):
    """Run ``python -m hhtmotion.cli <args>`` in ``cwd`` and wait for it.

    Never raises on a failed invocation; its exit code and stderr are
    returned.  The child's output is buffered in unnamed files in ``cwd``.
    """
    argv = [sys.executable, "-m", "hhtmotion.cli"] + list(args)
    with tempfile.TemporaryFile("w+", dir=cwd) as out, tempfile.TemporaryFile("w+", dir=cwd) as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                 env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(
            stage=stage,
            argv=list(args),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            max_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=child.returncode,
            stdout=out.read(),
            stderr=err.read(),
        )
