"""The helper process: one forked process that does half of a stage's work.

``tasks`` runs one share of the work in the calling process and the other, at
the same time, in a helper forked for the stage when the CPU affinity holds
two CPUs (``two_cpus``). The helper runs pinned to the last CPU of the
affinity where the system allows it, so the scheduler cannot keep it on the
caller's CPU; its results do not depend on where it runs. It writes them into
anonymous shared mappings made before the fork. ``datafile.generate_dataset``
and ``federation.run_training`` use it.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
from typing import Callable, NoReturn


def two_cpus() -> bool:
    """Whether this process's CPU affinity holds at least two CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) >= 2


def _serve(work: Callable[[bytes, int], None], commands: int, replies: int) -> NoReturn:
    """The helper process: run ``work(task, t)`` for each command read from
    ``commands`` (a task byte and t as 8 bytes) until the pipe closes, and
    answer each with an empty line on ``replies``; an exception is answered
    with one line naming it, and the process ends. It never returns into its
    caller's stack, writes nothing to stdout or stderr and ignores SIGINT,
    which the parent handles for both. It pins itself to the last CPU of its
    affinity, and runs unpinned where the system cannot pin it.
    """
    status = 1
    try:
        with contextlib.suppress(AttributeError, OSError):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        sys.stdout = sys.stderr = open(os.devnull, "w")
        os.dup2(sys.stdout.fileno(), 1)
        os.dup2(sys.stdout.fileno(), 2)
        while command := os.read(commands, 9):
            work(command[:1], int.from_bytes(command[1:], "little"))
            os.write(replies, b"\n")
        status = 0
    except Exception as exc:  # noqa: BLE001 - the parent raises it as one line
        os.write(replies, " ".join(f"{type(exc).__name__}: {exc}".split()).encode() + b"\n")
    finally:
        os._exit(status)


@contextlib.contextmanager
def tasks(work: Callable[..., None], mine: tuple, theirs: tuple, fork: bool, name: str,
          stage: str):
    """Yield ``run(task, t)``, which calls ``work(task, t, *mine)`` here and,
    with ``fork``, ``work(task, t, *theirs)`` at the same time in a forked
    helper process, and returns when both are done. A helper that cannot be
    started, fails or has ended makes this raise a one-line RuntimeError
    naming the ``name`` helper and the ``stage`` of t (formatted with t + 1).
    On leaving, the helper's command pipe is closed and the process reaped,
    after an exception killed first, so no helper outlives the block.
    """
    if not fork:
        yield lambda task, t: work(task, t, *mine)
        return
    commands, command_end = os.pipe()
    reply_end, replies = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        for fd in (commands, command_end, reply_end, replies):
            os.close(fd)
        raise RuntimeError(f"cannot start the {name} helper process: {exc}") from None
    if pid == 0:
        os.close(command_end)
        os.close(reply_end)
        _serve(lambda task, t: work(task, t, *theirs), commands, replies)
    os.close(commands)
    os.close(replies)
    reader = os.fdopen(reply_end, "rb")

    def run(task: bytes, t: int) -> None:
        ended = RuntimeError(f"{name} helper process ended during {stage.format(t + 1)}")
        try:
            os.write(command_end, task + t.to_bytes(8, "little"))
        except BrokenPipeError:
            raise ended from None
        work(task, t, *mine)
        reply = reader.readline()
        if reply == b"":
            raise ended
        if reply != b"\n":
            raise RuntimeError(
                f"{name} helper failed in {stage.format(t + 1)}: {reply.decode().strip()}")

    try:
        yield run
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(command_end)
        reader.close()
        os.waitpid(pid, 0)
