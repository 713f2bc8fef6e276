"""Where the helper process runs: pinned to one CPU where the system allows
it, and never in the bits."""

import json
import mmap
import os

from fedrf import datafile, helper

REAL_AFFINITY = os.sched_getaffinity
UNUSABLE_CPU = 1 << 16  # past the CPU mask of the kernel


def helper_affinity():
    """The CPU affinity that the helper of one ``helper.tasks`` stage runs with."""
    with mmap.mmap(-1, 1 << 16) as seen:

        def work(task, t, record):
            if record:
                text = json.dumps(sorted(REAL_AFFINITY(0))).encode()
                seen[:len(text)] = text

        with helper.tasks(work, (False,), (True,), True, "test", "stage {}") as run:
            run(b"\0", 0)
        return set(json.loads(seen[:].rstrip(b"\0")))


def test_helper_runs_on_the_last_cpu_of_the_affinity():
    before = REAL_AFFINITY(0)
    assert helper_affinity() == {max(before)}
    assert REAL_AFFINITY(0) == before


def test_unusable_cpu_leaves_the_helper_unpinned_with_the_same_bits(monkeypatch):
    before = REAL_AFFINITY(0)
    fork, forks = os.fork, []

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = datafile.generate_dataset(4, 3, 16, 10.0, 5)
    assert not forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, UNUSABLE_CPU})
    assert helper_affinity() == before
    forks.clear()
    two = datafile.generate_dataset(4, 3, 16, 10.0, 5)
    assert len(forks) == 1
    assert two.iq.tobytes() == one.iq.tobytes()
    assert two.labels.tobytes() == one.labels.tobytes()
    assert REAL_AFFINITY(0) == before
