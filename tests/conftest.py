"""Shared fixtures: shared-memory and process hygiene for the runtime.

Every test runs under two leak tripwires:

* any ``SharedArray`` segment still registered after a test means some
  ``MPE.run`` path skipped its cleanup (the acceptance criterion for the
  process executor is that *every* exit path, including injected faults
  and mid-run errors, unlinks its segments);
* any child process of the test session still running after a test —
  a worker pool not closed, a daemon not stopped — is killed and fails
  the test that left it.
"""

import glob
import multiprocessing
import os
import signal
import time

import pytest

from repro.runtime import outstanding_segments

# How long a test's children get to finish exiting before they count as
# left behind (a closed pool's workers may still be on their way out).
_EXIT_GRACE_S = 5.0


@pytest.fixture(autouse=True)
def _no_shared_memory_leaks():
    before = set(outstanding_segments())
    yield
    leaked = [name for name in outstanding_segments() if name not in before]
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def _running_children() -> set[int] | None:
    """Pids of this process's running (not zombie) children, from
    ``/proc/self/task/*/children`` — None where the kernel does not
    list them (not Linux, or built without that file)."""
    paths = glob.glob("/proc/self/task/*/children")
    if not paths:
        return None
    pids: set[int] = set()
    for path in paths:
        try:
            with open(path) as f:
                pids.update(int(pid) for pid in f.read().split())
        except OSError:
            continue  # the thread exited while we looked
    running = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue  # already gone
        if state != "Z":
            running.add(pid)
    return running


def _session_helpers() -> set[int]:
    """Children that outlive tests by design: multiprocessing's resource
    tracker, started on first shared-memory use and kept for the session."""
    from multiprocessing import resource_tracker

    pid = getattr(resource_tracker._resource_tracker, "_pid", None)
    return {pid} if pid else set()


@pytest.fixture(autouse=True)
def _no_process_left_behind():
    # Children alive before the test (a wider-scoped fixture's) are not
    # this test's to stop.
    before = {child.pid for child in multiprocessing.active_children()}
    before |= _running_children() or set()
    yield
    survivors: set[int] = set()
    try:
        deadline = time.monotonic() + _EXIT_GRACE_S
        for child in multiprocessing.active_children():
            if child.pid not in before:
                child.join(max(0.0, deadline - time.monotonic()))
        while True:
            survivors = {child.pid for child in multiprocessing.active_children()}
            survivors |= _running_children() or set()
            survivors -= before | _session_helpers()
            if not survivors or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        assert not survivors, f"child processes left running: {sorted(survivors)}"
    finally:
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        multiprocessing.active_children()  # reap what was killed
