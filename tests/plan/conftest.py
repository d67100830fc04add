"""Leak guard for the serving tests.

Every test here must leave the process as it found it: no new non-daemon
threads, listening TCP sockets or child processes.  Servers, services and
clients started by a test are closed by that test, so one test's batcher
or listener can never answer (or block) the next one.  Resources get a
short grace period to wind down before a leak is reported.  The checks
read ``/proc`` and are skipped on platforms without it.
"""

import os
import threading
import time

import pytest

_GRACE_S = 2.0


def _threads():
    main = threading.main_thread()
    return {
        "thread %r" % t.name
        for t in threading.enumerate()
        if t is not main and t.is_alive() and not t.daemon
    }


def _listening_sockets():
    """Listening TCP sockets held by this process, as ``port N`` labels."""
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return set()
    inodes = set()
    for fd in fds:
        try:
            target = os.readlink("/proc/self/fd/" + fd)
        except OSError:
            continue  # closed while listing
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    found = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as fh:
                rows = fh.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if cols[3] == "0A" and cols[9] in inodes:  # 0A: TCP_LISTEN
                port = int(cols[1].rsplit(":", 1)[1], 16)
                found.add("listening socket on port %d (inode %s)" % (port, cols[9]))
    return found


def _children():
    """Child processes of any thread of this process, zombies included."""
    found = set()
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return found
    for tid in tids:
        try:
            with open("/proc/self/task/%s/children" % tid) as fh:
                found.update("child process %s" % pid for pid in fh.read().split())
        except OSError:
            continue
    return found


def _resources():
    return _threads() | _listening_sockets() | _children()


@pytest.fixture(autouse=True)
def no_leaked_resources():
    before = _resources()
    yield
    deadline = time.monotonic() + _GRACE_S
    leaked = _resources() - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.02)
        leaked = _resources() - before
    if leaked:
        pytest.fail("test leaked: " + ", ".join(sorted(leaked)))
