"""Child-process bookkeeping: summed peak RSS and a reaping barrier."""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import time
from typing import Dict, Iterable, List


def _parent_map() -> Dict[int, int]:
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ")".
        fields = stat[stat.rindex(")") + 2 :].split()
        parents[int(entry)] = int(fields[1])
    return parents


def descendants(exclude: Iterable[int] = ()) -> List[int]:
    """Live (not yet reaped) descendants of this process, leaving out
    the subtrees rooted at ``exclude``."""
    parents = _parent_map()
    skip = set(exclude)
    for pid in skip:
        parents.pop(pid, None)
    found: List[int] = []
    frontier = [os.getpid()]
    while frontier:
        pid = frontier.pop()
        children = [child for child, parent in parents.items() if parent == pid]
        found.extend(children)
        frontier.extend(children)
    return found


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(exclude: Iterable[int] = ()) -> float:
    """This process's peak RSS plus that of every live descendant
    outside the subtrees rooted at ``exclude``."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + sum(_peak_kb(pid) for pid in descendants(exclude))) / 1024.0


def reap_children(timeout_s: float = 15.0) -> None:
    """Wait until every descendant has exited; SIGKILL stragglers."""
    deadline = time.monotonic() + timeout_s
    killed = False
    while True:
        multiprocessing.active_children()  # joins finished workers
        alive = [pid for pid in descendants() if not _is_zombie(pid)]
        if not alive:
            break
        if time.monotonic() > deadline:
            if killed:
                break
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)
    for pid in descendants():
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return True
    return stat[stat.rindex(")") + 2 :].split()[0] == "Z"
