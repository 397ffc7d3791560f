"""Wall and machine CPU clocks, with nothing heavy to import, so that
``run.py`` can read them the moment it starts."""
import os
from time import perf_counter
from typing import Tuple

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: a moment as (wall seconds, machine CPU seconds)
Stamp = Tuple[float, float]


def machine_cpu_s() -> float:
    """CPU seconds that every process on the machine has run since boot,
    user and system. Idle time and time the hypervisor gave to other
    guests (steal) are not in it, so neighbours that take the host's CPU
    slow the wall clock but leave this clock to the work done."""
    with open("/proc/stat") as f:
        # user nice system idle iowait irq softirq steal ...
        user, nice, system, _, _, irq, softirq = (int(x) for x in f.readline().split()[1:8])
    return (user + nice + system + irq + softirq) / _CLOCK_TICKS


def stamp() -> Stamp:
    return perf_counter(), machine_cpu_s()
