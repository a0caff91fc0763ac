"""Warp schedulers: LRR (baseline), GTO, two-level, and the paper's OWF."""

from repro.sched.base import WarpScheduler, make_scheduler, SCHEDULERS
from repro.sched.lrr import LRRScheduler
from repro.sched.gto import GTOScheduler
from repro.sched.two_level import TwoLevelScheduler
from repro.sched.owf import OWFScheduler

__all__ = [
    "WarpScheduler",
    "make_scheduler",
    "SCHEDULERS",
    "LRRScheduler",
    "GTOScheduler",
    "TwoLevelScheduler",
    "OWFScheduler",
]
