"""Baseline join algorithms the paper compares CLFTJ against.

* :mod:`repro.baselines.yannakakis` -- YTD: Yannakakis's acyclic-join
  algorithm over a tree decomposition (the DunceCap / EmptyHeaded approach),
  with every bag joined by LFTJ over the database's shared tries.
* :mod:`repro.baselines.binary_join` -- a pairwise hash-join engine with a
  greedy cost-based join-order optimiser, standing in for the PostgreSQL
  baseline of Section 5.3.5.
"""

from repro.baselines.yannakakis import YannakakisTreeJoin
from repro.baselines.binary_join import PairwiseHashJoin

__all__ = ["PairwiseHashJoin", "YannakakisTreeJoin"]
