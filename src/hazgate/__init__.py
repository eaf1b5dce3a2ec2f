"""Hazard-management toolkit for guarded human-robot workflows.

The package ties together four layers:

* :mod:`hazgate.model` -- a line-oriented DSL for guarded activity-diagram
  process models, plus validation, serialization and graph queries.
* :mod:`hazgate.session` / :mod:`hazgate.executive` -- the session's state
  (confirmation ledger, append-only session log, state snapshot layout) and
  the timed safety executive that runs a process model over it as an
  event-driven state machine with interlocks, protective stops and
  stabilization windows.
* :mod:`hazgate.shard` / :mod:`hazgate.stpa` -- guideword deviation
  worksheets and unsafe-control-action catalogs with requirement
  traceability.
* :mod:`hazgate.simulate` / :mod:`hazgate.campaign` / :mod:`hazgate.reach`
  -- scenario scripting, fault/user-error injection, trace monitors,
  randomized campaigns and a bounded exhaustive reachability oracle.
"""

__version__ = "0.1.0"
