"""Deterministic fault injection for chaos-testing the discovery pipeline.

The subsystem has one import rule: nothing in here imports the layers it
faults (artifacts, serve, lake), so a :class:`~repro.faults.plan.FaultPlan`
can be threaded into any of them without a cycle.  The artifact layer's
:class:`~repro.artifacts.transport.FaultyTransport` and the serve daemon's
``ServeConfig.fault_plan`` are the two wired-in injection surfaces; both
are no-ops unless a plan is supplied.
"""
