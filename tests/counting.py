"""Count lifted primitives, recorded tapes and rule calls from outside the
engine.

The engine keeps no counters: ``counting()`` wraps the entry points that do
the work, ``WeilSemantics.constant``/``apply`` and ``modes.Tape``, and
``rule_calls()`` wraps every rule of ``slp.PRIMITIVES``; each wrapper still
calls the real code.  Wrapping adds a per-call cost, so keep timed code out
of the block.
"""
import dataclasses
from contextlib import contextmanager
from unittest import mock

from jetweil import jets, modes, slp


@contextmanager
def counting():
    """Yield a snapshot function: it returns the lifted primitives and the
    tapes built so far inside the block."""
    sem = jets.WeilSemantics
    with mock.patch.object(sem, "constant", autospec=True,
                           side_effect=sem.constant) as constant, \
            mock.patch.object(sem, "apply", autospec=True,
                              side_effect=sem.apply) as apply, \
            mock.patch.object(modes, "Tape", wraps=modes.Tape) as tape:
        yield lambda: {
            "lifted_primitives": constant.call_count + apply.call_count,
            "tape_allocations": tape.call_count,
        }


@contextmanager
def rule_calls():
    """Yield a snapshot function: it returns the calls made so far inside
    the block to each rule field (``value``, ``linear``, ``kappa``), summed
    over the primitives."""
    fields = ("value", "linear", "kappa")
    wrapped = {
        kind: dataclasses.replace(rule, **{
            f: mock.Mock(wraps=getattr(rule, f)) for f in fields})
        for kind, rule in slp.PRIMITIVES.items()}
    with mock.patch.dict(slp.PRIMITIVES, wrapped):
        yield lambda: {f: sum(getattr(r, f).call_count
                              for r in wrapped.values()) for f in fields}
