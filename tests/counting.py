"""Count lifted primitives and recorded tapes from outside the engine.

The engine keeps no counters: ``counting()`` wraps the entry points that do
the work, ``WeilSemantics.constant``/``apply`` and ``modes.Tape``, and each
wrapper still calls the real code.  Wrapping adds a per-call cost, so keep
timed code out of the block.
"""
from contextlib import contextmanager
from unittest import mock

from jetweil import jets, modes


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
