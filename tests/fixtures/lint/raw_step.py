"""R011 fixture: a step generator yielding raw requests outside repro/sim."""

from repro.sim.process import BLOCK, TURN, Step


def bad_steps(proc, box, flows, nics):
    yield TURN                                         # finding: R011
    box.deposit(proc)
    yield Step.BLOCK                                   # finding: R011
    yield BLOCK                                        # finding: R011


def good_steps(proc, box, flows, nics):
    msg = yield from box.recv_steps(proc)
    yield from proc.checkpoint_steps()
    done = yield from flows.transfer_steps(proc, nics, 1 << 20)
    return msg, done


def reviewed_steps(proc):
    yield TURN  # reprolint: disable=raw-park


def unrelated(items):
    for item in items:
        yield item
