"""Fixture: an epoch whose partition 1 is never readied.

Neither ``wait()`` can complete, so ``Cluster.run`` raises
``DeadlockError`` ("programs never completed").
"""

NRANKS = 2


def program(ctx):
    comm, main = ctx.comm, ctx.main
    if ctx.rank == 0:
        ps = yield from comm.psend_init(main, 1, 7, 4096, 2)
        yield from ps.start(main)
        yield from ps.pready(main, 0)  # partition 1 never readied
        yield from ps.wait(main)
        return None
    pr = yield from comm.precv_init(main, 0, 7, 4096, 2)
    yield from pr.start(main)
    yield from pr.wait(main)
    return None
