"""Fixture: pready on a partition index out of range (PartitionError)."""

NRANKS = 2


def program(ctx):
    comm, main = ctx.comm, ctx.main
    if ctx.rank == 0:
        ps = yield from comm.psend_init(main, 1, 7, 4096, 2)
        yield from ps.start(main)
        yield from ps.pready(main, 5)  # declared 2 partitions
        yield from ps.wait(main)
        return None
    yield from comm.precv_init(main, 0, 7, 4096, 2)
    return None
