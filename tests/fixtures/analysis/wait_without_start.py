"""Fixture: wait() on a request that was never started (RequestStateError)."""

NRANKS = 2


def program(ctx):
    comm, main = ctx.comm, ctx.main
    if ctx.rank == 0:
        ps = yield from comm.psend_init(main, 1, 7, 4096, 2)
        yield from ps.wait(main)  # no start() before this wait
        return None
    yield from comm.precv_init(main, 0, 7, 4096, 2)
    return None
