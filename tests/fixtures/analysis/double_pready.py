"""Fixture: pready called twice on the same partition (RequestStateError)."""

NRANKS = 2


def program(ctx):
    comm, main = ctx.comm, ctx.main
    if ctx.rank == 0:
        ps = yield from comm.psend_init(main, 1, 7, 4096, 2)
        yield from ps.start(main)
        yield from ps.pready(main, 0)
        yield from ps.pready(main, 0)  # second ready: the violation
        yield from ps.pready(main, 1)
        yield from ps.wait(main)
        return None
    yield from comm.precv_init(main, 0, 7, 4096, 2)
    return None
