"""Fixture: a send-buffer write annotated on a partition out of range.

``note_buffer_write`` raises ``PartitionError``, the same error an
out-of-range ``pready`` raises.
"""

NRANKS = 2


def program(ctx):
    comm, main = ctx.comm, ctx.main
    if ctx.rank == 0:
        ps = yield from comm.psend_init(main, 1, 7, 4096, 2)
        yield from ps.start(main)
        ps.note_buffer_write(2)  # declared 2 partitions
        yield from ps.pready_range(main, 0, 1)
        yield from ps.wait(main)
        return None
    pr = yield from comm.precv_init(main, 0, 7, 4096, 2)
    yield from pr.start(main)
    yield from pr.wait(main)
    return None
