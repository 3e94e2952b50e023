"""The one loop that shares blocks of work between the calling thread and,
where the process may use a second CPU, one helper thread.

``experiments._replication_sums`` runs the blocks of replications of a grid
point through it, and ``limitlaw.sample_many`` the chunks of its draw.
Each block writes or returns only its own part of the result, so a result
depends on neither the thread count nor which thread ran which block.
"""

from __future__ import annotations

import os
import threading

# threads that take blocks beside the caller: one when the process may use
# a second CPU
_HELPERS = min(1, (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1) - 1)


def run_blocks(run, blocks, share: bool) -> list:
    """run(block) for every block of the iterator ``blocks`` (none of them
    None), returned in the order the calls end.

    The calling thread and, when ``share``, ``_HELPERS`` helper threads run
    one loop: it takes the next block by ``next(blocks)`` under one lock, so
    a generator may build each block's inputs there in order, and calls
    ``run`` outside it.

    A loop ends when no block is left or a block it runs raises, and no
    loop takes a block once one has raised: the caller, its loop ended,
    waits only for the blocks the helpers hold, then re-raises.
    """
    lock = threading.Lock()
    results, errors = [], []  # what the blocks returned and raised

    def take_blocks():
        try:
            while True:
                with lock:
                    block = None if errors else next(blocks, None)
                    if block is None:
                        return
                results.append(run(block))
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=take_blocks)
               for _ in range(_HELPERS if share else 0)]
    for thread in helpers:
        thread.start()
    take_blocks()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return results
