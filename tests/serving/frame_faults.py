"""A torn-frame injector for the shm ring tests.

:func:`corrupt_next_frame` flips a byte in the next unread frame of a ring
so tests can prove the transport *detects* torn frames
(``ShmRing.try_read`` raises) instead of decoding garbage.
"""

import random
from typing import Optional


def corrupt_next_frame(ring, rng: Optional[random.Random] = None) -> bool:
    """Flip one byte in the next *unread* frame's header.

    Returns False when the ring has no unread frame.  The consumer's next
    ``try_read`` must then raise (bad magic) rather than decode garbage —
    the property the transport tests pin down.
    """
    head = ring._head()
    if ring._tail() - head < 8:
        return False
    rng = rng or random.Random(0)
    # Byte 0..7 of the header is the magic word; flipping any of them
    # guarantees detection.
    offset = 16 + (head + rng.randrange(8)) % ring.capacity
    ring._shm.buf[offset] ^= 0xFF
    return True
