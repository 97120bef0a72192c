"""Word-oriented AES-128 key expansion straight from the standard.

This is the reference path: keys are byte strings, words are 4-tuples of
byte values, and the expansion follows the w[i] recurrence with its own
Rcon table.  It shares nothing with the operator model in ``keyschedule``
except the SubBytes table, so the two can cross-check each other.
"""

from __future__ import annotations

from .keyschedule import AES_SBOX

_S = AES_SBOX.table()

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

Word = tuple[int, int, int, int]


def expand_key_words(key: bytes) -> list[Word]:
    """The 44 words w[0..43] of the AES-128 expanded key."""
    if len(key) != 16:
        raise ValueError("AES-128 key must be 16 bytes")
    w: list[Word] = [tuple(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        t0, t1, t2, t3 = w[i - 1]
        if i % 4 == 0:
            # SubWord(RotWord(w[i-1])) xor Rcon[i/4]
            t0, t1, t2, t3 = (
                _S[t1] ^ RCON[i // 4 - 1],
                _S[t2],
                _S[t3],
                _S[t0],
            )
        p0, p1, p2, p3 = w[i - 4]
        w.append((p0 ^ t0, p1 ^ t1, p2 ^ t2, p3 ^ t3))
    return w


def round_keys(key: bytes) -> list[tuple[Word, Word, Word, Word]]:
    """Round keys 0..10, each as four FIPS words."""
    w = expand_key_words(key)
    return [tuple(w[4 * r : 4 * r + 4]) for r in range(11)]
