"""One pinned digest over many decode reports of both engines.

Every code of the golden decode corpus encodes a seeded random message of
24 blocks, and each stream is erased twice: i.i.d. at about 15%, and with a
dense four-block burst that forces guard attempts.  Both engines decode
every stream with guard on and off; the sha256 over the canonical JSON of
all reports must equal DIGEST.  A refactor that claims byte-identical
reports recomputes this at its parent before any library edit:

    PYTHONPATH=src python tests/test_report_digest.py
"""

from __future__ import annotations

import hashlib
import json
import random

from convec.codec import gm_decode_forward, pc_decode_forward
from convec.polymat import PolyMatrix
from convec.stream import ErasureStream
from test_golden_decode import codes

DIGEST = "3004c03817b6b1163ecfbbb306b402bc4e40e6f0547f91817823e65f68e804e4"
BLOCKS = 24
MASKS = {
    "iid": lambda t: 0.15,
    "burst": lambda t: 0.9 if 10 <= t < 14 else 0.05,
}


def _streams():
    for seed, (name, code) in enumerate(sorted(codes().items())):
        rng = random.Random(1000 + seed)
        fld = code.field
        u = PolyMatrix.from_packed(fld, [[[rng.randrange(fld.q) for _ in range(code.k)]]
                                         for _ in range(BLOCKS)])
        clean = ErasureStream.from_codeword(code.encode(u))
        for rate in MASKS.values():
            s = clean.copy()
            for t, blk in enumerate(s.blocks):
                for pos in range(code.n):
                    if rng.random() < rate(t):
                        blk[pos] = None
            yield code, s


def digest() -> str:
    h = hashlib.sha256()
    for code, s in _streams():
        for decode in (gm_decode_forward, pc_decode_forward):
            for guard in (True, False):
                rep = decode(code, s, guard=guard)
                h.update(json.dumps(rep.to_json(), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_reports_match_pinned_digest():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
