"""How the two decoding engines size their linear systems.

The generator-matrix engine solves for message blocks (k unknowns per
block); the parity-check engine solves for the erased symbols
themselves.  Which one is cheaper depends on the rate: below 1/2 the
message windows are smaller, above 1/2 the erasure windows are.  Both
engines run here on saturated periodic patterns and report the system
dimensions they actually built.
"""

import random

from convec.channel import corrupt, parse_pattern
from convec.codec import gm_decode_forward, pc_decode_forward
from convec.construct import random_code
from convec.polymat import ConvCode, Poly, PolyMatrix, full_size_minors
from convec.stream import ErasureStream


def with_parity(code):
    """Attach a parity check built from the generator: from its entries at
    rate 1/3, and as its signed full-size minors at rate 2/3."""
    fld, G = code.field, code.G
    if code.k == 1:
        g = [G.entry(0, c) for c in range(3)]
        rows = [[g[1], -g[0], Poly.zero(fld)], [g[2], Poly.zero(fld), -g[0]]]
    else:
        minors = full_size_minors(G)
        rows = [[minors[1, 2], -minors[0, 2], minors[0, 1]]]
    d = max(p.degree for row in rows for p in row)
    grids = [[[p.coeff(i).val for p in row] for row in rows] for i in range(d + 1)]
    return ConvCode(code.n, code.k, code.G, PolyMatrix.from_packed(fld, grids))


CASES = [
    ("rate 1/3 (k < n-k)", with_parity(random_code(3, 1, 1, 8, 1, want="mdp")), "4* 2v"),
    ("rate 2/3 (k > n-k)", with_parity(random_code(3, 2, 1, 8, 1, want="mdp")), "1* 2v"),
]

rng = random.Random(0)
for label, code, pattern in CASES:
    fld = code.field
    u = PolyMatrix.from_packed(fld, [[[rng.randrange(8) for _ in range(code.k)]]
                                     for _ in range(20)])
    clean = ErasureStream.from_codeword(code.encode(u))
    noisy = corrupt(clean, parse_pattern(pattern), cyclic=True)
    print(f"{label}, pattern '{pattern}', {noisy.total_erasures} erasures:")
    for name, decode in (("gm", gm_decode_forward), ("pc", pc_decode_forward)):
        rep = decode(code, noisy)
        dims = [w.unknowns for w in rep.windows if w.unknowns]
        print(f"  {name}: {len(dims)} solves, unknowns per solve "
              f"max {max(dims)} mean {sum(dims) / len(dims):.2f}, "
              f"complete={rep.complete}")
    print()
