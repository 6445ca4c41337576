"""Decoding a catastrophic code, which only the generator engine can do.

G = (1 + z, 1 + 2z^2) over GF(3): both entries vanish at z = 2, so 1 + z
divides them and the code is catastrophic.  A code has a polynomial parity
check exactly when it is non-catastrophic, so there is none to supply and
the parity-check decoder refuses the stream, while the generator-matrix
decoder solves its windows from G alone.
"""

from convec import field
from convec.codec import gm_decode_forward, pc_decode_forward
from convec.errors import NoParityCheck
from convec.polymat import ConvCode, PolyMatrix
from convec.stream import ErasureStream

fld = field(3)
code = ConvCode(2, 1, PolyMatrix.from_packed(fld, [[[1, 1]], [[1, 0]], [[0, 2]]]))
print(f"G(z) = (1 + z, 1 + 2z^2) over GF(3), delta = {code.delta}")
print(f"non-catastrophic: {code.flags.noncatastrophic_certified}")

u = PolyMatrix.from_packed(fld, [[[c]] for c in (1, 2, 0, 1, 1, 2, 2, 0, 1, 2)])
stream = ErasureStream.from_codeword(code.encode(u))
mask = [(1,), (), (1, 2), (), (), (2,), (), (1,), (1, 2), (), (), ()]
for t, positions in enumerate(mask):
    for p in positions:
        stream.blocks[t][p - 1] = None
print(f"\n{stream.total_erasures} erasures over {len(stream)} blocks:")
print("  " + " | ".join(" ".join("?" if e is None else e.to_hex() for e in b)
                        for b in stream.blocks))

report = gm_decode_forward(code, stream)
print(f"\ngm: {len(report.windows)} windows, lost intervals {report.lost_intervals}")
print("  recovered u_t: " + " ".join(
    report.recovered_message[t][0].to_hex() for t in sorted(report.recovered_message)))
assert report.complete and report.message() == u
print("  every message block recovered exactly")

try:
    pc_decode_forward(code, stream)
except NoParityCheck as exc:
    print(f"\npc: refused with NoParityCheck ({exc})")
