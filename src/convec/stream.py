"""Received-word streams: blocks of field symbols with symbol-level erasures.

The text format is line oriented: a header "#n=<n> field=<ref> deg=<d|unknown>"
followed by one line per time instant holding n whitespace-separated tokens,
each a hex field element or "?" for an erasure.  n >= 1 and d >= -1 are in
plain decimal, as to_text writes them; nothing else loads.
"""

from __future__ import annotations

from .errors import LengthMismatch, ParseError
from .gf import Field, field_from_ref
from .polymat import PolyMatrix


class ErasureStream:
    """Time-indexed length-n blocks; None marks an erased symbol."""

    __slots__ = ("field", "n", "blocks", "origin_degree")

    def __init__(self, fld: Field, n: int, blocks, origin_degree: int | None = None):
        if n < 1:
            raise ValueError("block length must be positive")
        clean = []
        for t, block in enumerate(blocks):
            row = list(block)
            if len(row) != n:
                raise LengthMismatch(f"block {t} has {len(row)} symbols, expected {n}")
            for e in row:
                if e is not None and e.field != fld:
                    raise ParseError(f"block {t} holds a symbol from another field")
            clean.append(row)
        self.field = fld
        self.n = n
        self.blocks = clean
        self.origin_degree = origin_degree

    @classmethod
    def from_codeword(cls, v: PolyMatrix):
        """v's complete stream; the zero codeword's origin degree is -1."""
        if v.nrows != 1:
            raise LengthMismatch("expected a 1 x n codeword vector")
        blocks = [list(v.coeff(i).data[0]) for i in range(max(v.degree, 0) + 1)]
        return cls(v.field, v.ncols, blocks, v.degree)

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ErasureStream)
                and self.field == other.field and self.n == other.n
                and self.origin_degree == other.origin_degree
                and self.blocks == other.blocks)

    def copy(self) -> "ErasureStream":
        return ErasureStream(self.field, self.n,
                             [list(b) for b in self.blocks], self.origin_degree)

    @property
    def symbol_count(self) -> int:
        return len(self.blocks) * self.n

    def erased_positions(self, t: int) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.blocks[t]) if e is None)

    def window_erasures(self, t: int, j: int) -> int:
        """Erasures in blocks t .. t+j; indices beyond the stream are skipped."""
        hi = min(t + j + 1, len(self.blocks))
        return sum(1 for s in range(max(t, 0), hi)
                   for e in self.blocks[s] if e is None)

    @property
    def total_erasures(self) -> int:
        return self.window_erasures(0, len(self.blocks) - 1)

    @property
    def is_complete(self) -> bool:
        return self.total_erasures == 0

    def to_poly(self) -> PolyMatrix:
        if not self.is_complete:
            raise ParseError("stream still has erasures")
        return PolyMatrix.from_packed(
            self.field, [[[e.val for e in b]] for b in self.blocks])

    # -- text round trip -----------------------------------------------------

    def to_text(self) -> str:
        deg = "unknown" if self.origin_degree is None else str(self.origin_degree)
        lines = [f"#n={self.n} field={self.field.ref()} deg={deg}"]
        for block in self.blocks:
            lines.append(" ".join("?" if e is None else e.to_hex() for e in block))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ErasureStream":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines or not lines[0].startswith("#"):
            raise ParseError("missing stream header line")
        fields = _header_fields(lines[0])
        for key in ("n", "field", "deg"):
            if key not in fields:
                raise ParseError(f"header lacks {key}=")
        n = _header_int(fields["n"], "block length", 1)
        fld = field_from_ref(fields["field"])
        deg = None if fields["deg"] == "unknown" else _header_int(
            fields["deg"], "origin degree", -1)
        blocks = []
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != n:
                raise LengthMismatch(
                    f"line {len(blocks) + 2}: {len(toks)} tokens, expected {n}")
            row = []
            for t in toks:
                if t == "?":
                    row.append(None)
                    continue
                try:
                    row.append(fld.from_hex(t))
                except ValueError:
                    raise ParseError(
                        f"line {len(blocks) + 2}: bad symbol {t!r}") from None
            blocks.append(row)
        return cls(fld, n, blocks, deg)


def _header_fields(line: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for tok in line.lstrip("#").split():
        if "=" not in tok:
            raise ParseError(f"malformed header token {tok!r}")
        key, val = tok.split("=", 1)
        if key in fields:
            raise ParseError(f"repeated header key {key}=")
        fields[key] = val
    return fields


def _header_int(tok: str, what: str, least: int) -> int:
    """tok if it is how to_text writes an integer of at least `least`."""
    try:
        v = int(tok)
        if v >= least and tok == str(v):
            return v
    except ValueError:
        pass
    raise ParseError(f"bad {what} {tok!r}")
