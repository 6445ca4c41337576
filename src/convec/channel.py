"""Erasure-channel simulation.

Three ways to say which symbols get dropped:

* run-length patterns like ``"20* 42v 14* 8v"``, star for an erased
  component and v for a correctly received one;
* i.i.d. symbol erasures, ``"iid 0.25 seed=7"`` (the probability may
  also come first), drawn from Python's ``random.Random`` (Mersenne
  Twister) seeded directly with the seed;
* an explicit mask in the stream text format where only the ``?``
  marks matter and every other entry is ignored.

Patterns address symbols.  ``block_level=True`` makes each pattern unit
cover a whole n-symbol block instead.  Corruption only ever replaces
entries with the erasure mark; values are never altered, so applying
the same mask twice is the same as applying it once.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field as dc_field

from .errors import LengthMismatch, ParseError
from .stream import ErasureStream

_RUN = re.compile(r"^(\d+)([*v])$")


@dataclass(frozen=True)
class PatternSpec:
    kind: str  # "runs" | "iid" | "mask"
    runs: tuple[tuple[int, bool], ...] = ()  # (count, erased), applied in order
    prob: float = 0.0
    seed: int | None = None
    mask: tuple[bool, ...] = dc_field(default=())

    def __post_init__(self):
        if self.kind not in ("runs", "iid", "mask"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.kind == "runs" and not self.runs:
            raise ValueError("empty run list")
        if self.kind == "mask" and not self.mask:
            raise ValueError("empty mask")
        for count, _ in self.runs:
            if count < 1:
                raise ValueError("run counts must be positive")
        if self.kind == "iid":
            if not 0.0 <= self.prob <= 1.0:
                raise ValueError("erasure probability outside [0, 1]")
            if self.seed is None:
                raise ValueError("stochastic patterns need a seed")

    @property
    def length(self) -> int | None:
        """Number of addressed units, or None for the i.i.d. mode."""
        if self.kind == "runs":
            return sum(count for count, _ in self.runs)
        if self.kind == "mask":
            return len(self.mask)
        return None

    def flags(self, total: int, cyclic: bool = False,
              rng: random.Random | None = None) -> list[bool]:
        """Erased flags for `total` units; deterministic patterns shorter
        than the target leave the tail untouched unless cyclic."""
        if self.kind == "iid":
            assert rng is not None
            return [rng.random() < self.prob for _ in range(total)]
        base = list(self.mask) if self.kind == "mask" else [
            erased for count, erased in self.runs for _ in range(count)]
        if cyclic:
            reps = -(-total // len(base))
            return (base * reps)[:total]
        return (base + [False] * (total - len(base)))[:total]


def parse_pattern(text: str) -> PatternSpec:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty pattern")
    if "iid" in tokens[:2]:
        return _parse_iid(tokens)
    if tokens[0] == "mask":
        if len(tokens) != 2:
            raise ParseError("mask patterns take exactly one file name")
        return mask_pattern(_load_mask(tokens[1]))
    runs = []
    for pos, tok in enumerate(tokens, 1):
        m = _RUN.match(tok)
        if m is None:
            raise ParseError(f"token {pos}: {tok!r} is not a run like '20*' or '8v'")
        count = int(m.group(1))
        if count < 1:
            raise ParseError(f"token {pos}: run count must be positive")
        runs.append((count, m.group(2) == "*"))
    return PatternSpec(kind="runs", runs=tuple(runs))


def _parse_iid(tokens) -> PatternSpec:
    # "iid 0.25 seed=7" and "0.25 iid seed=7" both appear in the wild
    head = [t for t in tokens[:2] if t != "iid"]
    if len(head) != 1 or len(tokens) != 3:
        raise ParseError("i.i.d. patterns look like 'iid <prob> seed=<int>'")
    try:
        prob = float(head[0])
    except ValueError:
        raise ParseError(f"bad probability {head[0]!r}") from None
    if not 0.0 <= prob <= 1.0:
        raise ParseError(f"probability {prob} outside [0, 1]")
    if not tokens[2].startswith("seed="):
        raise ParseError("stochastic patterns need 'seed=<int>'")
    try:
        seed = int(tokens[2][5:])
    except ValueError:
        raise ParseError(f"bad seed {tokens[2][5:]!r}") from None
    return PatternSpec(kind="iid", prob=prob, seed=seed)


def _load_mask(path: str) -> ErasureStream:
    try:
        with open(path) as fh:
            return ErasureStream.from_text(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read mask file {path!r}: {exc}") from None


def mask_pattern(stream: ErasureStream) -> PatternSpec:
    """Pattern erasing exactly the symbols erased in `stream`."""
    flat = tuple(sym is None for block in stream.blocks for sym in block)
    return PatternSpec(kind="mask", mask=flat)


def corrupt(stream: ErasureStream, pattern: PatternSpec, seed: int | None = None,
            cyclic: bool = False, block_level: bool = False) -> ErasureStream:
    """Fresh stream with the pattern's erasures layered on top.

    `seed` overrides the pattern's own seed for the i.i.d. mode.  A
    deterministic pattern longer than the stream is a mistake unless it
    is meant to repeat.
    """
    n = stream.n
    total = len(stream) if block_level else stream.symbol_count
    if pattern.kind != "iid" and not cyclic and pattern.length > total:
        raise LengthMismatch(
            f"pattern covers {pattern.length} units, stream has {total}")
    rng = None
    if pattern.kind == "iid":
        use = pattern.seed if seed is None else seed
        rng = random.Random(use)
    flags = pattern.flags(total, cyclic=cyclic, rng=rng)
    out = stream.copy()
    for idx, erased in enumerate(flags):
        if not erased:
            continue
        if block_level:
            out.blocks[idx] = [None] * n
        else:
            out.blocks[idx // n][idx % n] = None
    return out


def window_stats(stream: ErasureStream, window_len: int) -> list[int]:
    """Erasure count of every length-`window_len` symbol window, one per
    start offset.  Windows that do not fit yield an empty list."""
    if window_len < 1:
        raise ValueError("window length must be positive")
    flat = [sym is None for block in stream.blocks for sym in block]
    if window_len > len(flat):
        return []
    count = sum(flat[:window_len])
    out = [count]
    for off in range(1, len(flat) - window_len + 1):
        count += flat[off + window_len - 1] - flat[off - 1]
        out.append(count)
    return out
