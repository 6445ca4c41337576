"""The three convec benchmark workloads: inputs, operations and checks.

stream   GF(16) (binary kernel), (3,1,2) MDP code, i.i.d. erasures at a rate
         both engines survive.  Forward window solves for gm; for pc the
         syndrome windows plus extract_message, one solve over the whole
         stream.
burst    GF(27) (general kernel), same code shape, Gilbert-Elliott bursts
         past forward capacity in every stream.  The guard scan does the
         work and extract_message never runs, so linalg serves many small
         failing solves instead of a few large ones.
certify  build_complete_mdp(3, 2, 2, 2) from a cold field cache, which
         builds GF(2^769), then verify_complete_jmdp_via_g at j = L = 3.
         Large binary-field kernels do the work; nothing is decoded.

Every workload draws its inputs from the benchmark seed; the program only
ever sees the generated code, stream texts and parameters.  Each operation
goes through the path the command line takes, and every output is checked
against the clean data the generator kept aside.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass, field

from convec import channel, codec, construct, distance, gf, polymat, sliding
from convec.channel import PatternSpec
from convec.polymat import ConvCode, Poly, PolyMatrix
from convec.stream import ErasureStream

# random_code's search seed.  It is fixed, so every benchmark seed decodes the
# same code and seeds vary only the messages and the channel.
CODE_SEED = 0
ENGINES = ("gm", "pc")
WORKLOADS = ("stream", "burst", "certify")
# (message blocks per stream, streams per pass)
STREAM_SIZE = (100, 6)
BURST_SIZE = (30, 80)
# the stream workload's erasure rate: a window of L+1 = 4 blocks holds 12
# symbols and absorbs 8 erasures, which 10% i.i.d. erasures essentially never
# exceed, so both engines complete every stream
IID_RATE = 0.10
# (p_good_to_bad, p_bad_to_good, erasure prob in good, erasure prob in bad)
GE_PARAMS = (0.01, 0.12, 0.1, 1.0)
# a run of (L+2)n = 15 erased symbols covers four whole blocks, more than any
# forward window up to delay L = 3 can recover
GE_MIN_RUN = 15
GE_MAX_RUN = 21


def cold_field_cache():
    """Forget every field built so far, so the next field(p, m) is cold."""
    cache = getattr(gf, "_cached_field", None)
    if cache is not None:
        cache.cache_clear()


def with_parity(code: ConvCode) -> ConvCode:
    """Attach the parity check of a rate-1/3 code, built from the generator
    entries as in demos/bench_dimensions.py."""
    fld, G = code.field, code.G
    g = [Poly(fld, [G.coeff(i).data[0][c] for i in range(G.degree + 1)])
         for c in range(3)]
    zero = Poly.zero(fld)
    rows = [[g[1], -g[0], zero], [g[2], zero, -g[0]]]
    d = max(p.degree for row in rows for p in row)
    grids = [[[p.coeff(i).val for p in row] for row in rows] for i in range(d + 1)]
    return ConvCode(code.n, code.k, G, PolyMatrix.from_packed(fld, grids))


def gilbert_elliott(rng: random.Random, total: int, p_gb: float, p_bg: float,
                    e_good: float, e_bad: float) -> list[bool]:
    """Erasure flags from a two-state Markov channel, one step per symbol."""
    bad = False
    out = []
    for _ in range(total):
        out.append(rng.random() < (e_bad if bad else e_good))
        bad = rng.random() >= p_bg if bad else rng.random() < p_gb
    return out


def erased_runs(flags) -> list[int]:
    """Lengths of the maximal runs of erased symbols."""
    runs, run = [], 0
    for f in list(flags) + [False]:
        if f:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    return runs


def ratio(a, b) -> float:
    """a / b, or 0.0 when failed operations left nothing to divide by."""
    return a / b if b else 0.0


@dataclass
class PassResult:
    """One pass over a workload's inputs."""

    seconds: dict[str, float]      # timed path -> reference-speed seconds
    raw: dict[str, float]          # timed path -> wall seconds
    outputs: list[str]             # canonical outputs, for repeat checks
    problems: list[str]            # failed checks and exceptions
    attempted: int                 # operations run
    failed: int                    # operations with a problem
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# stream and burst: decoding through the command-line path
# ---------------------------------------------------------------------------

@dataclass
class StreamCase:
    text: str                      # the noisy stream, as the program reads it
    clean: list[list[int]]         # clean codeword symbol values per block
    message: list[int]             # seeded message symbols u_0 .. u_{T-1}


@dataclass
class DecodeInputs:
    code: ConvCode
    cases: list[StreamCase]


def decode(code: ConvCode, text: str, engine: str):
    """What `convec decode` does with a loaded code: parse, decode, report."""
    stream = ErasureStream.from_text(text)
    rep = getattr(codec, f"{engine}_decode_forward")(code, stream)
    return rep, json.dumps(rep.to_json(), sort_keys=True)


def check_report(case: StreamCase, rep, want_lost: bool) -> list[str]:
    """Compare a decode report against the clean data; [] when correct."""
    bad = []
    blocks = rep.corrected.blocks
    if len(blocks) != len(case.clean):
        return [f"{len(blocks)} blocks out, {len(case.clean)} in"]
    for t, (got, want) in enumerate(zip(blocks, case.clean)):
        for pos, (g, w) in enumerate(zip(got, want)):
            if g is not None and g.val != w:
                bad.append(f"symbol ({t},{pos}) is {g.val:x}, clean {w:x}")
    for t, vals in rep.recovered_message.items():
        want = case.message[t] if 0 <= t < len(case.message) else 0
        if [e.val for e in vals] != [want]:
            bad.append(f"message u_{t} is {[e.val for e in vals]}, seeded {want}")
    if want_lost and not rep.lost_intervals:
        bad.append("no lost interval although the stream carries a burst")
    if not want_lost and not rep.complete:
        bad.append(f"incomplete decode, lost {rep.lost_intervals}")
    return bad


class DecodeWorkload:
    """Streams of one fixed length decoded by both engines."""

    def __init__(self, name: str, q: int, blocks: int, streams: int, bursty: bool):
        self.name, self.q, self.blocks, self.streams = name, q, blocks, streams
        self.bursty = bursty

    def describe(self) -> dict:
        return {"field": f"GF({self.q})", "code": "(3,1,2) random_code mdp",
                "code_seed": CODE_SEED, "message_blocks": self.blocks,
                "codeword_blocks": self.blocks + 2, "streams": self.streams,
                "channel": (f"gilbert-elliott {GE_PARAMS}, one erased run of {GE_MIN_RUN}..{GE_MAX_RUN}"
                            if self.bursty else f"iid {IID_RATE}")}

    def erase(self, clean: ErasureStream, rng: random.Random) -> ErasureStream:
        if not self.bursty:
            spec = PatternSpec(kind="iid", prob=IID_RATE, seed=rng.randrange(1 << 32))
            return channel.corrupt(clean, spec)
        # redraw until the mask holds exactly one run of erasures that no
        # window up to delay L can absorb, of bounded length, so every stream
        # needs one guard scan of similar size
        while True:
            flags = gilbert_elliott(rng, clean.symbol_count, *GE_PARAMS)
            long = [r for r in erased_runs(flags) if r >= GE_MIN_RUN]
            if len(long) == 1 and long[0] <= GE_MAX_RUN:
                return channel.corrupt(clean, PatternSpec(kind="mask", mask=tuple(flags)))

    def setup(self, seed: int) -> DecodeInputs:
        cold_field_cache()
        code = with_parity(construct.random_code(3, 1, 2, self.q, CODE_SEED, want="mdp"))
        # the program reads its code as JSON, as `convec decode --code` does
        code = polymat.code_from_json(json.loads(json.dumps(code.to_json())))
        rng = random.Random(seed)
        cases = []
        for _ in range(self.streams):
            # a nonzero last symbol keeps every stream at the same length
            msg = [rng.randrange(self.q) for _ in range(self.blocks - 1)]
            msg.append(rng.randrange(1, self.q))
            u = PolyMatrix.from_packed(code.field, [[[v]] for v in msg])
            clean = ErasureStream.from_codeword(code.encode(u))
            noisy = self.erase(clean, rng)
            cases.append(StreamCase(noisy.to_text(),
                                    [[e.val for e in b] for b in clean.blocks], msg))
        return DecodeInputs(code, cases)

    def run_pass(self, inputs: DecodeInputs, timer, tracer=None) -> PassResult:
        seconds = dict.fromkeys(ENGINES, 0.0)
        raw = dict.fromkeys(ENGINES, 0.0)
        outputs, problems, failed = [], [], 0
        stats = {f"{e}.{key}": 0 for e in ENGINES
                 for key in ("seen", "recovered", "windows", "unknowns", "solves")}
        for i, case in enumerate(inputs.cases):
            for engine in ENGINES:
                if tracer is not None:
                    tracer.trace_id = f"{self.name}:{i}:{engine}"
                try:
                    (rep, out), wall, scaled = timer.time(decode, inputs.code,
                                                          case.text, engine)
                except Exception as exc:  # counted as a failed operation
                    problems.append(f"stream {i} {engine}: {type(exc).__name__}: {exc}")
                    outputs.append("")
                    failed += 1
                    continue
                seconds[engine] += scaled
                raw[engine] += wall
                outputs.append(out)
                bad = check_report(case, rep, self.bursty)
                problems += [f"stream {i} {engine}: {p}" for p in bad]
                failed += bool(bad)
                stats[f"{engine}.seen"] += rep.totals["erasures_seen"]
                stats[f"{engine}.recovered"] += rep.totals["erasures_recovered"]
                stats[f"{engine}.windows"] += len(rep.windows)
                solved = [w.unknowns for w in rep.windows if w.unknowns > 0]
                stats[f"{engine}.unknowns"] += sum(solved)
                stats[f"{engine}.solves"] += len(solved)
        return PassResult(seconds, raw, outputs, problems,
                          len(inputs.cases) * len(ENGINES), failed, stats)

    def end_to_end(self, inputs, passes, setup_runs) -> dict:
        """Metric name -> (value, unit), with the workload's own names."""
        sym = sum(len(c.clean) * len(c.clean[0]) for c in inputs.cases)
        rate = {e: ratio(sym, statistics.median(p.seconds[e] for p in passes))
                for e in ENGINES}
        st = passes[0].stats
        frac = {e: ratio(st[f"{e}.recovered"], st[f"{e}.seen"]) for e in ENGINES}
        pooled = ratio(st["gm.recovered"] + st["pc.recovered"], st["gm.seen"] + st["pc.seen"])
        per_stream = statistics.median(sum(p.seconds.values()) for p in passes) / len(inputs.cases)
        return {
            "gm_symbols_per_s": (rate["gm"], "1/s"),
            "pc_symbols_per_s": (rate["pc"], "1/s"),
            "gm_recovered_frac": (frac["gm"], "ratio"),
            "pc_recovered_frac": (frac["pc"], "ratio"),
            # universal names shared with certify; see bench/README.md
            "work_per_s": ((rate["gm"] * rate["pc"]) ** 0.5, "1/s"),
            "result_s": (per_stream, "s"),
            "recovered_frac": (pooled, "ratio"),
        }

    def exact_counts(self, passes) -> dict:
        st = passes[0].stats
        return {"codec.gm.windows": st["gm.windows"], "codec.pc.windows": st["pc.windows"],
                "codec.gm.solves": st["gm.solves"], "codec.gm.unknowns": st["gm.unknowns"]}


# ---------------------------------------------------------------------------
# certify: cold construction and complete j-MDP verification
# ---------------------------------------------------------------------------

@dataclass
class CertifyInputs:
    code: ConvCode
    j: int
    expected_sets: int


class CertifyWorkload:
    def __init__(self, name: str, n: int, k: int, delta: int, p: int):
        self.name, self.shape, self.p = name, (n, k, delta), p

    def describe(self) -> dict:
        n, k, delta = self.shape
        return {"construction": f"build_complete_mdp({n},{k},{delta},{self.p})",
                "j": distance.L_of(n, k, delta), "side": "generator"}

    def setup(self, seed: int) -> CertifyInputs:
        # nothing here is random: the seed only picks the gf micro-benchmark
        # operands in the traced run
        cold_field_cache()
        n, k, delta = self.shape
        code = construct.build_complete_mdp(n, k, delta, self.p)
        j = distance.L_of(n, k, delta)
        expected = sliding.count_nontrivial("generator", n, k, delta // k, j)
        return CertifyInputs(code, j, expected)

    def run_pass(self, inputs: CertifyInputs, timer, tracer=None) -> PassResult:
        if tracer is not None:
            tracer.trace_id = f"{self.name}:0:verify"
        try:
            # an explicit budget: CONVEC_BUDGET must not change the work
            rep, wall, scaled = timer.time(distance.verify_complete_jmdp_via_g,
                                           inputs.code, inputs.j, inputs.expected_sets)
        except Exception as exc:  # counted as a failed operation
            return PassResult({"verify": 0.0}, {"verify": 0.0}, [""],
                              [f"verify: {type(exc).__name__}: {exc}"], 1, 1,
                              {"sets_checked": 0, "sets_nonzero": 0})
        result = rep.to_json()
        result.pop("wall_time_ms")
        problems = check_certificate(rep, inputs.expected_sets)
        nonzero = rep.sets_checked - (0 if rep.passed else 1)
        return PassResult({"verify": scaled}, {"verify": wall},
                          [json.dumps(result, sort_keys=True)], problems, 1, int(bool(problems)),
                          {"sets_checked": rep.sets_checked, "sets_nonzero": nonzero})

    def end_to_end(self, inputs, passes, setup_runs) -> dict:
        verify = statistics.median(p.seconds["verify"] for p in passes)
        build = statistics.median(setup_runs)
        sets = passes[0].stats["sets_checked"]
        rate = ratio(sets, verify)
        certify = build + verify
        return {
            "verify_sets_per_s": (rate, "1/s"),
            "certify_s": (certify, "s"),
            "work_per_s": (rate, "1/s"),
            "result_s": (certify, "s"),
            "recovered_frac": (ratio(passes[0].stats["sets_nonzero"], sets), "ratio"),
        }

    def exact_counts(self, passes) -> dict:
        return {"distance.sets_checked": passes[0].stats["sets_checked"]}


def check_certificate(rep, expected_sets: int) -> list[str]:
    bad = []
    if not rep.passed:
        bad.append(f"verification failed at {rep.counterexample}")
    if rep.sets_checked != expected_sets:
        bad.append(f"{rep.sets_checked} sets checked, count_nontrivial gives {expected_sets}")
    return bad


def make(name: str, tiny: bool = False):
    """The named workload; tiny sizes finish in seconds, for the self-test."""
    if name == "stream":
        return DecodeWorkload(name, 16, *((12, 2) if tiny else STREAM_SIZE), bursty=False)
    if name == "burst":
        return DecodeWorkload(name, 27, *((24, 2) if tiny else BURST_SIZE), bursty=True)
    if name == "certify":
        return CertifyWorkload(name, *((2, 1, 1, 2) if tiny else (3, 2, 2, 2)))
    raise KeyError(name)

