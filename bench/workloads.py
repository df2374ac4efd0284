"""The benchmark's four workloads: seeded inputs, one operation, its checks.

A workload is planned in rounds.  Every round holds the same kinds of
operation in the same numbers, with input sizes drawn stratified on a log
scale (see `Strata`), so two seeds give runs of nearly the same cost and
a run always attempts whole rounds.  All inputs come from
`random.Random("<workload>:<seed>")`; the program sees only the generated
numbers.

`run(fp, spec)` is the timed operation (`fp` is the imported package);
`check(fp, spec, out)` runs afterwards, outside the timed part, and
returns None or a description of what is wrong.  Checks use `checker`
(routes that share nothing with the package) or properties the method
must have; a few of them call the package on the other side of an
identity, such as `theta(word_of(n)) == n`.
"""

import json
import math
import random

import checker

LOG2_3 = math.log2(3)
GOLDEN = (5 ** 0.5 - 1) / 2


class Strata:
    """m log-uniform draws in [lo, hi] per round, one from each of m equal
    slices of [log lo, log hi].  Inside a slice the place starts at random
    and moves on by the golden ratio each round, so the draws of a run
    cover every slice evenly, whatever the seed."""

    def __init__(self, rng, m, lo, hi):
        self.rng, self.m = rng, m
        self.log_lo = math.log(lo)
        self.width = (math.log(hi) - self.log_lo) / m
        self.phase = [rng.random() for _ in range(m)]

    def draw(self):
        vals = []
        for i in range(self.m):
            self.phase[i] = (self.phase[i] + GOLDEN) % 1.0
            vals.append(math.exp(self.log_lo + (i + self.phase[i]) * self.width))
        self.rng.shuffle(vals)
        return vals

    def one(self):
        return self.draw()[0]


def blocky(rng, bits):
    """A number of about `bits` bits whose Zeckendorf indices form long
    equal-parity blocks (even gaps inside, an odd gap between blocks)."""
    # the top index is the least with f_top >= 2**(bits - 1), so n has
    # bits or bits + 1 bits
    top = checker.top_index(1 << max(2, bits) - 1)[0] + 1
    indices = [rng.randint(1, 2)]
    block = rng.randint(4, 40)
    while indices[-1] < top:
        if block:
            step, block = rng.choice((2, 2, 2, 4)), block - 1
        else:
            step, block = rng.choice((3, 5)), rng.randint(4, 40)
        if indices[-1] + step > top:
            step = max(2, top - indices[-1])
        indices.append(indices[-1] + step)
    return checker.fib_sum(indices)


def random_bits(rng, bits):
    bits = max(2, bits)
    return rng.getrandbits(bits) | (1 << (bits - 1))


class Workload:
    name = ""
    tail_pct = 90          # fixed per workload, see README
    min_rounds = 1         # so that a run has enough samples for the tail
    probe = "count"        # the host probe that tracks these operations

    def __init__(self, seed):
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.seen = set()

    def kind(self, spec):
        """The operation kind, for the run's time-share breakdown."""
        return spec[0]

    def distinct(self, make, bits):
        """make(rng, bits) until the value is new to this run, one bit wider
        after every eight tries (the narrowest slices run out of values in
        a long run)."""
        attempt = 0
        while True:
            n = make(self.rng, bits + attempt // 8)
            if n not in self.seen:
                self.seen.add(n)
                return n
            attempt += 1


# ---------------------------------------------------------------------------
# point: the `fibpart info` record of one number


def record(fp, n, with_poly):
    word = fp.word_of(n)
    rec = {
        "n": n,
        "zeckendorf": list(fp.zeckendorf(n)),
        "word": fp.format_word(word),
        "F": fp.count_F(n),
        "chi": fp.chi(n),
        "essential": fp.is_essential(n),
    }
    if with_poly:
        rec["poly"] = fp.fib_poly(n)
    return rec, word


def check_number(n, F, chi):
    """Checks shared by every output that reports F(n) and chi(n)."""
    F_ref, chi_ref = checker.partition_counts(n)
    if F != F_ref:
        return "count_F(%d) = %d, independent count %d" % (n, F, F_ref)
    if chi not in (-1, 0, 1) or (chi - F) % 2:
        return "chi(%d) = %r is not in {-1, 0, 1} or differs in parity from F" % (n, chi)
    if chi != chi_ref:
        return "chi(%d) = %d, independent signed count %d" % (n, chi, chi_ref)
    if F * F > n + 1:
        return "F(%d)^2 = %d exceeds n + 1" % (n, F * F)
    return None


def check_poly(n, poly, F, chi, zlen):
    if checker.poly_at(poly, 1) != F:
        return "fib_poly(%d) at 1 is not F" % (n,)
    if checker.poly_at(poly, -1) != chi:
        return "fib_poly(%d) at -1 is not chi" % (n,)
    if checker.valuation(poly) != zlen:
        return "fib_poly(%d) has valuation %r, Zeckendorf length %d" % (
            n, checker.valuation(poly), zlen)
    return None


def check_record(fp, rec, word):
    n = rec["n"]
    why = checker.zeckendorf_problem(n, tuple(rec["zeckendorf"]))
    if why:
        return "zeckendorf(%d): %s" % (n, why)
    why = check_number(n, rec["F"], rec["chi"])
    if why:
        return why
    den = 1
    for g in word:
        if not 0 < g < 1:
            return "word of %d has a letter %s outside (0, 1)" % (n, g)
        den *= g.denominator
    if den != rec["F"]:
        return "word of %d has denominator product %d, F = %d" % (n, den, rec["F"])
    if fp.format_word(word) != rec["word"]:
        return "format_word is not stable for %d" % (n,)
    if rec["essential"] != (fp.theta(word) == n):
        return "is_essential(%d) = %r disagrees with theta(word_of(n)) == n" % (
            n, rec["essential"])
    if "poly" in rec:
        return check_poly(n, rec["poly"], rec["F"], rec["chi"], len(rec["zeckendorf"]))
    return None


class Point(Workload):
    """One `info` record per distinct n of 8 to 4096 bits, half of them
    built with long equal-parity blocks; small n also get `fib_poly`."""
    name = "point"
    tail_pct = 99
    min_rounds = 4
    per_round = 256
    poly_bits = 256        # strata wholly below this many bits ...
    poly_every = 4         # ... ask for the polynomial in one of four

    def __init__(self, seed):
        super().__init__(seed)
        self.bits = Strata(self.rng, self.per_round, 8, 4096)

    def plan_round(self):
        specs = []
        for i, b in enumerate(sorted(self.bits.draw())):
            # the slices are in increasing order, so slice i lies wholly
            # below poly_bits exactly when its draw's upper edge does
            top = 8 * 512 ** ((i + 1) / self.per_round)
            poly = top <= self.poly_bits and i % self.poly_every == 0
            make = blocky if i % 2 else random_bits
            specs.append((self.distinct(make, int(b)), poly))
        self.rng.shuffle(specs)
        return specs

    def warm(self, fp):
        fp.zeckendorf((1 << 4097) - 1)

    def kind(self, spec):
        return "record+poly" if spec[1] else "record"

    def run(self, fp, spec):
        return record(fp, *spec)

    def check(self, fp, spec, out):
        return check_record(fp, *out)


# ---------------------------------------------------------------------------
# big: count_F + chi on 8k-32k bits, fib_poly on 500-3000 bits


class Big(Workload):
    """count_F + chi at 8 k-32 k bits and fib_poly at 500-3000 bits, each
    half random, half 3**k; 13 counts per 2 polynomials gives each kind
    about half of the run at the commit that defined the benchmark."""
    name = "big"
    tail_pct = 85          # above it lie the ~20 polynomials of a run (README)
    min_rounds = 8
    polys, counts = 2, 13

    def __init__(self, seed):
        super().__init__(seed)
        self.poly_bits = Strata(self.rng, self.polys, 500, 3000)
        self.count_bits = Strata(self.rng, self.counts, 8192, 32768)

    def _pick(self, bits, i):
        if i % 2:
            return self.distinct(random_bits, bits)
        return self.distinct(lambda rng, b: 3 ** round(b / LOG2_3), bits)

    def plan_round(self):
        specs = [("poly", self._pick(int(b), i))
                 for i, b in enumerate(self.poly_bits.draw())]
        specs += [("count", self._pick(int(b), i))
                  for i, b in enumerate(self.count_bits.draw())]
        self.rng.shuffle(specs)
        return specs

    def warm(self, fp):
        fp.zeckendorf((1 << 32770) - 1)

    def run(self, fp, spec):
        kind, n = spec
        if kind == "poly":
            return fp.fib_poly(n), len(fp.zeckendorf(n))
        return fp.count_F(n), fp.chi(n)

    def check(self, fp, spec, out):
        kind, n = spec
        if kind == "poly":
            poly, zlen = out
            F, chi = checker.partition_counts(n)
            return check_poly(n, poly, F, chi, zlen)
        return check_number(n, *out)


# ---------------------------------------------------------------------------
# paper-stats: the range results over small n

# highly composite k; 840 costs about 0.25 s, like x_sum at r = R_MAX
HIGHLY_COMPOSITE = (12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840)


class PaperStats(Workload):
    """x_sum at f_r - 1 or f_r, stability_count, computed_hull_points and
    minimal_essential, each swept over its whole size range every round,
    and plot rows of twelve 256-n windows.

    The range queries have few distinct arguments, so every round sweeps
    all sizes: a round's cost is the same whatever the seed, which picks
    only the endpoint of each x_sum, the k of each stability_count and
    where the plot windows lie.  The same query therefore recurs from
    round to round (README)."""
    name = "paper-stats"
    tail_pct = 90
    min_rounds = 2
    plot_windows = 12
    plot_rows = 256
    R_MAX = 22

    def __init__(self, seed):
        super().__init__(seed)
        self._counts = None
        self._signed = None
        self.plot_bits = Strata(self.rng, self.plot_windows, 10, 40)

    def plan_round(self):
        rng = self.rng
        specs = [("x_sum", r, rng.randint(0, 1)) for r in range(12, self.R_MAX + 1)]
        specs += [("stability", r, rng.randint(2, min(8, r // 2)))
                  for r in range(12, self.R_MAX)]
        specs += [("hull", r) for r in range(10, self.R_MAX)]
        specs += [("minimal", k) for k in HIGHLY_COMPOSITE]
        specs += [("plot", self.distinct(random_bits, int(b)), self.plot_rows)
                  for b in self.plot_bits.draw()]
        rng.shuffle(specs)
        return specs

    def warm(self, fp):
        fp.zeckendorf(fp.fib(2 * HIGHLY_COMPOSITE[-1] + 2))

    def run(self, fp, spec):
        kind = spec[0]
        if kind == "x_sum":
            r, plus = spec[1:]
            return fp.x_sum(fp.fib(r) - 1 + plus)
        if kind == "stability":
            return fp.stability_count(*spec[1:])
        if kind == "hull":
            return fp.computed_hull_points(spec[1])
        if kind == "minimal":
            return fp.minimal_essential(spec[1])
        lo, rows = spec[1:]
        return [(n, fp.count_F(n), fp.chi(n)) for n in range(lo, lo + rows)]

    # independent tables over [0, f_{R_MAX + 1}), built once per run
    def counts(self):
        if self._counts is None:
            self._counts = checker.count_table(checker.fib_pair(self.R_MAX + 1)[0])
        return self._counts

    def signed(self):
        if self._signed is None:
            self._signed = checker.signed_table(checker.fib_pair(self.R_MAX + 1)[0])
        return self._signed

    def check(self, fp, spec, out):
        kind = spec[0]
        if kind == "x_sum":
            r, plus = spec[1:]
            f_r = checker.fib_pair(r)[0]
            N = f_r - 1 + plus
            want = sum(1 for c in self.signed()[1:N + 1] if c)
            if out != want:
                return "x_sum(%d) = %d, product expansion gives %d" % (N, out, want)
            if not plus and out != f_r - 1 - fp.h_rec(r):
                return "x_sum(f_%d - 1) = %d differs from f_r - 1 - h_rec(r)" % (r, out)
            return None
        if kind == "stability":
            r, k = spec[1:]
            lo, hi = checker.fib_pair(r)
            want = sum(1 for c in self.counts()[lo:hi] if c == k)
            if out != want:
                return "stability_count(%d, %d) = %d, recount gives %d" % (r, k, out, want)
            if r >= 2 * k and out != (1 if k == 1 else 2 * checker.psi(k)):
                return "stability_count(%d, %d) = %d, not 2 psi(k)" % (r, k, out)
            return None
        if kind == "hull":
            r = spec[1]
            lo, hi = checker.fib_pair(r)
            table = self.counts()
            pts = [(n, table[n]) for n in range(lo - 1, hi)]
            want = [tuple(p) for p in checker.upper_hull(pts)[1:-1]]
            got = [tuple(p) for p in out]
            if got != want:
                return "computed_hull_points(%d) differs from an independent hull" % (r,)
            if got != [tuple(p) for p in fp.hull_points(r)]:
                return "computed_hull_points(%d) != hull_points(%d)" % (r, r)
            return None
        if kind == "minimal":
            k, M = spec[1], out
            if checker.partition_counts(M)[0] != k:
                return "count_F(minimal_essential(%d) = %d) != %d" % (k, M, k)
            table = self.counts()
            if M < len(table) and k in table[:M]:
                return "minimal_essential(%d) = %d, but %d has count %d" % (
                    k, M, table.index(k), k)
            return None
        lo, rows = spec[1:]
        if [row[0] for row in out] != list(range(lo, lo + rows)):
            return "plot rows of [%d, %d) are not contiguous" % (lo, lo + rows)
        for n, F, chi in out:
            F_ref, chi_ref = checker.partition_counts(n)
            if (F, chi) != (F_ref, chi_ref):
                return "plot row %d: (%d, %d), independent (%d, %d)" % (n, F, chi, F_ref, chi_ref)
        return None


# ---------------------------------------------------------------------------
# cli: one `python -m fibpart.cli` process per command


class Cli(Workload):
    """One fresh `python -m fibpart.cli` process per command; a round is
    one command of each kind, arguments seeded and under 4300 digits."""
    name = "cli"
    tail_pct = 90
    min_rounds = 20        # 200 commands, ~20 s: fewer spread 10-20%
    probe = "interp"

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        self.sizes = {key: Strata(rng, 1, lo, hi) for key, lo, hi in (
            ("info", 8, 2048), ("chi", 8, 2048), ("word", 8, 2048),
            ("essential", 8, 1024), ("orbit", 8, 512), ("psi", 2, 10000),
            ("zeros", 10, 2000))}

    def number(self, key):
        return self.distinct(random_bits, int(self.sizes[key].one()))

    def plan_round(self):
        rng = self.rng
        specs = [
            ["info", str(self.number("info"))],
            ["chi", str(self.number("chi"))],
            ["word", str(self.number("word"))],
            ["theta", random_word(rng)],
            ["essential", str(self.number("essential"))],
            ["orbit", str(self.orbit_start()), "--apply",
             ",".join(rng.choice(("omega", "tau", "S")) for _ in range(rng.randint(1, 3)))],
            ["psi", str(int(self.sizes["psi"].one()))],
            ["minimal", str(rng.randint(2, 60))],
            ["enumerate", str(rng.randint(2, 20))],
            ["zeros", str(int(self.sizes["zeros"].one()))],
        ]
        rng.shuffle(specs)
        return [tuple(s) for s in specs]

    def orbit_start(self):
        # tau is undefined on the orbit of 0, the numbers f_r - 1
        while True:
            m = self.number("orbit")
            if checker.partition_counts(m)[0] > 1:
                return m

    def check(self, fp, spec, out):
        code, stdout = out
        if code != 0:
            return "fibpart %s exited %d" % (" ".join(spec)[:80], code)
        cmd = spec[0]
        text = stdout.strip()
        if cmd == "info":
            rec = json.loads(text)
            word = fp.parse_word(rec["word"])
            if rec["n"] != int(spec[1]):
                return "info echoed the wrong n"
            return check_record(fp, rec, word)
        if cmd == "chi":
            n = int(spec[1])
            F, chi = checker.partition_counts(n)
            return None if int(text) == chi else "chi %d printed %s, want %d" % (n, text, chi)
        if cmd == "word":
            n = int(spec[1])
            den = 1
            for g in fp.parse_word(text):
                den *= g.denominator
            F = checker.partition_counts(n)[0]
            return None if den == F else "word %d has denominator product %d, F = %d" % (n, den, F)
        if cmd == "theta":
            M = int(text)
            word = fp.parse_word(spec[1])
            if fp.format_word(fp.word_of(M)) != spec[1]:
                return "theta %s = %d does not carry that word" % (spec[1], M)
            den = 1
            for g in word:
                den *= g.denominator
            if checker.partition_counts(M)[0] != den:
                return "theta %s = %d has the wrong count" % (spec[1], M)
            return None if fp.is_essential(M) else "theta %s = %d is not essential" % (spec[1], M)
        if cmd == "essential":
            rec = json.loads(text)
            n = int(spec[1])
            zeck = fp.zeckendorf(n)
            why = checker.zeckendorf_problem(n, zeck)
            if why:
                return why
            ess = zeck[0] >= 3 and zeck[0] % 2 == 1
            if rec["essential"] != ess or ess != (fp.theta(fp.word_of(n)) == n):
                return "essential %d printed %r" % (n, rec["essential"])
            if ess and fp.essential_from_m(rec["m"]) != n:
                return "essential %d: m = %r does not map back" % (n, rec["m"])
            return None
        if cmd == "orbit":
            rec = json.loads(text)
            n = int(spec[1])
            if checker.partition_counts(rec["result"])[0] != checker.partition_counts(n)[0]:
                return "orbit %d --apply %s changed the partition count" % (n, spec[3])
            return None
        if cmd == "psi":
            k = int(spec[1])
            return None if int(text) == checker.psi(k) else "psi %d printed %s" % (k, text)
        if cmd == "minimal":
            rec = json.loads(text)
            k, M = int(spec[1]), rec["M"]
            table = checker.count_table(M)
            if table[M] != k or k in table[:M]:
                return "minimal %d printed %d, not the first n with count k" % (k, M)
            return None
        if cmd == "enumerate":
            k = int(spec[1])
            members = [int(t) for t in text.split()]
            if len(members) != checker.psi(k) or members != sorted(set(members)):
                return "enumerate %d printed %d numbers, psi(k) = %d" % (
                    k, len(members), checker.psi(k))
            for m in members:
                z = fp.zeckendorf(m)
                if checker.partition_counts(m)[0] != k or not (z[0] >= 3 and z[0] % 2):
                    return "enumerate %d printed %d, not an essential k-number" % (k, m)
            return None
        rec = json.loads(text)
        N = int(spec[1])
        nonzero = sum(1 for c in checker.signed_table(N)[1:] if c)
        if (rec["zeros"], rec["X"]) != (N - nonzero, nonzero):
            return "zeros %d printed %r, want X = %d" % (N, rec, nonzero)
        return None


def random_word(rng):
    letters = []
    for _ in range(rng.randint(1, 4)):
        b = rng.randint(2, 50)
        a = rng.randint(1, b - 1)
        while math.gcd(a, b) != 1:
            a = rng.randint(1, b - 1)
        letters.append("%d/%d" % (a, b))
    return "*".join(letters)


WORKLOADS = {w.name: w for w in (Point, Big, PaperStats, Cli)}
