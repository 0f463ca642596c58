"""The three workloads: inputs from a seed, the ops, and their checks.

Each workload builds its op list in set-up (after the package is
imported) and then runs the ops one after the other: one client, closed
loop.  ``run`` returns an op's raw output; ``check`` and ``canonical``
are applied after the timed region; ``corrupt`` gives one deliberately
wrong output per listed op for the checker self-test.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import checks
import labels
from cycloribbon import hopf, lincomb, oracle, reptheory, ribbons

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class RingsBatch:
    """Label combinatorics, sparse sums and the Grothendieck rings, in one
    process: bulk matrix and enumeration ops, then a stream of 1990
    queries in which each of 995 distinct queries comes twice, so that
    half of the stream repeats an earlier query.

    With the five bulk ops that makes 1995 ops, just short of the 2000
    that would put the tail latency at the 99.5th percentile: ten ops
    beyond it would be the bulk ops, the first query (which pays for a
    full garbage collection after the bulk outputs) and only four
    queries, so the tail would be the edge of the few slowest queries.
    At the 99th percentile it is the fourteenth slowest query, where
    queries of similar cost lie close together.

    The stream's composition is fixed: queries per kind, and for each kind
    the sizes and shapes (the split m of an induction product, the
    composition fed to a product or coproduct) cycle through a fixed list.
    The seed draws the ribbons and the order.  The cost of a product or
    coproduct on colored compositions depends on which of its colors are
    equal, and the slowest of these queries set the tail latency, so
    their color patterns are fixed too and the seed draws a permutation
    of the colors for each: the latency distribution hardly depends on
    the seed."""

    BULK = (("enumerate", (8, 4)), ("cartan", (7, 2)), ("decomp", (7, 2)),
            ("decomp", (6, 3)), ("dims", (6, 3)))
    FRESH = (("induce_simples", 500), ("induce_projectives", 150),
             ("mr_product_S", 100), ("mr_coproduct", 150),
             ("qmr_coproduct_F", 95))

    def ops(self, seed):
        rng = random.Random(seed)
        patterns = random.Random(0)  # the same color patterns for every seed
        rib, comp = ribbons.ColoredRibbon, ribbons.ColoredComposition
        comps = {n: list(labels.compositions(n)) for n in range(1, 6)}

        def colored(n, k):
            parts = comps[n][k % len(comps[n])]
            relabel = rng.sample((1, 2, 3), 3)
            return comp(parts, tuple(relabel[patterns.randrange(3)] for _ in parts))

        fresh = []
        for kind, count in self.FRESH:
            for i in range(count):
                if kind == "induce_simples":
                    total = 5 + i % 5
                    m = 1 + i // 5 % (total - 1)
                    args = (rib(*labels.random_cycloribbon(rng, m, 3)),
                            rib(*labels.random_cycloribbon(rng, total - m, 3)))
                elif kind in ("induce_projectives", "mr_product_S"):
                    args = (colored(1 + i % 4, i // 4), colored(1 + (i + 1) % 4, i // 4))
                elif kind == "mr_coproduct":
                    args = ((lincomb.MR_S, lincomb.MR_R)[i // 5 % 2],
                            colored(1 + i % 5, i // 10))
                else:
                    args = (rib(*labels.random_cycloribbon(rng, 1 + i % 9, 3)),)
                fresh.append((kind, args))
        stream = fresh + fresh
        rng.shuffle(stream)
        return list(self.BULK) + stream

    def run(self, op):
        kind, args = op
        return getattr(self, "_" + kind)(*args)

    @staticmethod
    def _enumerate(n, r):
        return ribbons.enumerate_cycloribbons(n, r)

    @staticmethod
    def _cartan(n, r):
        return reptheory.cartan_matrix(n, r)

    @staticmethod
    def _decomp(n, r):
        return reptheory.decomposition_matrix(n, r)

    @staticmethod
    def _dims(n, r):
        return [reptheory.dim_projective(cc)
                for cc in reptheory.projective_labels(n, r)]

    @staticmethod
    def _induce_simples(a, b):
        return reptheory.induce_simples(a, b, r=3)

    @staticmethod
    def _induce_projectives(a, b):
        return reptheory.induce_projectives(a, b)

    @staticmethod
    def _mr_product_S(a, b):
        single = lincomb.LinComb.single
        return hopf.mr_product_S(single(lincomb.MR_S, a), single(lincomb.MR_S, b))

    @staticmethod
    def _mr_coproduct(basis, a):
        return hopf.mr_coproduct(lincomb.LinComb.single(basis, a))

    @staticmethod
    def _qmr_coproduct_F(a):
        return hopf.qmr_coproduct_F(lincomb.LinComb.single(lincomb.QMR_F, a))

    def check(self, op, out):
        kind, args = op
        if kind == "enumerate":
            return checks.enumeration(*args, out)
        if kind == "cartan":
            return checks.cartan(*args, out.row_labels, out.col_labels, out.entries)
        if kind == "decomp":
            return checks.decomposition(*args, out.row_labels, out.col_labels,
                                        out.entries)
        if kind == "dims":
            return checks.projective_dims(*args, out)
        if kind == "induce_simples":
            return checks.shuffle_product(*args, out)
        if kind == "induce_projectives":
            return checks.ribbon_product(*args, out)
        if kind == "mr_product_S":
            return out.basis == lincomb.MR_S and checks.concatenation_product(
                *args, out.terms)
        if kind == "mr_coproduct":
            return out.bases == (args[0],) * 2 and checks.coproduct(*args, out.terms)
        return out.bases == (lincomb.QMR_F,) * 2 and checks.deconcatenation(
            *args, out.terms)

    @staticmethod
    def canonical(op, out):
        # the bulk outputs are nested tuples of ints, whose hash is the same
        # in every process and far cheaper than their repr
        if isinstance(out, reptheory.LabeledMatrix):
            return f"hash {hash((out.row_labels, out.col_labels, out.entries))}"
        if op[0] == "enumerate":
            return f"hash {hash(tuple(out))}"
        if isinstance(out, (lincomb.LinComb, lincomb.TensorComb)):
            out = out.terms
        if isinstance(out, dict):
            return repr(sorted(out.items()))
        return repr(out)

    @staticmethod
    def corrupt(ops, outs):
        """One multiplicity removed from an induction product of simples,
        and one Cartan entry changed."""
        i = next(k for k, (kind, _) in enumerate(ops) if kind == "induce_simples")
        bad = Counter(outs[i])
        bad[next(iter(bad))] -= 1
        j = next(k for k, (kind, _) in enumerate(ops) if kind == "cartan")
        entries = [list(row) for row in outs[j].entries]
        entries[0][0] += 1
        return [(i, +bad),
                (j, dataclasses.replace(outs[j], entries=tuple(map(tuple, entries))))]


class OracleArbitration:
    """Arbitration cases, one per op, then the defining relations on a
    regular representation.  The cases are all pairs of simples with r=2
    or r=3 up to grade 3 and with r=4 or r=5 at grade 2, and every
    twelfth grade-4 pair with r=2 (the pairs whose modules are largest).
    The seed draws the case order and the parameters u.

    The cheap r=4 and r=5 cases make 160 ops, so that the tail latency
    (the 90th percentile) has 16 ops beyond it: the relations, the
    grade-4 cases and the first case of r=3 and of r=5, which fill cold
    caches, are 12 of them, and the tail lies among the 72 grade-3 r=3
    cases of similar cost rather than at the slowest of them."""

    CASES = ((2, 3), (3, 3), (4, 2), (5, 2))
    GRADE4_STRIDE = 12
    RELATIONS = ((4, 3),)

    def ops(self, seed):
        rng = random.Random(seed)
        u = {}
        for r in sorted({r for r, _ in self.CASES}):
            # consecutive integers, so that every seed divides by the same
            # differences in the Lagrange projectors
            base = rng.randint(1, 9)
            u[r] = tuple(base + k for k in rng.sample(range(r), r))
        pairs = []
        for r, grade in self.CASES:
            for total in range(2, grade + 1):
                pairs.extend((r, total, m) for m in range(1, total))
        rib = ribbons.ColoredRibbon
        cases = []
        for r, total, m in pairs + [(2, 4, m) for m in range(1, 4)]:
            params = oracle.AlgebraParams(total, r, u[r])
            block = [("case", (params, rib(*a), rib(*b)))
                     for a in labels.all_cycloribbons(m, r)
                     for b in labels.all_cycloribbons(total - m, r)]
            cases.extend(block[::self.GRADE4_STRIDE] if total == 4 else block)
        rng.shuffle(cases)
        return cases + [("relations", (oracle.AlgebraParams(n, r, u[r]),))
                        for n, r in self.RELATIONS]

    @staticmethod
    def run(op):
        kind, args = op
        if kind == "relations":
            return oracle.verify_relations(*args)
        # the body of oracle.cross_check_induction, one case at a time
        params, a, b = args
        expected = Counter()
        for lab, mult in reptheory.induce_simples(a, b, r=params.r).items():
            expected[reptheory.simple_character(lab)] += mult
        module = oracle.build_induced_module(
            params, [reptheory.simple_character(a), reptheory.simple_character(b)])
        return expected, oracle.composition_factors(params, module)

    @staticmethod
    def check(op, out):
        kind, args = op
        if kind == "relations":
            return checks.relations(args[0].n, out)
        params, a, _ = args
        return checks.arbitration(params.n, len(a.colors), *out)

    @staticmethod
    def canonical(op, out):
        if op[0] == "relations":
            return repr(out)
        return repr([sorted(c.items()) for c in out])

    @staticmethod
    def corrupt(ops, outs):
        """One composition factor removed from the oracle's side."""
        i = next(k for k, (kind, _) in enumerate(ops) if kind == "case")
        expected, got = outs[i]
        bad = Counter(got)
        bad[next(iter(bad))] -= 1
        return [(i, (expected, +bad))]


class CliSession:
    """Forty sequential CLI processes: mostly small queries, some medium
    matrices and listings, a few oracle runs.  Caches are cold in every
    process.  Each runs ``cli_launch.py``, which times the calibration
    kernel and then does what ``python -m cycloribbon.cli`` does."""

    SMALL = (("phi", 5), ("product-F", 3), ("product-R", 2), ("product-S", 2),
             ("coproduct-F", 2), ("coproduct-R", 2), ("coproduct-S", 2),
             ("induce-simples", 8))
    MEDIUM = ((["cartan", "--n", "5", "--r", "2"], 2),
              (["decomp", "--n", "5", "--r", "2"], 2),
              (["dims", "--n", "5", "--r", "3"], 2),
              (["enumerate", "--n", "6", "--r", "3"], 2),
              (["oracle", "cross-check", "--max-grade", "3", "--r", "2"], 2))
    VERIFY = 4
    TIMEOUT_S = 120

    def __init__(self, traced=False):
        self.traced = traced
        self.records = []      # per-process records of cli_launch.py
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def ops(self, seed):
        rng = random.Random(seed)
        ops = []
        for kind, count in self.SMALL:
            for _ in range(count):
                ops.append(self._small(rng, kind))
        for argv, count in self.MEDIUM:
            ops.extend([argv] * count)
        for _ in range(self.VERIFY):
            den = rng.randint(2, 9)
            nums = rng.sample(range(-9, 10), 2)
            u = ",".join(f"{x}/{den}" for x in nums)
            # "--u=" because a negative first parameter looks like an option
            ops.append(["oracle", "verify", "--n", "3", "--r", "2", f"--u={u}"])
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _small(rng, kind):
        lit, clit = labels.ribbon_literal, labels.colored_composition_literal
        if kind == "phi":
            n, r = rng.randint(3, 7), rng.randint(2, 4)
            return ["phi", "--ribbon", lit(labels.random_cycloribbon(rng, n, r))]
        if kind == "induce-simples" or kind == "product-F":
            total = rng.randint(4, 8) if kind == "induce-simples" else rng.randint(2, 7)
            m = rng.randint(1, total - 1)
            a = lit(labels.random_cycloribbon(rng, m, 3))
            b = lit(labels.random_cycloribbon(rng, total - m, 3))
            if kind == "product-F":
                return ["product", "--basis", "F", "--lhs", a, "--rhs", b]
            return ["induce-simples", "--lhs", a, "--rhs", b]
        cmd, basis = kind.split("-")
        if cmd == "product":
            a, b = (clit(labels.random_colored_composition(rng, rng.randint(1, 4), 3))
                    for _ in range(2))
            return ["product", "--basis", basis, "--lhs", a, "--rhs", b]
        n = rng.randint(1, 5)
        elt = (lit(labels.random_cycloribbon(rng, n, 3)) if basis == "F"
               else clit(labels.random_colored_composition(rng, n, 3)))
        return ["coproduct", "--basis", basis, "--elt", elt]

    @staticmethod
    def command(argv):
        return "-".join(argv[:2]) if argv[0] == "oracle" else argv[0]

    def run(self, argv):
        """Run one command through ``cli_launch.py`` and keep its record
        (None if it wrote none) in ``self.records``, one per op."""
        read_fd, write_fd = os.pipe()
        chunks = []

        def drain():
            with os.fdopen(read_fd, "rb") as f:
                chunks.append(f.read())

        reader = threading.Thread(target=drain)
        env = dict(self.env, PERFBENCH_TRACE_FD=str(write_fd),
                   PERFBENCH_TRACE="1" if self.traced else "0")
        spawned = time.monotonic()
        try:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "cli_launch.py"), *argv],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, env=env, pass_fds=(write_fd,))
        finally:
            os.close(write_fd)
        reader.start()
        try:
            stdout, stderr = proc.communicate(timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        finally:
            reader.join()
            record = json.loads(chunks[0]) if chunks and chunks[0] else None
            self.records.append(record)
        record.update(spawned=spawned, ended=time.monotonic(),
                      stdout_bytes=len(stdout), command=self.command(argv))
        return proc.returncode, stdout, stderr

    def check(self, argv, out):
        rc, stdout, stderr = out
        if rc != 0 or stderr:
            return False
        try:
            obj = json.loads(stdout)
        except ValueError:
            return False
        return self._schema_ok(stdout, obj) and self._invariant(argv, obj)

    _validator = None
    _valid = {}  # stdout bytes -> schema verdict; repeated commands repeat bytes

    @classmethod
    def _schema_ok(cls, stdout, obj):
        if stdout not in cls._valid:
            if cls._validator is None:
                import jsonschema  # benchmark-only dependency, loaded after timing
                schema = json.loads((ROOT / "src" / "cycloribbon" / "schemas" /
                                     "cli.schema.json").read_text())
                cls._validator = jsonschema.Draft202012Validator(schema)
            cls._valid[stdout] = cls._validator.is_valid(obj)
        return cls._valid[stdout]

    @staticmethod
    def _invariant(argv, obj):
        opt = dict(zip(argv[1::2], argv[2::2])) if argv[0] != "oracle" else \
            dict(zip(argv[2::2], argv[3::2]))
        cmd = argv[0]
        if cmd == "phi":
            given = checks.parse_ribbon_literal(opt["--ribbon"])
            inp, out = checks.json_label(obj["input"]), checks.json_label(obj["output"])
            return inp == given and out[1] == given[1] and \
                labels.is_anticycloribbon(*out)
        if cmd in ("product", "induce-simples"):
            basis = opt.get("--basis", "F")
            parse = (checks.parse_ribbon_literal if basis == "F"
                     else _parse_colored_composition)
            a, b = parse(opt["--lhs"]), parse(opt["--rhs"])
            terms = checks.json_terms(obj)
            rule = {"F": checks.shuffle_product, "R": checks.ribbon_product,
                    "S": checks.concatenation_product}[basis]
            return rule(a, b, terms)
        if cmd == "coproduct":
            basis = opt["--basis"]
            terms = checks.json_terms(obj)
            if basis == "F":
                return checks.deconcatenation(
                    checks.parse_ribbon_literal(opt["--elt"]), terms)
            return checks.coproduct("MR-" + basis,
                                    _parse_colored_composition(opt["--elt"]), terms)
        if cmd == "oracle":
            if argv[1] == "verify":
                return obj["pass"] is True and checks.relations(int(opt["--n"]),
                                                                obj["checks"])
            return checks.cross_check_report(int(opt["--r"]),
                                             int(opt["--max-grade"]), obj)
        n, r = int(opt["--n"]), int(opt["--r"])
        if cmd == "enumerate":
            ribs = [checks.json_label(x) for x in obj["ribbons"]]
            return obj["count"] == len(ribs) and checks.enumeration(n, r, ribs)
        if cmd == "dims":
            dims = [p["dim"] for p in obj["projectives"]]
            return obj["sum"] == obj["algebra_dim"] == labels.algebra_dim(n, r) and \
                checks.projective_dims(n, r, dims)
        cols = [checks.parse_ribbon_literal(c) for c in obj["cols"]]
        if cmd == "cartan":
            return checks.cartan(n, r, obj["rows"], cols, obj["entries"])
        rows = [checks.parse_multipartition_literal(x) for x in obj["rows"]]
        return checks.decomposition(n, r, rows, cols, obj["entries"])

    @staticmethod
    def canonical(argv, out):
        return repr((argv, out))

    @staticmethod
    def corrupt(ops, outs):
        """A schema-invalid CLI JSON: the first output with a required key
        removed."""
        rc, stdout, stderr = outs[0]
        obj = json.loads(stdout)
        obj.pop(next(iter(obj)))
        return [(0, (rc, json.dumps(obj).encode(), stderr))]


def _parse_colored_composition(text):
    pieces = [p.split("^") for p in text.split(".")]
    return tuple(int(a) for a, _ in pieces), tuple(int(b) for _, b in pieces)


WORKLOADS = {"rings-batch": RingsBatch, "oracle-arbitration": OracleArbitration,
             "cli-session": CliSession}

