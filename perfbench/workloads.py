"""The benchmark's three workloads.

Each workload builds its inputs in ``__init__`` (from ``seed`` where it
draws anything at random), then runs *rounds*: one round is the same
list of operations every time, and one operation is one verdict.
``prepare()`` does a round's untimed set-up, ``run_round()`` times each
operation through the harness's ``timed`` callback, ``check_round()``
checks the answers after the round (untimed and untraced), and
``final_checks()`` runs once per run.

Why these three (see README.md for the layer each one loads):

* ``fig6-sweep``   -- Figure 6: large monolithic UNSAT proofs; CDCL-bound.
* ``case-studies`` -- the six queries of §6.1 and §6.2: SAT search beside
  certified UNSAT proofs, incremental checks, composition and havoc.
* ``serve-mixed``  -- a served request mix of small models, two thirds of
  them repeats; admission, journal, cache, HTTP and parsing carry it.
"""

from __future__ import annotations

import dataclasses
import inspect
import random
import tempfile
import threading
from functools import partial

from repro.analysis.queries import starvation
from repro.backends.dafny import DafnyBackend
from repro.backends.fperf import FPerfBackend
from repro.backends.network import NetworkBackend
from repro.backends.smt_backend import SmtBackend, Status
from repro.client import ServiceClient
from repro.compiler.symexec import EncodeConfig
from repro.lang.checker import check_program
from repro.lang.parser import parse_program
from repro.netmodels.ccac.models import (
    AIMD_SRC,
    ccac_symbolic_network,
    path_program,
)
from repro.netmodels.schedulers import SCHEDULER_SOURCES, fq_buggy, fq_fixed
from repro.serve import AnalysisService, ReproServer, ServeConfig
from repro.smt.solver import CheckResult, SmtSolver
from repro.smt.terms import mk_and, mk_int, mk_le, mk_not, mk_or

import checks


def _serial_round(ops, timed):
    """Run ``(label, fn)`` ops in order: [(label, seconds, error, answer)]."""
    results = []
    for label, fn in ops:
        answer, seconds, error = timed(fn)
        results.append((label, seconds, error, answer))
    return results


def _check_each(results, check):
    """Check every answered op; returns the wrong-answer messages."""
    wrong = []
    for label, _, error, answer in results:
        if error is None:
            message = check(label, answer)
            if message:
                wrong.append(f"{label}: {message}")
    return wrong


# ----- fig6-sweep --------------------------------------------------------------

FIG6_CONFIG = EncodeConfig(buffer_capacity=5, arrivals_per_step=2)
FIG6_HORIZONS = range(1, 6)
FIG6_LABELS = ("ibs[0]", "ibs[1]")


def _dequeues(view):
    return view.deq_p(FIG6_LABELS[0]) + view.deq_p(FIG6_LABELS[1])


def total_work(view):
    """The Figure-6 VC: total dequeues never exceed total enqueues."""
    enq = view.enq_p(FIG6_LABELS[0]) + view.enq_p(FIG6_LABELS[1])
    return mk_le(_dequeues(view), enq)


class Fig6Sweep:
    """Monolithic Dafny-style verification of buggy FQ at T=1..5, one
    back end reused across the horizons in order, as a user sweeps."""

    name = "fig6-sweep"

    def __init__(self, seed, workdir):
        self.program = fq_buggy(2)

    def prepare(self):
        self.backend = DafnyBackend(self.program, config=FIG6_CONFIG,
                                    jobs=1, certify=False)

    def run_round(self, timed):
        ops = [
            (f"T={t}", partial(self.backend.verify_monolithic, t,
                               queries=[("total_work", total_work)]))
            for t in FIG6_HORIZONS
        ]
        return _serial_round(ops, timed)

    def check_round(self, results):
        # Conservation holds for any scheduler: every VC is VERIFIED.
        return _check_each(results, lambda label, report:
                           checks.check_vcs_verified(report, "verified"))

    def final_checks(self):
        """A planted false VC at T=2 fails, and its witness replays."""
        planted = DafnyBackend(self.program, config=FIG6_CONFIG, jobs=1,
                               certify=False).verify_monolithic(
            2, queries=[("planted", lambda v: mk_le(_dequeues(v),
                                                    mk_int(1)))])
        error = checks.check_vcs_verified(planted, "failed")
        if error:
            return [f"planted VC: {error}"]
        smt = SmtBackend(self.program, steps=2, config=FIG6_CONFIG, jobs=1,
                         certify=False)
        deq = smt.deq_count(FIG6_LABELS[0]) + smt.deq_count(FIG6_LABELS[1])
        result = smt.find_trace(mk_not(mk_le(deq, mk_int(1))))
        error = checks.check_dequeue_witness(
            self.program, result.counterexample,
            FIG6_CONFIG.buffer_capacity, FIG6_LABELS, 1)
        return [f"planted VC witness: {error}"] if error else []

    def close(self):
        pass


# ----- case-studies ------------------------------------------------------------

CS1_HORIZON = 6
CS1_CONFIG = EncodeConfig(buffer_capacity=6, arrivals_per_step=2)
CS2_HORIZON = 8
CS2_CAPACITY = 3
CLAMPED_HORIZON = 5
CLAMPED_CAPACITY = 6
CLAMPED_AIMD_SRC = AIMD_SRC.replace(
    "const int CWND_MAX = 8;", "const int CWND_MAX = 2;"
).replace("const int IW = 2;", "const int IW = 1;")
PATH_CONFIG = EncodeConfig(buffer_capacity=4, arrivals_per_step=2,
                           havoc_default=(0, 4))


class CertificateLog:
    """Records each UNSAT answer's certificate (``None`` if it had none).

    A pass-through wrapper on ``SmtSolver.check``, installed for the
    whole run so that traced and untraced runs execute the same code.
    """

    def __init__(self):
        self.certs = []
        original = inspect.getattr_static(SmtSolver, "check")
        log = self.certs

        def check(solver, *args, **kwargs):
            result = original(solver, *args, **kwargs)
            if result is CheckResult.UNSAT:
                log.append(solver.certificate)
            return result

        self._original = original
        SmtSolver.check = check

    def close(self):
        SmtSolver.check = self._original


def _ccac(capacity, programs=None):
    progs, connections, configs = ccac_symbolic_network(
        delay_steps=1, path_capacity=capacity)
    progs.update(programs or {})
    return progs, connections, configs


class CaseStudies:
    """§6.1 (CS1 starvation, its RFC fix, FPerf synthesis) and §6.2 (CCAC
    ack-burst loss, the clamped window, the modular path-server check)."""

    name = "case-studies"

    def __init__(self, seed, workdir):
        self.buggy = fq_buggy(2)
        self.fixed = fq_fixed(2)
        self.cs2 = _ccac(CS2_CAPACITY)
        self.clamped = _ccac(CLAMPED_CAPACITY, {
            "aimd": check_program(parse_program(CLAMPED_AIMD_SRC))})
        self.path = path_program()
        self.log = CertificateLog()

    def prepare(self):
        pass

    # One function per query: each builds its back end (symbolic
    # execution is part of answering) and asks one question.

    def _starvation(self, program, certify):
        backend = SmtBackend(program, steps=CS1_HORIZON, config=CS1_CONFIG,
                             jobs=1, certify=certify)
        return backend.find_trace(starvation(
            backend, "ibs[0]", max_service=1,
            competitors_min_service={"ibs[1]": CS1_HORIZON - 2}))

    def _fperf(self):
        fperf = FPerfBackend(self.buggy, steps=CS1_HORIZON,
                             config=CS1_CONFIG, jobs=1, certify=False)
        return fperf.synthesize_by_generalization(
            starvation(fperf.backend, "ibs[0]", max_service=1))

    def _network(self, net, horizon, query):
        programs, connections, configs = net
        backend = NetworkBackend(programs, connections, steps=horizon,
                                 configs=configs, jobs=1)
        # NetworkBackend takes no ``certify=`` keyword; the attribute is
        # what its solvers read.
        backend.certify = True
        return backend.find_trace(query(backend))

    @staticmethod
    def _ack_burst_loss(backend):
        bursts = [
            mk_le(backend.enq_count("aimd", "cin1", t - 1) + mk_int(3),
                  backend.enq_count("aimd", "cin1", t))
            for t in range(1, CS2_HORIZON)
        ]
        return mk_and(mk_or(*bursts),
                      mk_le(mk_int(1), backend.drop_count("path", "pin0")))

    @staticmethod
    def _loss(backend):
        return mk_le(mk_int(1), backend.drop_count("path", "pin0"))

    def _modular(self):
        def conservation(view):
            return mk_and(*[
                (view.deq_p(l) + view.backlog_p(l)).eq(view.enq_p(l))
                for l in view.buffer_labels()
            ])
        return DafnyBackend(self.path, config=PATH_CONFIG, jobs=1,
                            certify=True).verify_modular(conservation)

    def run_round(self, timed):
        ops = [
            ("cs1-buggy", partial(self._starvation, self.buggy, True)),
            ("cs1-fixed", partial(self._starvation, self.fixed, True)),
            ("cs1-fperf", self._fperf),
            ("cs2-ackburst", partial(self._network, self.cs2, CS2_HORIZON,
                                     self._ack_burst_loss)),
            ("cs2-clamped", partial(self._network, self.clamped,
                                    CLAMPED_HORIZON, self._loss)),
            ("cs2-modular", self._modular),
        ]
        return _serial_round(self._logged(ops), timed)

    def check_round(self, results):
        return _check_each(results, self.check)

    def _logged(self, ops):
        """Hand each op's new certificates to its check."""
        def run(fn):
            start = len(self.log.certs)
            answer = fn()
            return answer, self.log.certs[start:]
        return [(label, partial(run, fn)) for label, fn in ops]

    def check(self, label, logged):
        answer, certs = logged
        if label == "cs1-buggy":
            if answer.status is not Status.SATISFIED:
                return f"expected a trace, got {answer.status}"
            return checks.check_starvation(
                self.buggy, answer.counterexample,
                CS1_CONFIG.buffer_capacity, "ibs[0]", 1, "ibs[1]",
                CS1_HORIZON - 2)
        if label == "cs1-fperf":
            if not answer.ok:
                return "no workload synthesized"
            return checks.check_pacing(answer.workload)
        if label == "cs2-ackburst":
            if answer.status is not Status.SATISFIED:
                return f"expected a trace, got {answer.status}"
            programs, connections, configs = self.cs2
            capacities = {n: c.buffer_capacity for n, c in configs.items()}
            return checks.check_ack_burst_loss(
                programs, connections, capacities, answer.counterexample)
        if label == "cs2-modular":
            error = checks.check_vcs_verified(answer, "verified")
            return error or checks.check_certificates(certs, 2)
        # cs1-fixed and cs2-clamped: certified UNSAT.
        if answer.status is not Status.UNSATISFIABLE:
            return f"expected UNSAT, got {answer.status}"
        return checks.check_certificates(certs, 1)

    def final_checks(self):
        return []

    def close(self):
        self.log.close()


# ----- serve-mixed -------------------------------------------------------------

SERVE_SCHEDULERS = ("prio", "rr", "fq", "fq_fixed")
SERVE_CAPACITIES = (3, 4, 5, 6)
SERVE_CLIENTS = 2
SERVE_EXTRA_REPEATS = 9  # per client: 3 sends x 32 families + 9 = 105


@dataclasses.dataclass(frozen=True)
class Family:
    """One served model: a scheduler with one planted assertion.

    ``holds`` plants ``backlog-p(ibs[i]) >= 0``, true for any program
    since a backlog is a count.  Otherwise it plants
    ``backlog-p(ibs[i]) <= 1``, which two steps of two arrivals each
    break for any of these schedulers: each moves at most one packet
    per step, so ibs[i] holds 2 - 1 + 2 - 1 = 2 after step two (the
    capacity, at least 3, drops nothing).
    """

    index: int
    scheduler: str
    holds: bool
    target: int
    capacity: int

    @property
    def steps(self):
        return 3 if self.scheduler == "prio" else 2

    @property
    def expected(self):
        return "proved" if self.holds else "violated"

    def source(self, variant=False):
        body = SCHEDULER_SOURCES[self.scheduler].rstrip()
        bound = ">= 0" if self.holds else "<= 1"
        text = (body[:-1] + f"\n  assert(backlog-p(ibs[{self.target}])"
                f" {bound});}}\n")
        # A variant differs only in a comment: a new job whose formula
        # the result cache has already answered.
        return text + "// resubmitted\n" if variant else text


def serve_families():
    out = []
    for scheduler in SERVE_SCHEDULERS:
        for holds in (True, False):
            for target in (0, 1):
                for capacity in SERVE_CAPACITIES:
                    out.append(Family(len(out), scheduler, holds, target,
                                      capacity))
    return out


@dataclasses.dataclass(frozen=True)
class Send:
    key: int  # position in the round's send order
    client: int
    family: Family
    kind: str  # "fresh" | "variant" | "repeat"
    variant: bool
    op: tuple  # the same operation in every round, whatever its order

    @property
    def job(self):
        return (self.family.index, self.variant)

    @property
    def expected(self):
        return self.family.expected


def serve_sends(seed, round_index=0):
    """The seeded request sequence of one round.

    Client ``c`` owns the families with ``index % 2 == c``, so a repeat
    or variant always follows its first send on the same connection.
    Each family is sent fresh once, as a variant once, and repeated
    once; ``SERVE_EXTRA_REPEATS`` more repeats per client fall on jobs
    drawn from ``seed``.  Every round sends the same requests; the
    order is drawn from ``seed`` and the round, so that which requests
    overlap on the two connections varies within a run.
    """
    sends = []
    for client in range(SERVE_CLIENTS):
        picks = random.Random(seed * SERVE_CLIENTS + client)
        order = random.Random(f"{seed}/{round_index}/{client}")
        fams = [f for f in serve_families()
                if f.index % SERVE_CLIENTS == client]
        jobs = [(f, v) for f in fams for v in (False, True)]
        repeats = {job: 0 for job in jobs}
        for i in picks.sample(range(len(jobs)), SERVE_EXTRA_REPEATS):
            repeats[jobs[i]] += 1
        for f in fams:
            repeats[(f, False)] += 1
        ready = [("fresh", f, False, 0) for f in fams]
        while ready:
            kind, fam, variant, n = ready.pop(order.randrange(len(ready)))
            sends.append(Send(len(sends), client, fam, kind, variant,
                              (client, fam.index, variant, kind, n)))
            if kind == "fresh":
                ready.append(("variant", fam, True, 0))
            if kind != "repeat":
                ready += [("repeat", fam, variant, i)
                          for i in range(repeats[(fam, variant)])]
    return sends


class ServeMixed:
    """An in-process ``repro serve`` (one replica, spool in a temp dir)
    driven by two closed-loop client connections."""

    name = "serve-mixed"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.rounds = 0
        self.sends = serve_sends(seed)
        self.workdir = workdir
        self.service = self.server = None

    def prepare(self):
        self.sends = serve_sends(self.seed, self.rounds)
        self.rounds += 1
        spool = tempfile.mkdtemp(prefix="spool-", dir=self.workdir)
        # A tenant rate no request can exhaust: admission never refuses.
        self.service = AnalysisService(ServeConfig(
            port=0, spool_dir=spool, workers=SERVE_CLIENTS, jobs=1,
            certify=False, default_rate=1e9, default_burst=1e9))
        self.server = ReproServer(self.service)
        self.server.start_background()

    def run_round(self, timed):
        results = {}

        def client_loop(client):
            conn = ServiceClient(port=self.server.port, timeout=120.0)
            for send in self.sends:
                if send.client != client:
                    continue
                fam = send.family
                answer, seconds, error = timed(partial(
                    conn.analyze, fam.source(send.variant),
                    steps=fam.steps, consts={"N": 2},
                    options={"capacity": fam.capacity}, retry=False))
                if error is None and (answer.get("status") != 200 or
                                      answer.get("verdict") not in
                                      ("proved", "violated")):
                    error = f"no verdict: {answer}"
                results[send.op] = (send.kind, seconds, error, answer)

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(SERVE_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # In canonical order: position i is the same request every round.
        return [results[op] for op in sorted(results)]

    def check_round(self, results):
        try:
            by_op = dict(zip(sorted(s.op for s in self.sends),
                             (r[3] for r in results)))
            error = self._check([by_op[s.op] for s in self.sends])
        finally:
            self._stop()
        return [error] if error else []

    def _check(self, answers):
        error = checks.check_served(self.sends, answers)
        if error:
            return error
        # Every VIOLATED verdict's witness, read back through the
        # spool's result cache (no new solve), fails its assert
        # concretely.
        jobs, _ = self.service.runner.load()
        for send, answer in zip(self.sends, answers):
            if (send.kind != "fresh" or send.family.holds
                    or answer is None or answer.get("status") != 200):
                continue
            rec = jobs[answer["job_id"]]
            outcome = self.service.runner.execute_record(
                rec, jobs=1, certify=False)
            fam = send.family
            checked = check_program(parse_program(fam.source(),
                                                  consts={"N": 2}))
            error = checks.check_assert_witness(checked, outcome.witness,
                                                fam.capacity)
            if error:
                return f"request {send.key}: {error}"
        return None

    def _stop(self):
        if self.server is not None:
            self.server.stop_background()
            self.service.close()
            self.server = self.service = None

    def final_checks(self):
        return []

    def close(self):
        self._stop()


WORKLOADS = {w.name: w for w in (Fig6Sweep, CaseStudies, ServeMixed)}
