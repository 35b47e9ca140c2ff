"""Each answer check accepts a right answer and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py -q

Right answers come from real solves of the benchmark's own queries
(the CCAC ack-burst one takes about ten seconds); wrong ones are the
same answers with a flipped verdict, a corrupted trace or a tampered
proof.
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from repro import analyze  # noqa: E402
from repro.backends.dafny import DafnyBackend, VCStatus  # noqa: E402
from repro.backends.smt_backend import SmtBackend  # noqa: E402
from repro.compiler.symexec import EncodeConfig  # noqa: E402
from repro.lang.checker import check_program  # noqa: E402
from repro.lang.parser import parse_program  # noqa: E402
from repro.netmodels.schedulers import fq_buggy  # noqa: E402
from repro.smt.terms import mk_int, mk_le, mk_not  # noqa: E402


def without_arrivals(trace, keep=lambda key: False):
    return dataclasses.replace(trace, arrivals=[
        {k: v for k, v in step.items() if keep(k)}
        for step in trace.arrivals
    ])


@pytest.fixture(scope="module")
def cases():
    studies = wl.CaseStudies(1, None)
    yield studies
    studies.close()


def test_vc_verdicts_reject_a_flipped_verdict():
    report = DafnyBackend(fq_buggy(2), config=wl.FIG6_CONFIG, jobs=1,
                          certify=False).verify_monolithic(
        2, queries=[("total_work", wl.total_work)])
    assert checks.check_vcs_verified(report, "verified") is None
    flipped = dataclasses.replace(report, vcs=[
        dataclasses.replace(vc, status=VCStatus.FAILED) for vc in report.vcs
    ])
    assert checks.check_vcs_verified(flipped, "verified")
    assert checks.check_vcs_verified(report, "failed")


def test_planted_witness_rejects_a_corrupted_trace():
    program = fq_buggy(2)
    smt = SmtBackend(program, steps=2, config=wl.FIG6_CONFIG, jobs=1,
                     certify=False)
    deq = smt.deq_count("ibs[0]") + smt.deq_count("ibs[1]")
    trace = smt.find_trace(mk_not(mk_le(deq, mk_int(1)))).counterexample
    args = (program, wl.FIG6_CONFIG.buffer_capacity, wl.FIG6_LABELS, 1)
    assert checks.check_dequeue_witness(program, trace, *args[1:]) is None
    assert checks.check_dequeue_witness(program, without_arrivals(trace),
                                        *args[1:])
    assert checks.check_dequeue_witness(program, None, *args[1:])


def test_starvation_rejects_a_corrupted_trace(cases):
    result = cases._starvation(cases.buggy, False)
    args = (wl.CS1_CONFIG.buffer_capacity, "ibs[0]", 1, "ibs[1]",
            wl.CS1_HORIZON - 2)
    assert checks.check_starvation(cases.buggy, result.counterexample,
                                   *args) is None
    # Without the competitor's paced packets the victim is served.
    paced_away = without_arrivals(result.counterexample,
                                  keep=lambda key: key == "ibs[0]")
    assert checks.check_starvation(cases.buggy, paced_away, *args)
    assert checks.check_starvation(cases.buggy, None, *args)


def test_certificates_reject_a_tampered_proof(cases):
    start = len(cases.log.certs)
    assert cases._starvation(cases.fixed, True).status.value == "unsat"
    certs = cases.log.certs[start:]
    assert checks.check_certificates(certs, 1) is None
    cert = certs[0]
    assert cert.steps, "the refutation should need a proof"
    # A lemma with its literals negated is not implied by the CNF.
    i = next(i for i, step in enumerate(cert.steps)
             if step[0] == "a" and len(step[1]) > 1)
    flipped = list(cert.steps)
    flipped[i] = ("a", tuple(-lit for lit in flipped[i][1]))
    assert checks.check_certificates(
        [dataclasses.replace(cert, steps=flipped)], 1)
    half = cert.steps[:len(cert.steps) // 2]
    assert checks.check_certificates(
        [dataclasses.replace(cert, steps=half)], 1)
    assert checks.check_certificates([None], 1)
    assert checks.check_certificates([], 1)


def test_pacing_rejects_a_workload_without_it():
    assert checks.check_pacing(
        "arrivals(ibs[0], 0) >= 2 AND arrivals(ibs[1], t) >= 1 for t >= 1"
    ) is None
    assert checks.check_pacing("arrivals(ibs[0], 0) >= 2")


def test_ack_burst_loss_rejects_a_corrupted_trace(cases):
    result = cases._network(cases.cs2, wl.CS2_HORIZON, cases._ack_burst_loss)
    programs, connections, configs = cases.cs2
    caps = {name: cfg.buffer_capacity for name, cfg in configs.items()}
    trace = result.counterexample
    assert checks.check_ack_burst_loss(programs, connections, caps,
                                       trace) is None
    # With nothing to send the sender overflows nothing.
    assert checks.check_ack_burst_loss(programs, connections, caps,
                                       without_arrivals(trace))
    # A refill the path's envelope forbids is not a trace at all.
    greedy = dataclasses.replace(trace, havocs={
        key: (3 if key[0] == "path" else value)
        for key, value in trace.havocs.items()
    })
    assert checks.check_ack_burst_loss(programs, connections, caps, greedy)
    assert checks.check_ack_burst_loss(programs, connections, caps, None)


def test_assert_witness_rejects_a_corrupted_trace():
    fam = wl.Family(0, "rr", False, 0, 4)
    checked = check_program(parse_program(fam.source(), consts={"N": 2}))
    outcome = analyze(fam.source(), steps=fam.steps, consts={"N": 2}, jobs=1,
                      certify=False, config=EncodeConfig(buffer_capacity=4,
                                                         arrivals_per_step=2))
    assert outcome.verdict.value == "violated"
    assert checks.check_assert_witness(checked, outcome.witness, 4) is None
    assert checks.check_assert_witness(
        checked, without_arrivals(outcome.witness), 4)
    assert checks.check_assert_witness(checked, None, 4)


def served_answers(sends):
    """The answers a correct server gives: one job per first send."""
    answers, jobs = [], {}
    for send in sends:
        fresh = send.job not in jobs
        job = jobs.setdefault(send.job, f"job-{len(jobs)}")
        answers.append({"status": 200, "verdict": send.expected,
                        "job_id": job, "replayed": not fresh})
    return answers


def test_served_rejects_flipped_verdicts_and_lost_replays():
    sends = wl.serve_sends(7)
    assert len(sends) >= 200
    repeats = [s for s in sends if s.kind == "repeat"]
    assert len(repeats) + sum(s.kind == "variant" for s in sends) \
        >= 2 * len(sends) // 3
    good = served_answers(sends)
    assert checks.check_served(sends, good) is None

    flipped = [dict(a) for a in good]
    flipped[0]["verdict"] = ("proved" if flipped[0]["verdict"] == "violated"
                             else "violated")
    assert checks.check_served(sends, flipped)

    k = repeats[0].key
    for change in ({"job_id": "job-elsewhere"}, {"replayed": False}):
        lost = [dict(a) for a in good]
        lost[k].update(change)
        assert checks.check_served(sends, lost)


def test_serve_sends_follow_the_seed():
    def ops(seed, round_index):
        return sorted(s.op for s in wl.serve_sends(seed, round_index))

    assert wl.serve_sends(3, 1) == wl.serve_sends(3, 1)
    assert wl.serve_sends(3, 0) != wl.serve_sends(3, 1)
    # Every round of a run sends the same requests in another order.
    assert ops(3, 0) == ops(3, 1)
    # Another seed moves only the extra repeats.
    first = [op for op in ops(3, 0) if op[3] != "repeat"]
    assert first == [op for op in ops(4, 0) if op[3] != "repeat"]
    assert len(ops(3, 0)) == len(ops(4, 0))
