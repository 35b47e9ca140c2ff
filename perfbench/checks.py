"""Answer checks that do not trust the solver under test.

Every check here re-derives the expected answer another way: from the
way a query was built, from the concrete reference interpreter, or from
the independent DRAT checker.  Each returns ``None`` when the answer is
right and a one-line reason when it is not; ``test_checks.py`` shows
that each one rejects a wrong answer.
"""

from __future__ import annotations

from repro.buffers.concrete import ListBuffer
from repro.compiler.composition import ConcreteNetwork
from repro.lang.interp import Interpreter, ScriptedOracle, TraceInfeasible
from repro.trust import DratError, check_drat


def _buffer(interp, label):
    if label.endswith("]"):
        name, _, index = label.partition("[")
        return interp.buffer(name, int(index[:-1]))
    return interp.buffer(label)


def run_concrete(checked, trace, capacity):
    """Replay a decoded trace (arrivals + havocs) on the interpreter."""
    interp = Interpreter(
        checked, buffer_factory=ListBuffer, buffer_capacity=capacity,
        oracle=ScriptedOracle(trace.havocs),
    )
    return interp, interp.run(trace.workload())


def check_vcs_verified(report, expected):
    """Every VC of a Dafny report VERIFIED (or FAILED when planted)."""
    statuses = [vc.status.value for vc in report.vcs]
    if not statuses or any(s != expected for s in statuses):
        return f"expected every VC {expected}, got {statuses}"
    return None


def replays(check):
    """A trace whose havocs break an ``assume`` is no witness at all."""
    def guarded(*args):
        try:
            return check(*args)
        except TraceInfeasible as exc:
            return f"trace is infeasible on the interpreter: {exc}"
    guarded.__doc__ = check.__doc__
    return guarded


@replays
def check_dequeue_witness(checked, trace, capacity, labels, limit):
    """The planted VC 'total dequeues <= limit' is refuted concretely."""
    if trace is None:
        return "violated VC came back without a witness"
    interp, _ = run_concrete(checked, trace, capacity)
    total = sum(_buffer(interp, l).stats.dequeued_packets for l in labels)
    if total <= limit:
        return (f"witness replays to {total} dequeues, which does not"
                f" exceed {limit}")
    return None


@replays
def check_starvation(checked, trace, capacity, victim, max_service,
                     competitor, min_competitor):
    """Victim backlogged at every step yet barely served; competitor
    served at least ``min_competitor`` times — on the interpreter."""
    if trace is None:
        return "SAT answer came back without a trace"
    interp, run = run_concrete(checked, trace, capacity)
    backlogs = [step.buffer_backlogs[victim] for step in run.steps]
    if len(backlogs) != trace.horizon or min(backlogs) < 1:
        return f"victim {victim} not backlogged throughout: {backlogs}"
    served = _buffer(interp, victim).stats.dequeued_packets
    if served > max_service:
        return f"victim served {served} > {max_service}"
    rival = _buffer(interp, competitor).stats.dequeued_packets
    if rival < min_competitor:
        return f"competitor served {rival} < {min_competitor}"
    return None


def check_certificates(certs, expected):
    """``expected`` UNSAT answers, each with a DRAT proof that replays."""
    if len(certs) != expected or any(c is None for c in certs):
        return (f"expected {expected} certified UNSAT answers,"
                f" got {len(certs)} ({sum(c is None for c in certs)}"
                f" without a certificate)")
    for cert in certs:
        try:
            check_drat(cert.num_vars, cert.clauses, cert.steps,
                       core=cert.core)
        except DratError as exc:
            return f"certificate rejected: {exc}"
    return None


def check_pacing(workload):
    """FPerf's workload must pace the competitor once per step."""
    text = str(workload)
    if "arrivals(ibs[1], t) >= 1" not in text:
        return f"no competitor-pacing condition in W = {text}"
    return None


def replay_network(programs, connections, capacities, trace, watch):
    """Replay a composed-network trace; returns the interpreters and,
    per step, the enqueue count of each ``program.buffer`` in ``watch``."""
    net = ConcreteNetwork(programs, connections)
    net.interpreters = {
        name: Interpreter(
            checked, buffer_factory=ListBuffer,
            buffer_capacity=capacities[name],
            oracle=ScriptedOracle({
                key[1:]: value for key, value in trace.havocs.items()
                if key[0] == name
            }),
        )
        for name, checked in programs.items()
    }
    series: dict[str, list[int]] = {key: [] for key in watch}
    for arrivals in trace.workload():
        external: dict[str, dict] = {}
        for key, packets in arrivals.items():
            prog, _, label = key.partition(".")
            external.setdefault(prog, {})[label] = packets
        net.step(external)
        for key in watch:
            prog, _, label = key.partition(".")
            buf = _buffer(net.interpreters[prog], label)
            series[key].append(buf.stats.enqueued_packets)
    return net.interpreters, series


@replays
def check_ack_burst_loss(programs, connections, capacities, trace):
    """CS2: the replayed network drops at ``path.pin0`` and the sender
    sees an ack burst (three or more acks enqueued in one step)."""
    if trace is None:
        return "SAT answer came back without a trace"
    interps, series = replay_network(programs, connections, capacities,
                                     trace, ["aimd.cin1"])
    drops = _buffer(interps["path"], "pin0").stats.dropped_packets
    if drops < 1:
        return "replay shows no loss at path.pin0"
    acks = series["aimd.cin1"]
    if not any(b - a >= 3 for a, b in zip(acks, acks[1:])):
        return f"replay shows no ack burst at aimd.cin1: {acks}"
    return None


@replays
def check_assert_witness(checked, trace, capacity):
    """A served VIOLATED verdict's witness fails an assert concretely."""
    if trace is None:
        return "violated verdict has no witness"
    _, run = run_concrete(checked, trace, capacity)
    if not run.violations:
        return "witness replays without violating any assert"
    return None


def check_served(sends, answers):
    """Serve-mixed: each verdict matches how its request was built, and
    each exact repeat returns the verdict and job id of its first send."""
    first: dict[tuple, dict] = {}
    by_family: dict = {}
    for send, ans in zip(sends, answers):
        if ans is None or ans.get("status") != 200:
            continue  # a failed operation, counted as such by the harness
        if ans.get("verdict") != send.expected:
            return (f"request {send.key} built {send.expected},"
                    f" served {ans.get('verdict')}")
        if send.kind == "repeat":
            orig = first.get(send.job)
            if orig is None:
                continue  # its first send failed
            if ans.get("job_id") != orig["job_id"] or not ans.get("replayed"):
                return f"repeat {send.key} did not replay its first send"
        else:
            if send.job in first:
                return f"request {send.key} was answered twice as new"
            first[send.job] = ans
            if send.kind == "variant":
                if by_family.get(send.family) == ans.get("job_id"):
                    return f"variant {send.key} reused its original job"
            else:
                by_family[send.family] = ans.get("job_id")
    return None
