"""The layer ledger: per-layer self time and counts, traced from outside.

``Ledger.install()`` wraps public entry points of each ``repro`` module
in place (the class attribute, and every loaded ``repro`` module that
bound the function by name); nothing under ``src/`` changes.  A wrapped
call's *self time* is its wall time minus the time of wrapped calls
nested inside it.  Nesting follows a ``ContextVar`` stack, so it
crosses from a serve request's coroutine into the worker thread that
runs its solve (``run_in_executor`` under a copied context).  The one
hop a context cannot cross, client to server over HTTP, is joined by
the request's ``traceparent``: the server's wall time for a request is
subtracted from the client call's, leaving ``serve.transport_s``.

The harness opens a root frame (layer ``other``) around each timed
operation, so ``other_s`` is the part of the operations' time that no
wrapped call accounts for.  Layer times plus ``other_s`` add up to the
summed operation time: ``wall_s`` on the serial workloads.
"""

from __future__ import annotations

import contextvars
import dataclasses
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


_STACK: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_stack", default=())

SAT_COUNTERS = ("conflicts", "decisions", "propagations", "restarts",
                "learned", "inprocessings")

#: Layers timed by self time, reported as ``<layer>_s``, in report order.
TIME_LAYERS = (
    "lang.parse", "lang.typecheck", "compiler.symexec", "smt.simplify",
    "smt.bitblast", "smt.solver", "smt.sat.cdcl", "trust.drat_check",
    "backends.self", "persist.journal_append", "serve.service",
    "serve.transport", "other",
)
COUNTS = (
    "lang.programs", "compiler.machines", "compiler.steps", "smt.checks",
    "smt.cnf_vars", "smt.cnf_clauses", "smt.sat.solves",
    *(f"smt.sat.{name}" for name in SAT_COUNTERS),
    "trust.proof_steps", "backends.queries", "engine.cache_hits",
    "engine.cache_misses", "persist.journal_appends", "serve.replayed",
    "serve.rejected",
)


class Ledger:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self._lock = threading.Lock()
        self._server_wall: dict[str, float] = {}

    # ----- accounting ---------------------------------------------------

    def _enter(self):
        frame = _Frame()
        stack = _STACK.get()
        return frame, stack, _STACK.set(stack + (frame,)), time.perf_counter()

    def _exit(self, layer, frame, stack, token, t0, extra_child=0.0):
        dt = time.perf_counter() - t0
        _STACK.reset(token)
        with self._lock:
            self.self_s[layer] += dt - frame.child - extra_child
            if stack:
                stack[-1].child += dt

    def root(self, fn, *args):
        """Time ``fn(*args)`` as one operation (root frame ``other``)."""
        frame, stack, token, t0 = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit("other", frame, stack, token, t0)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # ----- wrapping -----------------------------------------------------

    def _wrap(self, owner, attr, layer, before=None, after=None):
        """Replace ``owner.attr`` with a timed wrapper.

        ``before(args, kwargs)`` returns a state handed to
        ``after(state, args, kwargs, result)``, which may return extra
        seconds to subtract from this call's self time (the server half
        of a client request).  ``layer=None`` counts without timing.
        """
        original = inspect.getattr_static(owner, attr)
        ledger = self

        if inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                if not ledger.active:
                    return await original(*args, **kwargs)
                state = before(args, kwargs) if before else None
                frame, stack, token, t0 = ledger._enter()
                extra = 0.0
                try:
                    result = await original(*args, **kwargs)
                    if after:
                        extra = after(state, args, kwargs, result) or 0.0
                    return result
                finally:
                    ledger._exit(layer, frame, stack, token, t0, extra)
        elif layer is None:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if ledger.active and after:
                    after(None, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                if not ledger.active:
                    return original(*args, **kwargs)
                state = before(args, kwargs) if before else None
                frame, stack, token, t0 = ledger._enter()
                extra = 0.0
                try:
                    result = original(*args, **kwargs)
                    if after:
                        extra = after(state, args, kwargs, result) or 0.0
                    return result
                finally:
                    ledger._exit(layer, frame, stack, token, t0, extra)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        if inspect.ismodule(owner):
            # Modules that did ``from x import f`` hold their own binding.
            for mod in list(sys.modules.values()):
                if (mod is not owner and getattr(mod, "__name__", "")
                        .startswith("repro") and
                        getattr(mod, attr, None) is original):
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        mod = importlib.import_module
        parser = mod("repro.lang.parser")
        checker = mod("repro.lang.checker")
        symexec = mod("repro.compiler.symexec")
        composition = mod("repro.compiler.composition")
        simplify = mod("repro.smt.simplify")
        bitblast = mod("repro.smt.bitblast")
        solver = mod("repro.smt.solver")
        cdcl = mod("repro.smt.sat.cdcl")
        drat = mod("repro.trust.drat")
        dafny = mod("repro.backends.dafny")
        smt_backend = mod("repro.backends.smt_backend")
        fperf = mod("repro.backends.fperf")
        network = mod("repro.backends.network")
        cache = mod("repro.engine.cache")
        journal = mod("repro.persist.journal")
        service = mod("repro.serve.service")
        client = mod("repro.client")

        def counter(name):
            return lambda state, args, kwargs, result: self.count(name)

        self._wrap(parser, "parse_program", "lang.parse",
                   after=counter("lang.programs"))
        self._wrap(checker, "check_program", "lang.typecheck")

        self._wrap(symexec.SymbolicMachine, "__init__", "compiler.symexec",
                   after=counter("compiler.machines"))
        self._wrap(symexec.SymbolicMachine, "exec_step", "compiler.symexec",
                   after=counter("compiler.steps"))
        self._wrap(composition.SymbolicNetwork, "__init__",
                   "compiler.symexec")
        self._wrap(composition.SymbolicNetwork, "exec_step",
                   "compiler.symexec")

        self._wrap(simplify, "simplify", "smt.simplify")
        self._wrap(bitblast.BitBlaster, "assert_formula", "smt.bitblast")
        self._wrap(bitblast.BitBlaster, "literal_for", "smt.bitblast")

        def cnf_after(state, args, kwargs, result):
            # Count only growth: an incremental solver's CNF persists
            # across checks, so its size is not summed again each time.
            stats = args[0].stats
            seen = getattr(args[0], "_perfbench_cnf", (0, 0))
            vars_, clauses = stats.cnf_vars, stats.cnf_clauses
            self.count("smt.checks")
            self.count("smt.cnf_vars", max(0, vars_ - seen[0]))
            self.count("smt.cnf_clauses", max(0, clauses - seen[1]))
            args[0]._perfbench_cnf = (max(vars_, seen[0]),
                                      max(clauses, seen[1]))

        self._wrap(solver.SmtSolver, "check", "smt.solver",
                   after=cnf_after)

        def sat_before(args, kwargs):
            return dataclasses.replace(args[0].stats)

        def sat_after(state, args, kwargs, result):
            now = args[0].stats
            self.count("smt.sat.solves")
            for name in SAT_COUNTERS:
                self.count(f"smt.sat.{name}",
                           getattr(now, name) - getattr(state, name))

        self._wrap(cdcl.CDCLSolver, "solve", "smt.sat.cdcl",
                   before=sat_before, after=sat_after)

        def proof_after(state, args, kwargs, result):
            steps = args[2] if len(args) > 2 else kwargs["steps"]
            self.count("trust.proof_steps", len(steps))

        self._wrap(drat, "check_drat", "trust.drat_check", after=proof_after)

        query = counter("backends.queries")
        for owner, attr in (
            (dafny.DafnyBackend, "verify_monolithic"),
            (dafny.DafnyBackend, "verify_modular"),
            (smt_backend.SmtBackend, "find_trace"),
            (smt_backend.SmtBackend, "check_assertions"),
            (smt_backend.SmtBackend, "prove"),
            (fperf.FPerfBackend, "synthesize_by_generalization"),
            (network.NetworkBackend, "find_trace"),
        ):
            self._wrap(owner, attr, "backends.self", after=query)
        for owner in (dafny.DafnyBackend, smt_backend.SmtBackend,
                      fperf.FPerfBackend, network.NetworkBackend):
            self._wrap(owner, "__init__", "backends.self")

        def cache_after(state, args, kwargs, result):
            self.count("engine.cache_misses" if result is None
                       else "engine.cache_hits")

        self._wrap(cache.ResultCache, "get", None, after=cache_after)
        self._wrap(journal.Journal, "append", "persist.journal_append",
                   after=counter("persist.journal_appends"))

        def service_before(args, kwargs):
            return time.perf_counter()

        def service_after(state, args, kwargs, result):
            status, body = result
            if status in (429, 503):
                self.count("serve.rejected")
            if isinstance(body, dict) and body.get("replayed"):
                self.count("serve.replayed")
            traceparent = kwargs.get("traceparent")
            if traceparent is None and len(args) > 3:
                traceparent = args[3]
            if traceparent is not None:
                with self._lock:
                    self._server_wall[traceparent] = \
                        time.perf_counter() - state

        self._wrap(service.AnalysisService, "analyze", "serve.service",
                   before=service_before, after=service_after)

        def client_after(state, args, kwargs, result):
            with self._lock:
                return self._server_wall.pop(args[0].last_traceparent, 0.0)

        self._wrap(client.ServiceClient, "analyze", "serve.transport",
                   after=client_after)

    # ----- report -------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round self times and counts."""
        out = {}
        for layer in TIME_LAYERS:
            out[f"{layer}_s"] = self.self_s.get(layer, 0.0) / rounds
        for name in COUNTS:
            out[name] = self.counts.get(name, 0) / rounds
        return out
