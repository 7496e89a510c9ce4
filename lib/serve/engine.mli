(** One diagnosis request against a (possibly warm) incremental
    context: the clean encode-once / solve-per-request interface the
    server schedules, also used verbatim by the CLI's
    [run --method incremental] so a served response is byte-identical
    to a one-shot run of the same request. *)

type outcome = {
  solutions : int list list;
      (** essential valid corrections, canonical order *)
  truncated : bool;    (** enumeration cut short by the budget *)
  cert_checks : int;   (** solver answers verified {e by this request} *)
  cert_failures : string list;  (** this request's verification failures *)
  conflicts : int;
      (** this request's solver-conflict delta (0 under the [jobs > 1]
          portfolio, which bypasses the live solver) — always computed,
          with or without [obs]; the server feeds it into its
          per-request effort sketch *)
  reused : int;
      (** solutions this request answered from the context's carried
          answer ({!Diagnosis.Incremental.reused} delta) *)
  revalidated : int;
      (** carried solutions this request re-checked by simulation
          ({!Diagnosis.Incremental.revalidated} delta) *)
  stats : Obs.Json.t option;
      (** with [obs]: the request's deterministic stats block —
          [Obs.to_json ~times:false] of the registry after recording
          this request's solver-counter deltas under ["incremental/…"]
          plus ["incremental/solutions"], ["incremental/tests"],
          ["incremental/truncated"] and ["incremental/cert_checks"], and
          ["incremental/reused"] / ["incremental/revalidated"] when
          non-zero *)
}

val run :
  ?obs:Obs.t ->
  ?budget:Sat.Budget.t ->
  ?jobs:int ->
  max_solutions:int ->
  Diagnosis.Incremental.t ->
  outcome
(** Serve one request from the context.

    [obs] is (re-)attached to the context first
    ({!Diagnosis.Incremental.attach}), so a pooled registry that was
    {!Obs.reset} between requests records this request's events and
    per-conflict histograms from scratch.  Solver counters are
    cumulative on a warm solver; the recorded stats are the
    {e per-request delta} (the [learned] gauge is the current value),
    so a request's stats block depends only on the context's state and
    the request — deterministic under a fixed seed.

    [budget] is re-anchored at call time ({!Sat.Budget.renewed}): a
    budget created when the request was enqueued does not charge queue
    wait against solve time.

    [jobs] > 1 uses the solver portfolio
    ({!Diagnosis.Incremental.solutions}) — the live solver is bypassed,
    so the recorded solver-counter deltas are zero; the server always
    runs requests at [jobs = 1], parallelism lives across requests. *)
