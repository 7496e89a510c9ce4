(** One diagnosis request against a (possibly warm) incremental
    context: the clean encode-once / solve-per-request interface the
    server schedules, also used verbatim by the CLI's
    [run --method incremental] so a served response is byte-identical
    to a one-shot run of the same request. *)

val run :
  ?obs:Obs.t ->
  ?budget:Sat.Budget.t ->
  max_solutions:int ->
  Diagnosis.Incremental.t ->
  Diagnosis.Incremental.result
(** Serve one request from the context: {!Diagnosis.Incremental.solutions}'
    per-call result — the request's solutions, truncation flag,
    certificates and solver-counter delta (whose [conflicts] feed the
    server's per-request effort sketch).

    [obs] is (re-)attached to the context first
    ({!Diagnosis.Incremental.attach}), so a pooled registry that was
    {!Obs.reset} between requests records this request's events and
    per-conflict histograms from scratch.  It then records the
    request's deterministic stats: the outcome's solver-counter delta
    under ["incremental/…"] plus ["incremental/solutions"],
    ["incremental/tests"], ["incremental/truncated"] and
    ["incremental/cert_checks"], and ["incremental/reused"] /
    ["incremental/revalidated"] when non-zero.  Solver counters are
    cumulative on a warm solver; the recorded stats are the
    {e per-request delta} (the [learned] gauge is the current value),
    so a request's stats block ([Obs.to_json ~times:false] of the
    registry) depends only on the context's state and the request —
    deterministic under a fixed seed.

    [budget] is re-anchored at call time ({!Sat.Budget.renewed}): a
    budget created when the request was enqueued does not charge queue
    wait against solve time.  Every request runs on the context's one
    live solver; the server's parallelism lives across requests. *)
