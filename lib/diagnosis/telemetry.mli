(** One shared vocabulary for engine telemetry: every SAT-backed
    diagnosis engine snapshots its solver counters into an {!Obs.t}
    under ["<prefix>/<field>"] keys, so the CLI's [--stats] block and
    the bench harness's report JSON agree on field names.

    All values recorded here are deterministic under a fixed seed
    (solver counters, solution counts), so the resulting
    [Obs.emit ~times:false] output is bit-reproducible. *)

val record_solver_stats : Obs.t -> prefix:string -> Sat.Solver.stats -> unit
(** Accumulate decisions/propagations/conflicts/restarts/learned/
    learned_total/deleted under ["prefix/..."] counters. *)

val phase : Obs.t option -> string -> ?payload:('a -> int) -> (unit -> 'a) -> 'a
(** [phase obs name f] brackets the thunk with [Begin]/[End] events when
    a registry is present (and is [f ()] otherwise).  The [End] event
    carries [payload result] when given (a solution count, say); on an
    exception the [End] event is still emitted (payload 0) and the
    exception propagates.  Event names reuse the counter vocabulary
    (["bsat/solve"], ["advsat/pass1"], ...), so a trace viewer groups
    them by engine. *)

val observe : Obs.t option -> string -> int -> unit
(** {!Obs.observe} when a registry is present. *)

val instant : Obs.t option -> ?payload:int -> string -> unit
(** {!Obs.instant} when a registry is present. *)
