(** The one result record of the SAT-backed engines.

    Every SAT-side engine answers the paper's question (Fig. 3, Lemmas 1
    and 3) — which valid corrections of size [<= k] exist — and reports
    what the solver spent finding them.  {!Bsat}, {!Hitting},
    {!Advanced_sat}, {!Hybrid}, {!Adaptive} and {!Incremental} all return
    this record; an engine with figures of its own keeps them beside one
    [Outcome.t] field. *)

type t = {
  solutions : int list list;
      (** essential valid corrections, each sorted, in canonical
          (cardinality, then lexicographic) order ({!Solutions}) *)
  truncated : bool;
      (** hit the solution cap or the solver budget; the enumerated
          prefix is still sound (every solution valid) *)
  solver_calls : int;  (** SAT oracle invocations *)
  stats : Sat.Solver.stats;  (** solver counters *)
  cert_checks : int;
      (** with [certify]: solver answers independently verified (0
          otherwise) *)
  cert_failures : string list;
      (** with [certify]: verification failures — [[]] on a healthy
          build.  A non-empty list means a solver or checker bug; the
          diagnosis itself is unchanged. *)
  cnf_time : float;
      (** instance construction (paper "CNF"); this and the two times
          below are wall-clock seconds ({!Obs.Clock.wall}) *)
  one_time : float;  (** time to the first solution (paper "One") *)
  all_time : float;
      (** full enumeration time after the CNF is built (paper "All") *)
}

val empty : t
(** No solutions, no work, not truncated. *)

val sum : t list -> t
(** The runs of one request taken together: solutions concatenated in
    order, [truncated] if any run was, calls, counters and certificates
    added up.  The times are 0: the runs follow one another, so the
    engine that sums them sets the times of the whole itself. *)

val record : Obs.t -> prefix:string -> t -> unit
(** Record the outcome under ["<prefix>/..."]: the solver counters
    ({!Sat.Solver.stats_fields}) plus ["solutions"], ["solver_calls"] and
    ["truncated"] (0/1) counters, a ["solution_size"] histogram, and
    ["cnf"]/["solve"] spans ([cnf_time], [all_time]).  Every counter is deterministic under a fixed seed. *)
