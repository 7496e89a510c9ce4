(** Advanced simulation-based diagnosis (§2.2, in the spirit of
    ErrorTracer / Veneris-Hajj / incremental fault diagnosis).

    A backtrack search over the PT-marked gates, ordered by mark count
    M(g), with *simulation-based effect analysis* at every node: a partial
    candidate set is extended only towards tests it cannot yet rectify,
    and a set is reported once per-test resimulation proves it a valid
    correction.  Reported solutions are therefore always valid; like the
    published advanced simulation approaches the search is restricted to
    marked gates, so some corrections BSAT finds may be missed
    (Theorem 2's direction). *)

type result = {
  bsim : Bsim.result;
  solutions : int list list;  (** valid corrections, sorted, essential *)
  sim_time : float;
  search_time : float;
  truncated : bool;
}

val diagnose :
  ?tie_break:Path_trace.tie_break ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result
(** [budget] bounds the backtrack search: every node checks
    {!Sat.Budget.exhausted}.  The search makes no solver calls, so
    nothing charges the conflict and propagation allowances; in practice
    the wall-clock deadline is what runs out.  On exhaustion the result
    is [truncated] and holds the corrections found so far. *)
