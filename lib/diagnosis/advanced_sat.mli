(** Advanced SAT-based diagnosis heuristics (§2.3, after Smith et al.).

    Three techniques on top of BSAT, none of which changes the reported
    solutions being valid corrections:

    - the s=0 ⇒ c=0 rule, which holds by construction: an unselected
      gate's multiplexer has no free correction input
      ({!Encode.Muxed});
    - two-pass dominator diagnosis: multiplexers first only at the
      dominator skeleton (gates that dominate others, plus outputs), then
      refinement with multiplexers inside the implicated dominated
      regions;
    - test-set partitioning: enumerate on a slice of the tests, keep the
      candidates, refine with the next slice, and finally validate
      against the complete test set.

    The two-pass and partitioned variants are sound (every returned set
    is a valid correction, SAT-checked against all tests) but — as in the
    original tool — the refinement is heuristic, so rare corrections
    outside the implicated regions can be missed. *)

type result = {
  outcome : Outcome.t;
      (** the final solutions; [truncated] if any underlying pass hit
          its budget or solution cap (the reported solutions are still
          individually valid); solver calls and certificates summed over
          all passes; [stats] from the final pass; [cnf_time] the passes'
          CNF builds added up, [all_time] the rest of the run, [one_time]
          0 (the passes answer one after another) *)
  pass1_solutions : int list list; (** coarse (dominator / first-slice) *)
}

val diagnose_dominators :
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?certify:bool ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result
(** [budget] is shared across both passes: the refinement pass only gets
    whatever allowance the skeleton pass left over.  [obs] records the
    outcome under ["advsat/dominators/..."] ({!Outcome.record}) and
    brackets the passes with
    ["advsat/pass1"]/["advsat/pass2"] [Begin]/[End] events ([End]
    payload = pass solution count).  [certify] verifies every underlying
    solver answer ({!Bsat.diagnose}). *)

val diagnose_partitioned :
  ?slice:int ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?certify:bool ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result
(** [slice] — number of tests per partition (default 8).  [budget] is
    shared across all slices; [obs] records the run under
    ["advsat/partitioned/..."] with one ["advsat/slice"] [Begin]/[End]
    event pair per solved slice. *)
