(** Executes the three basic approaches on a prepared workload and
    collects the measurements behind Tables 2 and 3 and Figure 6. *)

type times = { cnf : float; one : float; all : float }

type row = {
  label : string;
  p : int;                      (** injected errors *)
  m : int;                      (** tests actually used *)
  bsim_time : float;
  cov : times;
  bsat : Diagnosis.Outcome.t;  (** BSAT's run *)
  bsim_q : Diagnosis.Metrics.bsim_quality;
  cov_q : Diagnosis.Metrics.solution_quality;
  bsat_q : Diagnosis.Metrics.solution_quality;
  cov_solutions : int list list;
  cov_truncated : bool;
  error_sites : int list;
}

val run_row :
  ?max_solutions:int -> ?seconds:float -> Workload.prepared -> m:int -> row
(** Diagnose the faulty circuit with the first [m] tests, k = p.
    [seconds] bounds COV and BSAT each with a fresh wall-clock
    {!Sat.Budget} of that many seconds. *)

val run :
  ?max_solutions:int -> ?seconds:float -> Workload.prepared -> row list
(** One row per configured m (skipping m values for which not enough
    failing tests exist). *)
