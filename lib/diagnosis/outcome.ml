type t = {
  solutions : int list list;
  truncated : bool;
  solver_calls : int;
  stats : Sat.Solver.stats;
  cert_checks : int;
  cert_failures : string list;
  cnf_time : float;
  one_time : float;
  all_time : float;
}

let empty =
  {
    solutions = [];
    truncated = false;
    solver_calls = 0;
    stats = Sat.Solver.zero_stats;
    cert_checks = 0;
    cert_failures = [];
    cnf_time = 0.0;
    one_time = 0.0;
    all_time = 0.0;
  }

let sum runs =
  List.fold_left
    (fun a r ->
      {
        a with
        solutions = a.solutions @ r.solutions;
        truncated = a.truncated || r.truncated;
        solver_calls = a.solver_calls + r.solver_calls;
        stats = Sat.Solver.add_stats a.stats r.stats;
        cert_checks = a.cert_checks + r.cert_checks;
        cert_failures = a.cert_failures @ r.cert_failures;
      })
    empty runs

let record obs ~prefix o =
  let name field = prefix ^ "/" ^ field in
  Telemetry.record_solver_stats obs ~prefix o.stats;
  Obs.add obs (name "solutions") (List.length o.solutions);
  Obs.add obs (name "solver_calls") o.solver_calls;
  Obs.add obs (name "truncated") (if o.truncated then 1 else 0);
  List.iter
    (fun s -> Obs.observe obs (name "solution_size") (List.length s))
    o.solutions;
  Obs.record_span obs (name "cnf") o.cnf_time;
  Obs.record_span obs (name "solve") o.all_time
