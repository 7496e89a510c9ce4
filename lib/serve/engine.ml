type outcome = {
  solutions : int list list;
  truncated : bool;
  cert_checks : int;
  cert_failures : string list;
  conflicts : int;
  reused : int;
  revalidated : int;
  stats : Obs.Json.t option;
}

(* per-request view of cumulative solver counters; [learned] is a gauge
   (clauses currently in the database), not a counter, so it is
   reported as-is *)
let delta (a : Sat.Solver.stats) (b : Sat.Solver.stats) =
  { (Sat.Solver.map2_stats ( - ) b a) with learned = b.Sat.Solver.learned }

let run ?obs ?budget ?(jobs = 1) ~max_solutions inc =
  Diagnosis.Incremental.attach inc obs;
  let budget = Option.map Sat.Budget.renewed budget in
  let st0 = Diagnosis.Incremental.stats inc in
  let checks0 = Diagnosis.Incremental.cert_checks inc in
  let failures0 = List.length (Diagnosis.Incremental.cert_failures inc) in
  let reused0 = Diagnosis.Incremental.reused inc in
  let revalidated0 = Diagnosis.Incremental.revalidated inc in
  let solutions =
    Diagnosis.Incremental.solutions ~max_solutions ?budget ~jobs inc
  in
  let truncated = Diagnosis.Incremental.last_truncated inc in
  let cert_checks = Diagnosis.Incremental.cert_checks inc - checks0 in
  let cert_failures =
    List.filteri
      (fun i _ -> i >= failures0)
      (Diagnosis.Incremental.cert_failures inc)
  in
  let reused = Diagnosis.Incremental.reused inc - reused0 in
  let revalidated = Diagnosis.Incremental.revalidated inc - revalidated0 in
  let st_delta = delta st0 (Diagnosis.Incremental.stats inc) in
  let stats =
    Option.map
      (fun o ->
        Diagnosis.Telemetry.record_solver_stats o ~prefix:"incremental"
          st_delta;
        Obs.add o "incremental/solutions" (List.length solutions);
        Obs.add o "incremental/tests" (Diagnosis.Incremental.num_tests inc);
        Obs.add o "incremental/truncated" (if truncated then 1 else 0);
        Obs.add o "incremental/cert_checks" cert_checks;
        (* only requests that used a carried answer carry these keys, so
           a cold request's block is unchanged *)
        if reused > 0 then Obs.add o "incremental/reused" reused;
        if revalidated > 0 then Obs.add o "incremental/revalidated" revalidated;
        Obs.to_json ~times:false o)
      obs
  in
  {
    solutions;
    truncated;
    cert_checks;
    cert_failures;
    conflicts = st_delta.Sat.Solver.conflicts;
    reused;
    revalidated;
    stats;
  }
