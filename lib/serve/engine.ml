let run ?obs ?budget ~max_solutions inc =
  Diagnosis.Incremental.attach inc obs;
  let budget = Option.map Sat.Budget.renewed budget in
  let r = Diagnosis.Incremental.solutions ~max_solutions ?budget inc in
  let o = r.Diagnosis.Incremental.outcome in
  Option.iter
    (fun obs ->
      Diagnosis.Telemetry.record_solver_stats obs ~prefix:"incremental"
        o.Diagnosis.Outcome.stats;
      Obs.add obs "incremental/solutions" (List.length o.solutions);
      Obs.add obs "incremental/tests" (Diagnosis.Incremental.num_tests inc);
      Obs.add obs "incremental/truncated" (if o.truncated then 1 else 0);
      Obs.add obs "incremental/cert_checks" o.cert_checks;
      (* only requests that used a carried answer carry these keys, so
         a cold request's block is unchanged *)
      if r.reused > 0 then Obs.add obs "incremental/reused" r.reused;
      if r.revalidated > 0 then
        Obs.add obs "incremental/revalidated" r.revalidated)
    obs;
  r
