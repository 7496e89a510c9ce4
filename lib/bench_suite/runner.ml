type times = { cnf : float; one : float; all : float }

type row = {
  label : string;
  p : int;
  m : int;
  bsim_time : float;
  cov : times;
  bsat : Diagnosis.Outcome.t;
  bsim_q : Diagnosis.Metrics.bsim_quality;
  cov_q : Diagnosis.Metrics.solution_quality;
  bsat_q : Diagnosis.Metrics.solution_quality;
  cov_solutions : int list list;
  cov_truncated : bool;
  error_sites : int list;
}

let run_row ?max_solutions ?seconds (w : Workload.prepared) ~m =
  let spec = w.Workload.spec in
  let tests = List.filteri (fun i _ -> i < m) w.Workload.tests in
  let m = List.length tests in
  let k = spec.Workload.num_errors in
  let faulty = w.Workload.faulty in
  let error_sites = Sim.Fault.sites w.Workload.errors in
  (* a budget's deadline is absolute: each engine gets its own *)
  let budget () =
    Option.map (fun seconds -> Sat.Budget.create ~seconds ()) seconds
  in
  let t0 = Obs.Clock.wall () in
  let bsim = Diagnosis.Bsim.diagnose faulty tests in
  let bsim_time = Obs.Clock.wall () -. t0 in
  let cov_r =
    Diagnosis.Cover.diagnose ?max_solutions ?budget:(budget ()) ~k faulty
      tests
  in
  let bsat =
    Diagnosis.Bsat.diagnose ?max_solutions ?budget:(budget ()) ~k faulty
      tests
  in
  {
    label = spec.Workload.label;
    p = k;
    m;
    bsim_time;
    cov =
      { cnf = cov_r.Diagnosis.Cover.cnf_time;
        one = cov_r.Diagnosis.Cover.one_time;
        all = cov_r.Diagnosis.Cover.all_time };
    bsat;
    bsim_q = Diagnosis.Metrics.bsim_quality faulty ~error_sites bsim;
    cov_q =
      Diagnosis.Metrics.solutions_quality faulty ~error_sites
        cov_r.Diagnosis.Cover.solutions;
    bsat_q =
      Diagnosis.Metrics.solutions_quality faulty ~error_sites
        bsat.Diagnosis.Bsat.solutions;
    cov_solutions = cov_r.Diagnosis.Cover.solutions;
    cov_truncated = cov_r.Diagnosis.Cover.truncated;
    error_sites;
  }

let run ?max_solutions ?seconds w =
  let available = List.length w.Workload.tests in
  let ms =
    w.Workload.spec.Workload.test_counts
    |> List.map (fun m -> min m available)
    |> List.filter (fun m -> m > 0)
    |> List.sort_uniq Int.compare
  in
  List.map (fun m -> run_row ?max_solutions ?seconds w ~m) ms
