(* Multiple-error diagnosis and the COV/BSAT solution-space gap.

     dune exec examples/multi_error.exe

   Injects three errors into a random netlist and compares all the
   approaches: BSIM marks, COV covers, BSAT corrections, the advanced
   simulation-based search and the dominator two-pass.  Empirically
   demonstrates Theorems 1 and 2 on a non-toy circuit: covers that are
   not valid corrections, and valid corrections no cover produces. *)

let () =
  let golden =
    Core.Generators.random_dag ~seed:2024 ~num_inputs:16 ~num_gates:220
      ~num_outputs:10 ()
  in
  let p = 3 in
  let faulty, errors = Core.Injector.inject ~seed:5 ~num_errors:p golden in
  let sites = Core.Fault.sites errors in
  Fmt.pr "circuit: %a@." Core.Circuit.pp_stats golden;
  List.iter
    (fun e -> Fmt.pr "injected: %a@." (Core.Fault.pp golden) e)
    errors;

  let tests =
    Core.Testgen.generate ~seed:6 ~max_vectors:65536 ~wanted:16 ~golden
      ~faulty
  in
  Fmt.pr "%d failing tests@.@." (List.length tests);

  let name g = faulty.Core.Circuit.names.(g) in
  let pp_sol ppf s =
    Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ",") Fmt.string)
      (List.map name s)
  in

  (* BSIM *)
  let bsim = Core.Bsim.diagnose faulty tests in
  Fmt.pr "BSIM: %d gates marked, max marks %d, G_max=%a@."
    (List.length bsim.Core.Bsim.union)
    bsim.Core.Bsim.max_marks pp_sol bsim.Core.Bsim.gmax;

  (* COV vs BSAT *)
  let cov = Core.Cover.diagnose ~max_solutions:5000 ~k:p faulty tests in
  let bsat = Core.Bsat.diagnose ~max_solutions:5000 ~k:p faulty tests in
  let sorted = List.map (List.sort Int.compare) in
  let cov_sols = sorted cov.Core.Cover.solutions in
  let bsat_sols = sorted bsat.Core.Bsat.solutions in
  Fmt.pr "COV : %d covers@." (List.length cov_sols);
  Fmt.pr "BSAT: %d valid corrections@." (List.length bsat_sols);

  let invalid_covers =
    List.filter
      (fun s -> not (Core.Validity.check_sat faulty tests s))
      cov_sols
  in
  Fmt.pr "Theorem 1: %d COV covers are not valid corrections, e.g. %a@."
    (List.length invalid_covers)
    (Fmt.option pp_sol)
    (List.nth_opt invalid_covers 0);
  let bsat_only = List.filter (fun s -> not (List.mem s cov_sols)) bsat_sols in
  Fmt.pr "Theorem 2: %d BSAT corrections are not covers, e.g. %a@."
    (List.length bsat_only)
    (Fmt.option pp_sol)
    (List.nth_opt bsat_only 0);

  (* quality relative to the real error sites *)
  let q sols = Core.Metrics.solutions_quality faulty ~error_sites:sites sols in
  let cq = q cov_sols and bq = q bsat_sols in
  Fmt.pr "@.avg distance to nearest real error: COV %.2f vs BSAT %.2f@."
    cq.Core.Metrics.avg_avg bq.Core.Metrics.avg_avg;
  Fmt.pr "hit rate (solution touches a real site): COV %.0f%% vs BSAT %.0f%%@."
    (100.0 *. Core.Metrics.hit_rate ~error_sites:sites cov_sols)
    (100.0 *. Core.Metrics.hit_rate ~error_sites:sites bsat_sols);

  (* the advanced approaches *)
  let asim =
    Core.Advanced_sim.diagnose ~max_solutions:200
      ~budget:(Core.Budget.create ~seconds:10.0 ())
      ~k:p faulty tests
  in
  Fmt.pr "@.advanced sim-based: %d valid corrections (search over marked \
          gates)@."
    (List.length asim.Core.Advanced_sim.solutions);
  let adom =
    Core.Advanced_sat.diagnose_dominators ~max_solutions:5000 ~k:p faulty
      tests
  in
  Fmt.pr "advanced SAT (2-pass dominators): %d corrections, pass1 explored \
          %d coarse sites@."
    (List.length adom.Core.Advanced_sat.outcome.solutions)
    (List.length adom.Core.Advanced_sat.pass1_solutions);

  (* does some BSAT solution sit inside the real error set? *)
  let exact =
    List.filter (fun s -> List.for_all (fun g -> List.mem g sites) s)
      bsat_sols
  in
  Fmt.pr "@.BSAT solutions that are subsets of the real error set: %d \
          (e.g. %a)@."
    (List.length exact)
    (Fmt.option pp_sol) (List.nth_opt exact 0)
