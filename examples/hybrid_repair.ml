(* The paper's §6 hybrid flows.

     dune exec examples/hybrid_repair.exe

   (a) Decision-order hybrid: BSIM mark counts bias the SAT solver's
       variable activities and phases — same solutions, different search.
   (b) Seed repair: a cheap (possibly invalid) COV cover is turned into a
       guaranteed-valid correction by the SAT engine. *)

let () =
  let golden = Core.Generators.multiplier 5 in
  let p = 2 in
  let faulty, errors = Core.Injector.inject ~seed:11 ~num_errors:p golden in
  Fmt.pr "circuit: %a@." Core.Circuit.pp_stats golden;
  List.iter (fun e -> Fmt.pr "injected: %a@." (Core.Fault.pp golden) e) errors;
  let tests =
    Core.Testgen.generate ~seed:12 ~max_vectors:65536 ~wanted:12 ~golden
      ~faulty
  in
  Fmt.pr "%d failing tests@.@." (List.length tests);

  let name g = faulty.Core.Circuit.names.(g) in
  let pp_sol ppf s =
    Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ",") Fmt.string)
      (List.map name s)
  in

  (* (a) BSIM-guided decision order *)
  let guided = Core.Hybrid.guided ~max_solutions:500 ~k:p faulty tests in
  Fmt.pr "-- hybrid (a): BSIM marks drive the SAT decision heuristic --@.";
  let show label (o : Core.Outcome.t) =
    Fmt.pr "%s: %.3fs, %d conflicts, %d decisions@." label o.all_time
      o.stats.Core.Solver.conflicts o.stats.Core.Solver.decisions
  in
  show "plain BSAT " guided.Core.Hybrid.plain;
  show "guided BSAT" guided.Core.Hybrid.guided;
  Fmt.pr "identical %d solutions either way.@.@."
    (List.length guided.Core.Hybrid.guided.solutions);

  (* (b) repair a COV seed *)
  Fmt.pr "-- hybrid (b): repair an initial (possibly invalid) correction --@.";
  let cov = Core.Cover.diagnose ~max_solutions:50 ~k:p faulty tests in
  let seed_sol =
    (* deliberately pick an invalid cover when one exists *)
    match
      List.find_opt
        (fun s -> not (Core.Validity.check_sat faulty tests s))
        cov.Core.Cover.solutions
    with
    | Some s -> s
    | None -> List.hd cov.Core.Cover.solutions
  in
  Fmt.pr "COV seed  : %a (valid correction: %b)@." pp_sol seed_sol
    (Core.Validity.check_sat faulty tests seed_sol);
  (match
     (Core.Hybrid.repair ~k:p ~seed:seed_sol faulty tests).Core.Hybrid.repaired
   with
  | None -> Fmt.pr "no valid correction of size <= %d exists@." p
  | Some r ->
      Fmt.pr "repaired  : %a (kept %d seed gates, dropped %d, added %d)@."
        pp_sol r.Core.Hybrid.correction
        (List.length r.Core.Hybrid.kept)
        r.Core.Hybrid.dropped r.Core.Hybrid.added;
      Fmt.pr "valid     : %b@."
        (Core.Validity.check_sat faulty tests r.Core.Hybrid.correction));
  let sites = Core.Fault.sites errors in
  Fmt.pr "actual    : %a@." pp_sol sites
