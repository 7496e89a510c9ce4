type guided_result = { plain : Outcome.t; guided : Outcome.t }

let guided ?max_solutions ?budget ?obs ?jobs ~k c tests =
  let bsim = Bsim.diagnose ?jobs c tests in
  let hints =
    {
      Bsat.priority =
        List.map
          (fun g -> (g, float_of_int bsim.Bsim.marks.(g)))
          bsim.Bsim.union;
      prefer_selected = bsim.Bsim.gmax;
    }
  in
  (* the comparison only means something if both runs get the same
     allowance, so the plain run burns a clone of the budget *)
  let plain_budget = Option.map Sat.Budget.clone budget in
  let plain =
    Bsat.diagnose ?max_solutions ?budget:plain_budget ?obs
      ~obs_prefix:"hybrid/plain" ~k c tests
  in
  let guided =
    Bsat.diagnose ~hints ?max_solutions ?budget ?obs
      ~obs_prefix:"hybrid/guided" ~k c tests
  in
  { plain; guided }

let cov_seed ?budget ?obs ?jobs ~k c tests =
  Cover.diagnose ~engine:Cover.Backtrack_engine ~max_solutions:1 ?budget ?obs
    ?jobs ~k c tests

type repair_result = {
  seed : int list;
  kept : int list;
  correction : int list;
  dropped : int;
  added : int;
}

type repair_outcome = { repaired : repair_result option; outcome : Outcome.t }

let repair ?(budget = Sat.Budget.unlimited ()) ?obs ?(certify = false)
    ?jobs ~k ~seed c tests =
  Telemetry.phase obs "hybrid/repair"
    ~payload:(fun r ->
      match r.repaired with None -> 0 | Some r -> List.length r.correction)
  @@ fun () ->
  let marks = (Bsim.diagnose ?jobs c tests).Bsim.marks in
  let t0 = Obs.Clock.wall () in
  let solver = Sat.Solver.create () in
  let inst = Encode.Muxed.build ~certify ~max_k:k solver c tests in
  let cnf_time = Obs.Clock.wall () -. t0 in
  let calls = ref 0 in
  let is_candidate g =
    match Encode.Muxed.select_lit inst g with
    | _ -> true
    | exception Not_found -> false
  in
  (* most-marked seeds are the most trustworthy: keep them longest *)
  let ordered_seed =
    List.filter is_candidate seed
    |> List.sort (fun a b -> compare (marks.(b), a) (marks.(a), b))
  in
  let truncated_seed =
    List.filteri (fun i _ -> i < k) ordered_seed
  in
  let finish repaired ~exhausted =
    let all_time = Obs.Clock.wall () -. t0 -. cnf_time in
    let outcome =
      {
        Outcome.solutions =
          Option.to_list (Option.map (fun r -> r.correction) repaired);
        truncated = exhausted;
        solver_calls = !calls;
        stats = Sat.Solver.stats solver;
        cert_checks = Encode.Muxed.cert_checks inst;
        cert_failures = Encode.Muxed.cert_failures inst;
        cnf_time;
        one_time = (if repaired = None then 0.0 else all_time);
        all_time;
      }
    in
    { repaired; outcome }
  in
  let rec attempt kept =
    let extra = List.map (Encode.Muxed.select_lit inst) kept in
    let answer =
      if Sat.Budget.exhausted budget then Sat.Solver.Unknown
      else begin
        incr calls;
        Encode.Muxed.solve_at_most ~extra ~budget inst k
      end
    in
    match answer with
    | Sat.Solver.Unknown -> finish None ~exhausted:true
    | Sat.Solver.Solved Sat.Solver.Sat -> (
        match
          Enumerate.shrink ~budget ~count:(fun () -> incr calls) inst
            (Encode.Muxed.solution inst)
        with
        | Error _ -> finish None ~exhausted:true
        | Ok correction ->
            let kept_final, added =
              List.partition (fun g -> List.mem g seed) correction
            in
            finish ~exhausted:false
              (Some
                 {
                   seed;
                   kept = kept_final;
                   correction;
                   dropped = List.length seed - List.length kept_final;
                   added = List.length added;
                 }))
    | Sat.Solver.Solved Sat.Solver.Unsat -> (
        match List.rev kept with
        | [] -> finish None ~exhausted:false
        | _least :: rest_rev -> attempt (List.rev rest_rev))
  in
  attempt truncated_seed
