type guided_result = {
  solutions : int list list;
  plain_stats : Sat.Solver.stats;
  guided_stats : Sat.Solver.stats;
  plain_time : float;
  guided_time : float;
  truncated : bool;
}

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
      ?jobs ~obs_prefix:"hybrid/plain" ~k c tests
  in
  let guided =
    Bsat.diagnose ~hints ?max_solutions ?budget ?obs ?jobs
      ~obs_prefix:"hybrid/guided" ~k c tests
  in
  {
    solutions = guided.Bsat.solutions;
    plain_stats = plain.Bsat.stats;
    guided_stats = guided.Bsat.stats;
    plain_time = plain.Bsat.all_time;
    guided_time = guided.Bsat.all_time;
    truncated = plain.Bsat.truncated || guided.Bsat.truncated;
  }

type repair_result = {
  seed : int list;
  kept : int list;
  correction : int list;
  dropped : int;
  added : int;
}

type repair_outcome = {
  repaired : repair_result option;
  exhausted : bool;
  cert_checks : int;
  cert_failures : string list;
}

let repair ?marks ?(budget = Sat.Budget.unlimited ()) ?obs ?(certify = false)
    ?jobs ~k ~seed c tests =
  Telemetry.phase obs "hybrid/repair"
    ~payload:(fun r ->
      match r.repaired with None -> 0 | Some r -> List.length r.correction)
  @@ fun () ->
  let marks =
    match marks with
    | Some m -> m
    | None -> (Bsim.diagnose ?jobs c tests).Bsim.marks
  in
  let solver = Sat.Solver.create () in
  let inst = Encode.Muxed.build ~certify ~max_k:k solver c tests in
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
    {
      repaired;
      exhausted;
      cert_checks = Encode.Muxed.cert_checks inst;
      cert_failures = Encode.Muxed.cert_failures inst;
    }
  in
  let rec attempt kept =
    let extra = List.map (Encode.Muxed.select_lit inst) kept in
    match Encode.Muxed.solve_at_most_limited ~extra ~budget inst k with
    | Sat.Solver.Unknown -> finish None ~exhausted:true
    | Sat.Solver.Solved Sat.Solver.Sat ->
        let sol = Encode.Muxed.solution inst in
        let correction =
          Validity.essentialize ~check:(fun s -> Validity.check_sat c tests s)
            sol
        in
        let kept_final = List.filter (fun g -> List.mem g seed) correction in
        finish ~exhausted:false
          (Some
             {
               seed;
               kept = kept_final;
               correction;
               dropped = List.length seed - List.length kept_final;
               added =
                 List.length
                   (List.filter (fun g -> not (List.mem g seed)) correction);
             })
    | Sat.Solver.Solved Sat.Solver.Unsat -> (
        match List.rev kept with
        | [] -> finish None ~exhausted:false
        | _least :: rest_rev -> attempt (List.rev rest_rev))
  in
  attempt truncated_seed
