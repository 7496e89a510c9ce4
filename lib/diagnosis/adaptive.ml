type verdict = Unique | No_diagnosis | Indistinguishable | Stalled | Exhausted

type round = {
  survivors_before : int;
  vector : bool array;
  triples : Sim.Testgen.test list;
  killed : int list list;
  survivors_after : int;
  score : float;
  pairs_separable : int;
  pairs_inseparable : int;
}

type result = {
  outcome : Outcome.t;
  verdict : verdict;
  rounds : round list;
  initial_tests : int;
  tests_committed : int;
  twin_calls : int;
}

let vector_key v =
  String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

(* Candidate vectors of one generation pass: for every unordered
   survivor pair, one {e directed} twin instance per direction
   ({!Encode.Twin.build_directed}), up to [vectors_per_pair] models
   each — every model is a guaranteed kill of the direction's victim.
   Vectors in [seen] (committed, i.e. already measured) are blocked up
   front, so a pass only returns vectors with fresh splitting power.
   A pair is inseparable when both directions open with [Unsat]: the
   two candidates provably survive or die together on every future
   test.  Returns the distinct new vectors in generation order, the
   per-pair tallies, and whether the budget died mid-generation. *)
exception Enough

let generate_vectors ~certify ~vectors_per_pair ~max_pool ?budget ~seen
    ~on_cert ~twin_calls ~golden faulty survivors =
  let arr = Array.of_list survivors in
  let n = Array.length arr in
  let vectors = ref [] in
  let pool = ref 0 in
  let fresh = Hashtbl.create 16 in
  let separable = ref 0 in
  let inseparable = ref 0 in
  let out_of_budget = ref false in
  (* one direction: vectors keeping [survivor] while killing [victim];
     returns [true] when the first answer was a model *)
  let direction ~survivor ~victim =
    let solver = Sat.Solver.create () in
    let twin =
      Encode.Twin.build_directed ~certify ~golden solver faulty ~survivor
        ~victim
    in
    List.iter (Encode.Twin.block twin) seen;
    let opened = ref false in
    let rec pull remaining first =
      if remaining > 0 then begin
        incr twin_calls;
        match Encode.Twin.next_vector ?budget twin with
        | Encode.Twin.Unknown ->
            out_of_budget := true;
            on_cert twin;
            raise Exit
        | Encode.Twin.Inseparable -> ()
        | Encode.Twin.Vector v ->
            if first then opened := true;
            let key = vector_key v in
            if not (Hashtbl.mem fresh key) then begin
              Hashtbl.replace fresh key ();
              vectors := v :: !vectors;
              incr pool
            end;
            pull (remaining - 1) false
      end
    in
    pull vectors_per_pair true;
    on_cert twin;
    !opened
  in
  (try
     for i = 0 to n - 2 do
       for j = i + 1 to n - 1 do
         let forward = direction ~survivor:arr.(i) ~victim:arr.(j) in
         let backward = direction ~survivor:arr.(j) ~victim:arr.(i) in
         if forward || backward then incr separable else incr inseparable;
         (* a full pair sweep is only needed to certify that NO pair is
            separable; once this pass has a healthy vector pool it will
            commit a kill anyway, so later pairs can wait for the next
            round (the iteration order is fixed — the cut is
            deterministic) *)
         if !pool >= max_pool then raise Enough
       done
     done
   with
  | Exit -> ()
  | Enough -> ());
  (List.rev !vectors, !separable, !inseparable, !out_of_budget)

let diagnose ?(max_rounds = 32) ?(max_stall = 4) ?(vectors_per_pair = 4)
    ?(max_pool = 32) ?(max_solutions = 1000) ?budget ?obs ?(certify = false)
    ?(jobs = 1) ~k ~golden faulty tests =
  if tests = [] then invalid_arg "Adaptive.diagnose: empty initial test set";
  let jobs = Par.clamp_jobs jobs in
  let t0 = Obs.Clock.wall () in
  let inc = Incremental.create ?obs ~certify ~k faulty tests in
  let cnf_time = Obs.Clock.wall () -. t0 in
  let twin_calls = ref 0 in
  let twin_checks = ref 0 in
  let twin_failures = ref [] in
  let on_cert twin =
    twin_checks := !twin_checks + Encode.Twin.cert_checks twin;
    twin_failures := !twin_failures @ Encode.Twin.cert_failures twin
  in
  (* committed (i.e. measured) vectors, oldest first: blocked in later
     twin instances, which keeps the Inseparable proof honest — a
     measured vector's triples are already in the test set, so it
     carries no further splitting power.  Merely scored vectors are NOT
     blocked: they were never measured, so hiding them could mask a
     genuine separator. *)
  let seen = ref [] in
  let remember vector = seen := !seen @ [ vector ] in
  let rounds = ref [] in
  let committed = ref 0 in
  let enumerations = ref [] in
  let enumerate () =
    let r = Incremental.solutions ~max_solutions ?budget inc in
    enumerations := r.Incremental.outcome :: !enumerations;
    r.Incremental.outcome
  in
  let budget_alive () =
    match budget with None -> true | Some b -> not (Sat.Budget.exhausted b)
  in
  (* One adaptive round on the current survivor set; recurses until a
     verdict.  [Exhausted] covers budget, round and enumeration caps.
     A generation pass whose vectors all fail to split the survivors is
     retried with those vectors blocked ([stall] counts the consecutive
     fruitless passes); once every pair answers [Inseparable] over the
     blocked set the survivors are provably final. *)
  let rec loop round_idx stall survivors =
    match survivors with
    | [] -> (No_diagnosis, [])
    | [ _ ] -> (Unique, survivors)
    | _ when round_idx >= max_rounds || not (budget_alive ()) ->
        (Exhausted, survivors)
    | _ when stall >= max_stall -> (Stalled, survivors)
    | _ ->
        let vectors, separable, inseparable, out_of_budget =
          Telemetry.phase obs "adaptive/generate"
            ~payload:(fun (vs, _, _, _) -> List.length vs)
            (fun () ->
              generate_vectors ~certify ~vectors_per_pair ~max_pool ?budget
                ~seen:!seen ~on_cert ~twin_calls ~golden faulty survivors)
        in
        if out_of_budget then (Exhausted, survivors)
        else if separable = 0 then (Indistinguishable, survivors)
        else begin
          (* score every candidate vector by the survivor partition its
             resimulated responses induce; [Par.map] keeps input order,
             so selection is width-invariant *)
          let scored =
            Telemetry.phase obs "adaptive/score"
              ~payload:List.length
              (fun () ->
                Par.map ~jobs
                  (fun vector ->
                    let triples =
                      Sim.Testgen.from_vectors ~golden ~faulty [ vector ]
                    in
                    let killed =
                      if triples = [] then []
                      else
                        List.filter
                          (fun s ->
                            not (Validity.check_sat faulty triples s))
                          survivors
                    in
                    (vector, triples, killed))
                  vectors)
          in
          let total = List.length survivors in
          let best =
            List.fold_left
              (fun acc (vector, triples, killed) ->
                let kills = List.length killed in
                if kills = 0 then acc
                else
                  let score =
                    Sim.Testgen.split_entropy ~total ~killed:kills
                  in
                  match acc with
                  | Some (_, _, best_killed, best_score)
                    when (best_score, List.length best_killed)
                         >= (score, kills) ->
                      acc
                  | _ -> Some (vector, triples, killed, score))
              None scored
          in
          match best with
          | None ->
              (* unreachable in theory — every directed model carries a
                 guaranteed kill — kept as a defensive bound against a
                 scoring/encoding disagreement *)
              loop round_idx (stall + 1) survivors
          | Some (vector, triples, killed, score) ->
              Telemetry.phase obs "adaptive/round"
                ~payload:(fun _ -> List.length killed)
              @@ fun () ->
              remember vector;
              Incremental.add_tests inc triples;
              committed := !committed + List.length triples;
              let enumerated = enumerate () in
              let survivors' = enumerated.Outcome.solutions in
              Telemetry.observe obs "adaptive/killed" (List.length killed);
              rounds :=
                {
                  survivors_before = total;
                  vector;
                  triples;
                  killed;
                  survivors_after = List.length survivors';
                  score;
                  pairs_separable = separable;
                  pairs_inseparable = inseparable;
                }
                :: !rounds;
              if enumerated.Outcome.truncated then (Exhausted, survivors')
              else loop (round_idx + 1) 0 survivors'
        end
  in
  let first = enumerate () in
  let verdict, solutions =
    if first.Outcome.truncated then (Exhausted, first.Outcome.solutions)
    else loop 0 0 first.Outcome.solutions
  in
  let truncated = verdict = Exhausted in
  Option.iter
    (fun o ->
      Obs.add o "adaptive/rounds" (List.length !rounds);
      Obs.add o "adaptive/tests_committed" !committed;
      Obs.add o "adaptive/twin_calls" !twin_calls;
      Obs.add o "adaptive/solutions" (List.length solutions);
      Obs.add o "adaptive/truncated" (if truncated then 1 else 0))
    obs;
  let runs = Outcome.sum (List.rev !enumerations) in
  let outcome =
    {
      Outcome.solutions;
      truncated;
      solver_calls = runs.solver_calls + !twin_calls;
      stats = Incremental.stats inc;
      cert_checks = runs.cert_checks + !twin_checks;
      cert_failures = runs.cert_failures @ !twin_failures;
      cnf_time;
      one_time = 0.0;
      all_time = Obs.Clock.wall () -. t0 -. cnf_time;
    }
  in
  Incremental.retire inc;
  {
    outcome;
    verdict;
    rounds = List.rev !rounds;
    initial_tests = List.length tests;
    tests_committed = !committed;
    twin_calls = !twin_calls;
  }
