module Dominators = Netlist.Dominators

type result = { outcome : Outcome.t; pass1_solutions : int list list }

(* The result over the Bsat passes run, in order: their sum, with the
   final pass's solver counters, every pass's CNF time added up and the
   rest of the run's wall time as the solve time.  Inner
   Bsat runs are deliberately not handed [obs]: their per-call counters
   would double-count against the final-pass snapshot recorded here.
   Phase events around each pass carry the trajectory instead. *)
let finish obs prefix ~t0 ~solutions passes =
  let final = List.fold_left (fun _ r -> r) Outcome.empty passes in
  let cnf_time =
    List.fold_left (fun a r -> a +. r.Outcome.cnf_time) 0.0 passes
  in
  let outcome =
    {
      (Outcome.sum passes) with
      solutions;
      stats = final.Outcome.stats;
      cnf_time;
      one_time = 0.0;
      all_time = Obs.Clock.wall () -. t0 -. cnf_time;
    }
  in
  Option.iter (fun obs -> Outcome.record obs ~prefix outcome) obs;
  let pass1_solutions =
    match passes with [] -> [] | p :: _ -> p.Outcome.solutions
  in
  { outcome; pass1_solutions }

let diagnose_dominators ?max_solutions ?budget ?obs ?certify ~k c tests =
  let t0 = Obs.Clock.wall () in
  let dom = Dominators.compute c in
  let skeleton = Dominators.nontrivial dom in
  (* one budget spans both passes: the refinement pass only gets what the
     skeleton pass left over *)
  let pass name candidates =
    Telemetry.phase obs name
      ~payload:(fun r -> List.length r.Bsat.solutions)
      (fun () ->
        Bsat.diagnose ~candidates ?max_solutions ?budget ?certify ~k c tests)
  in
  let pass1 = pass "advsat/pass1" skeleton in
  (* refine: multiplexers at every implicated dominator and everything it
     dominates *)
  let implicated =
    List.concat_map
      (fun sol ->
        List.concat_map (fun d -> d :: Dominators.region dom d) sol)
      pass1.Bsat.solutions
    |> List.sort_uniq Int.compare
    |> List.filter (fun g -> not (Netlist.Circuit.is_input c g))
  in
  let passes =
    match implicated with
    | [] -> [ pass1 ]
    | _ -> [ pass1; pass "advsat/pass2" implicated ]
  in
  let final = List.nth passes (List.length passes - 1) in
  finish obs "advsat/dominators" ~t0 ~solutions:final.Bsat.solutions passes

let chunks n xs =
  let rec go acc cur count = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if count = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (count + 1) rest
  in
  go [] [] 0 xs

let diagnose_partitioned ?(slice = 8) ?max_solutions ?budget ?obs
    ?certify ~k c tests =
  let t0 = Obs.Clock.wall () in
  match chunks slice tests with
  | [] -> finish obs "advsat/partitioned" ~t0 ~solutions:[] []
  | first :: rest ->
      let passes = ref [] in
      let solve ?candidates slice_tests =
        let r =
          Telemetry.phase obs "advsat/slice"
            ~payload:(fun r -> List.length r.Bsat.solutions)
            (fun () ->
              Bsat.diagnose ?candidates ?max_solutions ?budget ?certify ~k c
                slice_tests)
        in
        passes := r :: !passes;
        r
      in
      (* each slice shrinks the candidate pool; solve the next slice over
         the survivors only *)
      let narrow result next_tests =
        match
          List.concat result.Bsat.solutions |> List.sort_uniq Int.compare
        with
        | [] -> result
        | cands -> solve ~candidates:cands next_tests
      in
      let final = List.fold_left narrow (solve first) rest in
      (* validate survivors against the complete test set *)
      let solutions =
        List.filter (fun sol -> Validity.check_sat c tests sol)
          final.Bsat.solutions
      in
      finish obs "advsat/partitioned" ~t0 ~solutions (List.rev !passes)
