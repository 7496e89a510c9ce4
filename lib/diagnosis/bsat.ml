type result = Outcome.t = {
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

type hints = {
  priority : (int * float) list;
  prefer_selected : int list;
}

let no_hints = { priority = []; prefer_selected = [] }

let apply_hints solver inst hints =
  List.iter
    (fun (g, w) ->
      match Encode.Muxed.select_lit inst g with
      | l -> Sat.Solver.bump_priority solver (Sat.Lit.var l) w
      | exception Not_found -> ())
    hints.priority;
  List.iter
    (fun g ->
      match Encode.Muxed.select_lit inst g with
      | l -> Sat.Solver.set_default_phase solver (Sat.Lit.var l) true
      | exception Not_found -> ())
    hints.prefer_selected

type strategy = Incremental_k | Minimize_single_pass

let diagnose ?candidates ?(hints = no_hints)
    ?(strategy = Incremental_k) ?(max_solutions = max_int)
    ?(budget = Sat.Budget.unlimited ()) ?obs ?(obs_prefix = "bsat")
    ?(certify = false) ~k c tests =
  (* Lemma 1 by simulation: the gates whose flip alone corrects every
     failing test.  Every other candidate gets a clause saying so, which
     settles level 1 by propagation; a certified run's checker could not
     justify those clauses, so it proves level 1 by search *)
  let t0 = Obs.Clock.wall () in
  let is_single =
    if certify || k < 1 then None
    else begin
      let a = Array.make (Netlist.Circuit.size c) false in
      List.iter (fun g -> a.(g) <- true) (Validity.singles c tests);
      Some a
    end
  in
  let singles_time = Obs.Clock.wall () -. t0 in
  let solver = Sat.Solver.create () in
  Option.iter (Sat.Solver.attach_obs solver) obs;
  let wt0 = Obs.Clock.wall () in
  let inst =
    Telemetry.phase obs (obs_prefix ^ "/cnf") (fun () ->
        Encode.Muxed.build ?candidates ~certify ~max_k:k solver c tests)
  in
  Option.iter
    (fun single ->
      Array.iter
        (fun g -> if not single.(g) then Encode.Muxed.rule_out_single inst g)
        (Encode.Muxed.candidate_gates inst))
    is_single;
  apply_hints solver inst hints;
  let cnf_time = singles_time +. (Obs.Clock.wall () -. wt0) in
  let found = ref 0 in
  let start = Obs.Clock.wall () in
  Option.iter (fun o -> Obs.begin_event o (obs_prefix ^ "/solve")) obs;
  let r =
    match strategy with
    | Incremental_k ->
        Enumerate.levels ~found ~max_solutions ~budget ~k
          (Enumerate.muxed inst)
    | Minimize_single_pass ->
        Enumerate.single_pass ~found ~max_solutions ~budget ~k inst
  in
  let all_time = Obs.Clock.wall () -. start in
  Option.iter
    (fun o ->
      Obs.end_event ~payload:(List.length r.found) o (obs_prefix ^ "/solve"))
    obs;
  let result =
    {
      solutions = Solutions.canonical r.found;
      truncated = r.truncated;
      solver_calls = r.calls;
      stats = Sat.Solver.stats solver;
      cert_checks = Encode.Muxed.cert_checks inst;
      cert_failures = Encode.Muxed.cert_failures inst;
      cnf_time;
      one_time =
        (if Float.is_finite r.first_at then r.first_at -. start else 0.0);
      all_time;
    }
  in
  Option.iter (fun obs -> Outcome.record obs ~prefix:obs_prefix result) obs;
  result

let first_solution ?candidates ?hints ~k c tests =
  let r = diagnose ?candidates ?hints ~max_solutions:1 ~k c tests in
  match r.solutions with [] -> None | sol :: _ -> Some sol
